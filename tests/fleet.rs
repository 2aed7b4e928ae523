//! Integration tests for the serving fleet: micro-batching, lossless hot
//! swaps, graceful drain, SLO-ordered shedding under overload, lossless
//! canary promotion mid-load, an autoscaler that moves both ways, a live
//! trainer feeding one model of a fleet, and the admission, batching and
//! drain behaviour of a single-model, single-class fleet.

use crossbow::data::synth::gaussian_mixture;
use crossbow::fleet::{
    run_fleet_load, train_into_fleet, Arrival, AutoscalerConfig, CandidateMode, Fleet, FleetClient,
    FleetConfig, FleetError, FleetLoadReport, FleetPrediction, FleetTicket, FleetTrainConfig,
    SloClass, StreamSpec,
};
use crossbow::nn::zoo::mlp;
use crossbow::nn::Network;
use crossbow::serve::BatchConfig;
use crossbow::sync::sma::{Sma, SmaConfig};
use crossbow::sync::TrainerConfig;
use crossbow::telemetry::{SpanKind, Telemetry};
use crossbow::tensor::{Precision, Rng, Shape, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 6;

/// A fleet of `n` spec-compatible mlps, each with its own published v1.
fn fleet_of(n: usize, config: FleetConfig) -> (Fleet, Arc<Network>, Vec<String>) {
    let net = Arc::new(mlp(DIM, &[16], 4));
    let names: Vec<String> = (0..n).map(|i| format!("model-{i}")).collect();
    let mut builder = Fleet::builder(config);
    for name in &names {
        builder = builder.model(name, Arc::clone(&net));
    }
    let fleet = builder.start();
    let mut rng = Rng::new(7);
    for name in &names {
        fleet
            .registry(name)
            .expect("just registered")
            .publish(net.init_params(&mut rng), 1)
            .expect("fresh registry accepts v1");
    }
    (fleet, net, names)
}

fn inputs(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng::new(seed);
    (0..32)
        .map(|_| (0..DIM).map(|_| rng.uniform(-1.0, 1.0)).collect())
        .collect()
}

/// Every stream got a terminal answer for every submission, and nothing
/// admitted was silently dropped.
fn all_answered(report: &FleetLoadReport) -> bool {
    report
        .streams
        .iter()
        .all(|s| s.failed == 0 && s.ok + s.shed + s.rejected == s.submitted)
}

/// Submits one Standard-class request with a deadline no test reaches.
fn submit(client: &FleetClient, model: &str, input: Vec<f32>) -> Result<FleetTicket, FleetError> {
    client.submit(model, input, SloClass::Standard, Duration::from_secs(30))
}

/// Submits `n` identical requests, each of which must be admitted.
fn submit_n(client: &FleetClient, model: &str, n: usize) -> Vec<FleetTicket> {
    (0..n)
        .map(|_| submit(client, model, vec![0.1; DIM]).expect("admitted"))
        .collect()
}

/// Submits one Standard-class request and waits for its answer.
fn call(client: &FleetClient, model: &str, input: Vec<f32>) -> Result<FleetPrediction, FleetError> {
    client.call(model, input, SloClass::Standard, Duration::from_secs(5))
}

fn closed(model: &str, class: SloClass, requests: usize, deadline_ms: u64) -> StreamSpec {
    StreamSpec {
        model: model.to_string(),
        class,
        arrival: Arrival::Closed,
        requests,
        deadline: Duration::from_millis(deadline_ms),
    }
}

/// A single-worker config with a fixed synthetic service time and a
/// small queue, so open-loop floods genuinely overload the pools.
fn tight_config() -> FleetConfig {
    FleetConfig {
        batch: BatchConfig {
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            queue_depth: 16,
        },
        initial_workers: 1,
        work_stealing: false,
        synthetic_delay: Some(Duration::from_millis(5)),
        autoscaler: None,
        telemetry: None,
    }
}

/// (a) + (b): under an open-loop Batch flood, every admitted request is
/// still answered, only the lowest class is shed or rejected, and the
/// higher classes keep the goodput they get from an unloaded fleet.
#[test]
fn overload_sheds_only_the_lowest_class_and_answers_everything() {
    let interactive = 20usize;
    let standard = 20usize;

    // Unloaded baseline: the same closed streams against an idle fleet.
    let (fleet, _, names) = fleet_of(2, tight_config());
    let specs: Vec<StreamSpec> = names
        .iter()
        .flat_map(|m| {
            [
                closed(m, SloClass::Interactive, interactive, 150),
                closed(m, SloClass::Standard, standard, 300),
            ]
        })
        .collect();
    let baseline = run_fleet_load(&fleet.client(), &inputs(3), &specs, 3);
    fleet.shutdown();
    assert!(all_answered(&baseline));

    // Overload: add a Batch flood past each single worker's capacity.
    let (fleet, _, names) = fleet_of(2, tight_config());
    let mut specs: Vec<StreamSpec> = Vec::new();
    for m in &names {
        specs.push(StreamSpec {
            model: m.clone(),
            class: SloClass::Batch,
            arrival: Arrival::Open { rps: 1500.0 },
            requests: 150,
            deadline: Duration::from_millis(50),
        });
        specs.push(closed(m, SloClass::Interactive, interactive, 150));
        specs.push(closed(m, SloClass::Standard, standard, 300));
    }
    let overload = run_fleet_load(&fleet.client(), &inputs(3), &specs, 3);
    let report = fleet.shutdown();

    assert!(all_answered(&overload), "{}", overload.summary());
    assert_eq!(
        overload.shed_for_class(SloClass::Interactive),
        0,
        "interactive is never shed"
    );
    assert_eq!(
        overload.shed_for_class(SloClass::Standard),
        0,
        "standard is never shed"
    );
    assert!(
        overload.shed_for_class(SloClass::Batch) > 0,
        "the flood must overflow the queue: {}",
        overload.summary()
    );
    assert!(
        report.total_shed() > 0,
        "shed events reach the fleet report"
    );
    for m in &names {
        for (class, unloaded) in [
            (
                SloClass::Interactive,
                baseline.goodput(m, SloClass::Interactive),
            ),
            (SloClass::Standard, baseline.goodput(m, SloClass::Standard)),
        ] {
            assert!(
                overload.goodput(m, class) >= unloaded,
                "{m}/{class} goodput fell under overload: {} < {unloaded}",
                overload.goodput(m, class)
            );
        }
    }
}

/// (c): a canary staged and promoted while closed streams run loses no
/// requests, and every client's observed versions stay monotone across
/// the promotion.
#[test]
fn canary_promotion_mid_load_is_lossless_and_monotone() {
    let config = FleetConfig {
        synthetic_delay: Some(Duration::from_millis(2)),
        ..FleetConfig::default()
    };
    let (fleet, net, names) = fleet_of(1, config);
    let model = names[0].clone();
    let specs = [
        closed(&model, SloClass::Standard, 120, 500),
        closed(&model, SloClass::Interactive, 120, 500),
    ];
    let client = fleet.client();
    let payload = inputs(5);
    let load = std::thread::scope(|scope| {
        let load = scope.spawn(|| run_fleet_load(&client, &payload, &specs, 5));
        // Stage mid-load, let the split serve for a while, then promote.
        std::thread::sleep(Duration::from_millis(60));
        let mut rng = Rng::new(99);
        fleet
            .stage_candidate(
                &model,
                net.init_params(&mut rng),
                CandidateMode::Canary { percent: 40 },
            )
            .expect("candidate fits the spec");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(fleet.promote(&model, 2).expect("model exists"), Some(2));
        load.join().expect("load thread panicked")
    });
    let report = fleet.shutdown();

    for s in &load.streams {
        assert_eq!(s.ok, s.submitted, "no request lost across the promotion");
        assert!(s.versions_monotonic, "versions went backwards: {s:?}");
    }
    let m = report.model(&model).expect("registered");
    assert_eq!(m.completed, 240);
    assert_eq!(m.shed + m.rejected + m.no_model, 0);
    assert_eq!(m.max_version, 2, "the promotion was observed");
}

/// (d): the autoscaler grows the pool under load and shrinks it again
/// under headroom, and both movements are visible in the report's
/// decision history and in the `fleet.*` metrics.
#[test]
fn autoscaler_scales_both_ways_visibly() {
    let telemetry = Telemetry::disabled();
    let config = FleetConfig {
        batch: BatchConfig {
            max_batch: 4,
            max_delay: Duration::ZERO,
            queue_depth: 256,
        },
        work_stealing: false,
        synthetic_delay: Some(Duration::from_millis(4)),
        autoscaler: Some(AutoscalerConfig {
            slo_p99: Duration::from_millis(10),
            queue_high_water: 4,
            shrink_margin: 0.9,
            min_workers: 1,
            max_workers: 3,
            cooldown_ticks: 0,
            interval: None,
        }),
        telemetry: Some(telemetry.clone()),
        ..FleetConfig::default()
    };
    let (fleet, _, names) = fleet_of(1, config);
    let model = names[0].clone();
    let client = fleet.client();

    // Overloaded interval: the flood blows the SLO and the queue.
    let flood = [StreamSpec {
        model: model.clone(),
        class: SloClass::Batch,
        arrival: Arrival::Open { rps: 2000.0 },
        requests: 64,
        deadline: Duration::from_millis(50),
    }];
    run_fleet_load(&client, &inputs(11), &flood, 11);
    let up = fleet.tick();
    assert_eq!(up.len(), 1, "overload grows the pool: {up:?}");
    assert!(up[0].to > up[0].from);

    // Calm-but-sampled interval: cheap closed traffic, empty queue.
    let calm = [closed(&model, SloClass::Standard, 8, 300)];
    run_fleet_load(&client, &inputs(11), &calm, 12);
    let down = fleet.tick();
    assert_eq!(down.len(), 1, "headroom shrinks the pool: {down:?}");
    assert!(down[0].to < down[0].from);

    let report = fleet.shutdown();
    assert!(report.scaled_both_ways());
    let m = report.model(&model).expect("registered");
    assert!(m.max_workers > 1 && m.final_workers == 1);

    // The same movements, through the metrics registry.
    let metrics = &telemetry.metrics;
    assert!(metrics.counter("fleet.scale_up").get() >= 1);
    assert!(metrics.counter("fleet.scale_down").get() >= 1);
    assert!(metrics.gauge(format!("fleet.{model}.workers")).max() >= 2);
    assert!(metrics.counter(format!("fleet.{model}.completed")).get() >= 72);
}

/// The train-and-serve path of the fleet: a live trainer publishes into
/// one model mid-load while a static sibling serves undisturbed; closed
/// clients must see strictly rising versions and lose nothing.
#[test]
fn a_live_trainer_feeds_one_fleet_model_mid_load() {
    let net = Arc::new(mlp(DIM, &[16], 4));
    let (train_set, test_set) = gaussian_mixture(4, DIM, 1280, 0.25, 21)
        .split_at(1024)
        .expect("split in range");
    let fleet = Fleet::builder(FleetConfig::default())
        .model("live", Arc::clone(&net))
        .model("static", Arc::clone(&net))
        .start();
    let mut rng = Rng::new(21);
    fleet
        .registry("static")
        .expect("registered")
        .publish(net.init_params(&mut rng), 1)
        .expect("fresh registry accepts v1");
    let mut algo = Sma::new(net.init_params(&mut rng), 2, SmaConfig::default());
    let config = FleetTrainConfig {
        live_model: "live".into(),
        trainer: TrainerConfig::new(16, 2).with_seed(21),
        publish_every: 10,
        load: vec![
            closed("live", SloClass::Standard, 25, 500),
            closed("static", SloClass::Standard, 25, 500),
        ],
        seed: 21,
        precision: Precision::F32,
    };
    let report = train_into_fleet(fleet, &net, &train_set, &test_set, &mut algo, &config);

    assert!(all_answered(&report.load), "{}", report.load.summary());
    assert!(report.load.versions_monotonic());
    let live = report.fleet.model("live").expect("registered");
    assert!(
        live.max_version > 1,
        "the trainer published mid-load: {live:?}"
    );
    let st = report.fleet.model("static").expect("registered");
    assert_eq!(
        (st.min_version, st.max_version),
        (1, 1),
        "the static sibling is undisturbed"
    );
    assert!(report.curve.iterations > 0);
}

/// An int8 candidate staged at 100% canary answers every request with
/// the exact-integer forward (bit-identical to a direct
/// `predict_quant`), and promotion turns it into a quantized primary
/// that keeps serving the same classes with its precision label.
#[test]
fn quantized_canary_serves_exactly_and_survives_promotion() {
    let (fleet, net, names) = fleet_of(1, FleetConfig::default());
    let model = names[0].clone();
    let params = fleet
        .registry(&model)
        .expect("registered")
        .current()
        .expect("published")
        .params
        .clone();
    let quant = Arc::new(net.quantize(&params, Precision::Int8));
    fleet
        .stage_quantized_candidate(
            &model,
            Arc::clone(&quant),
            Some(-0.005),
            CandidateMode::Canary { percent: 100 },
        )
        .expect("candidate fits the spec");

    let client = fleet.client();
    let mut scratch = net.scratch();
    for input in inputs(11) {
        let served = submit(&client, &model, input.clone())
            .expect("admitted")
            .wait()
            .expect("answered");
        assert!(served.canary, "100% canary routes every request");
        let direct = net.predict_quant(
            &quant,
            &Tensor::from_vec(Shape::new(&[1, DIM]), input),
            &mut scratch,
        );
        assert_eq!(served.class, direct[0], "canary serves the int8 forward");
    }

    assert_eq!(fleet.promote(&model, 5).expect("model exists"), Some(2));
    let current = fleet
        .registry(&model)
        .expect("registered")
        .current()
        .expect("published");
    assert_eq!(current.precision, Precision::Int8);
    assert_eq!(current.accuracy_delta, Some(-0.005));
    assert!(current.quant.is_some());
    for input in inputs(12) {
        let served = submit(&client, &model, input.clone())
            .expect("admitted")
            .wait()
            .expect("answered");
        assert!(!served.canary, "promoted model is the primary now");
        assert_eq!(served.version, 2);
        let direct = net.predict_quant(
            &quant,
            &Tensor::from_vec(Shape::new(&[1, DIM]), input),
            &mut scratch,
        );
        assert_eq!(served.class, direct[0], "primary serves the int8 forward");
    }
    let report = fleet.shutdown();
    let m = report.model(&model).expect("registered");
    assert_eq!(m.canary_served, 32, "exactly the pre-promotion requests");
}

/// With `precision: Int8`, the final consensus model is quantized, its
/// accuracy delta measured on the test set, and the result published
/// before the last load round — which therefore serves only at int8.
#[test]
fn train_into_fleet_serves_the_final_round_at_int8() {
    let net = Arc::new(mlp(DIM, &[16], 4));
    let (train_set, test_set) = gaussian_mixture(4, DIM, 1280, 0.25, 23)
        .split_at(1024)
        .expect("split in range");
    let fleet = Fleet::builder(FleetConfig::default())
        .model("live", Arc::clone(&net))
        .start();
    let registry = fleet.registry("live").expect("registered");
    let mut algo = Sma::new(net.init_params(&mut Rng::new(23)), 2, SmaConfig::default());
    let config = FleetTrainConfig {
        live_model: "live".into(),
        trainer: TrainerConfig::new(16, 1).with_seed(23),
        publish_every: 10,
        load: vec![closed("live", SloClass::Standard, 25, 500)],
        seed: 23,
        precision: Precision::Int8,
    };
    let report = train_into_fleet(fleet, &net, &train_set, &test_set, &mut algo, &config);

    assert!(all_answered(&report.load), "{}", report.load.summary());
    assert!(report.load.versions_monotonic());
    let served = registry.current().expect("published");
    assert_eq!(served.precision, Precision::Int8);
    assert!(served.quant.is_some(), "the final snapshot is quantized");
    let delta = served.accuracy_delta.expect("the delta was measured");
    assert!((-1.0..=1.0).contains(&delta), "delta {delta}");
    let final_round = report.load.streams.last().expect("at least one round");
    assert_eq!(
        (final_round.min_version, final_round.max_version),
        (served.version, served.version),
        "the final round saw only the int8 snapshot"
    );
}

/// Coalescing eight concurrent callers into one forward pass must beat
/// dispatching them one at a time. A fixed synthetic per-batch cost makes
/// the comparison deterministic: with one worker and a 2 ms charge per
/// batch, per-request dispatch pays the charge 320 times while an
/// 8-deep micro-batch pays it roughly 40 times.
#[test]
fn micro_batching_beats_per_request_dispatch() {
    let run = |batch: BatchConfig| {
        let config = FleetConfig {
            batch,
            synthetic_delay: Some(Duration::from_millis(2)),
            ..FleetConfig::default()
        };
        let (fleet, _, names) = fleet_of(1, config);
        let specs = vec![closed(&names[0], SloClass::Standard, 40, 10_000); 8];
        let load = run_fleet_load(&fleet.client(), &inputs(9), &specs, 9);
        let report = fleet.shutdown();
        assert!(all_answered(&load), "{}", load.summary());
        assert_eq!(
            load.total_ok(),
            320,
            "the queue is deep enough for 8 callers"
        );
        let m = report.model(&names[0]).expect("registered");
        let mean_batch = m.completed as f64 / m.batches as f64;
        (mean_batch, load.total_ok() as f64 / load.wall.as_secs_f64())
    };
    let (unbatched_mean, unbatched) = run(BatchConfig::unbatched());
    let (batched_mean, batched) = run(BatchConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(1),
        ..BatchConfig::default()
    });
    assert!((unbatched_mean - 1.0).abs() < 1e-9);
    assert!(
        batched_mean > 2.0,
        "coalescing happened: mean batch {batched_mean:.2}"
    );
    assert!(
        batched > unbatched,
        "micro-batching must beat batch=1: {batched:.0} vs {unbatched:.0} req/s"
    );
}

/// Publishing fresh snapshots in the middle of a load run must be
/// invisible to clients except as rising versions: nothing drops,
/// nothing fails, and no closed-loop caller ever sees a version regress.
#[test]
fn hot_swap_mid_load_loses_nothing() {
    let config = FleetConfig {
        initial_workers: 2,
        synthetic_delay: Some(Duration::from_micros(500)),
        ..FleetConfig::default()
    };
    let (fleet, net, names) = fleet_of(1, config);
    let model = &names[0];
    let registry = fleet.registry(model).expect("registered");
    let fresh = net.init_params(&mut Rng::new(99));
    let specs = vec![closed(model, SloClass::Standard, 100, 10_000); 4];
    let client = fleet.client();
    let payload = inputs(3);
    let load = std::thread::scope(|scope| {
        scope.spawn(|| {
            for publication in 0..5 {
                std::thread::sleep(Duration::from_millis(10));
                registry
                    .publish(fresh.clone(), 10 * (publication + 1))
                    .expect("same shape republished");
            }
        });
        run_fleet_load(&client, &payload, &specs, 3)
    });

    assert_eq!(
        load.total_ok(),
        400,
        "zero dropped requests across hot swaps"
    );
    assert!(all_answered(&load), "{}", load.summary());
    assert!(load.versions_monotonic(), "versions regressed mid-load");
    let min = load.streams.iter().map(|s| s.min_version).min();
    let max = load.streams.iter().map(|s| s.max_version).max();
    assert!(
        max > min,
        "the load must actually straddle a swap: saw versions {min:?}..{max:?}"
    );

    // After every publication, a fresh request is answered by the newest
    // snapshot.
    let latest = call(&client, model, payload[0].clone()).expect("serving still up");
    assert_eq!(registry.version(), 6);
    assert_eq!(latest.version, 6);
    let report = fleet.shutdown();
    let m = report.model(model).expect("registered");
    assert_eq!(m.completed, 401);
    assert_eq!(m.shed + m.rejected, 0);
    assert_eq!(m.max_version, 6);
}

/// Every served class equals a direct eval forward of the published
/// parameters, answered by the published version.
#[test]
fn predictions_match_a_direct_eval_forward() {
    let (fleet, net, names) = fleet_of(1, FleetConfig::default());
    let model = &names[0];
    let params = fleet
        .registry(model)
        .expect("registered")
        .current()
        .expect("published")
        .params
        .clone();
    let client = fleet.client();
    let mut scratch = net.scratch();
    for input in inputs(2) {
        let served = call(&client, model, input.clone()).expect("served");
        let direct = net.predict(
            &params,
            &Tensor::from_vec(Shape::new(&[1, DIM]), input),
            &mut scratch,
        );
        assert_eq!(served.class, direct[0], "fleet matches direct eval");
        assert_eq!(served.version, 1);
    }
    let report = fleet.shutdown();
    let m = report.model(model).expect("registered");
    assert_eq!(m.completed, 32);
    assert_eq!((m.min_version, m.max_version), (1, 1));
    assert!(m.batches >= 1 && m.batches <= 32);
    assert!(m.latency.p99 > Duration::ZERO);
}

/// After a hot swap to weights that classify differently, every served
/// class equals `predict` on the new weights: no worker keeps serving
/// the old snapshot's packed dense weights. For f32 and bf16 snapshots.
#[test]
fn a_hot_swap_serves_the_new_weights_not_a_stale_packing() {
    let payload = inputs(5);
    let batch = Tensor::from_vec(Shape::new(&[payload.len(), DIM]), payload.concat());
    for precision in [Precision::F32, Precision::Bf16] {
        let net = Arc::new(mlp(DIM, &[16], 4));
        let config = FleetConfig {
            initial_workers: 2,
            ..FleetConfig::default()
        };
        let fleet = Fleet::builder(config).model("m", Arc::clone(&net)).start();
        let registry = fleet.registry("m").expect("registered");
        let client = fleet.client();
        let mut scratch = net.scratch();
        let mut expected = Vec::new();
        for (version, seed) in [(1u64, 21u64), (2, 22)] {
            let model = Arc::new(net.quantize(&net.init_params(&mut Rng::new(seed)), precision));
            let published = match precision {
                Precision::F32 => registry.publish(model.params().to_vec(), version),
                _ => registry.publish_quantized(Arc::clone(&model), version, None),
            };
            assert_eq!(published, Ok(version));
            let want = net.predict(model.params(), &batch, &mut scratch);
            for (input, &class) in payload.iter().zip(&want) {
                let served = call(&client, "m", input.clone()).expect("served");
                assert_eq!(served.version, version);
                assert_eq!(served.class, class, "{} v{version}", precision.name());
            }
            expected.push(want);
        }
        assert_ne!(
            expected[0], expected[1],
            "the versions must classify differently for a stale packing to show"
        );
        fleet.shutdown();
    }
}

/// Submits `n` identical requests to a one-model fleet with the given
/// batching, waits for every answer, and returns the number of batches
/// the model executed and how long the answers took.
fn serve_burst(n: usize, max_batch: usize, max_delay: Duration) -> (u64, Duration) {
    let config = FleetConfig {
        batch: BatchConfig {
            max_batch,
            max_delay,
            queue_depth: 8,
        },
        ..FleetConfig::default()
    };
    let (fleet, _, names) = fleet_of(1, config);
    let started = Instant::now();
    for t in submit_n(&fleet.client(), &names[0], n) {
        t.wait().expect("served");
    }
    let waited = started.elapsed();
    let report = fleet.shutdown();
    (report.model(&names[0]).expect("registered").batches, waited)
}

/// Batch assembly flushes as soon as `max_batch` requests are in hand,
/// without waiting out `max_delay`.
#[test]
fn flushes_on_max_batch_without_waiting_out_the_delay() {
    let (batches, waited) = serve_burst(3, 3, Duration::from_secs(60));
    assert_eq!(batches, 1, "three requests fill one batch of three");
    assert!(
        waited < Duration::from_secs(5),
        "a full batch must not wait for the deadline"
    );
}

/// A batch that cannot be filled flushes with whatever arrived once its
/// oldest request has waited `max_delay`, and not before.
#[test]
fn flushes_a_partial_batch_at_the_deadline() {
    let (batches, waited) = serve_burst(1, 16, Duration::from_millis(20));
    assert_eq!(batches, 1, "deadline flush with the one request");
    assert!(
        waited >= Duration::from_millis(20),
        "a batch it cannot fill flushes at the deadline, not before"
    );
    assert!(waited < Duration::from_secs(5), "the deadline does flush");
}

/// Once shutdown has begun, a worker assembling a batch takes only what
/// is already queued instead of waiting out `max_delay` for more.
#[test]
fn stopping_takes_the_buffer_without_waiting() {
    let config = FleetConfig {
        batch: BatchConfig {
            max_batch: 2,
            max_delay: Duration::from_secs(20),
            queue_depth: 8,
        },
        // Each forward pass outlasts the submit-then-shutdown below, so
        // the partial last batch is assembled after shutdown began.
        synthetic_delay: Some(Duration::from_millis(300)),
        ..FleetConfig::default()
    };
    let (fleet, _, names) = fleet_of(1, config);
    let tickets = submit_n(&fleet.client(), &names[0], 5);
    let started = Instant::now();
    let report = fleet.shutdown();
    let drained_in = started.elapsed();
    for t in tickets {
        t.wait().expect("drained, not dropped");
    }
    let m = report.model(&names[0]).expect("registered");
    assert_eq!(m.completed, 5);
    assert_eq!(m.batches, 3, "two full batches, then the buffered one");
    assert!(
        drained_in < Duration::from_secs(10),
        "drain is prompt: {drained_in:?} against a 20 s batching delay"
    );
}

/// An open stream paced well under capacity gets every request answered,
/// and the pacing itself takes the scheduled time.
#[test]
fn open_loop_completes_every_request_at_a_feasible_rate() {
    let (fleet, _, names) = fleet_of(1, FleetConfig::default());
    let spec = [StreamSpec {
        model: names[0].clone(),
        class: SloClass::Standard,
        arrival: Arrival::Open { rps: 2000.0 },
        requests: 60,
        deadline: Duration::from_secs(5),
    }];
    let load = run_fleet_load(&fleet.client(), &inputs(9), &spec, 9);
    fleet.shutdown();
    assert!(all_answered(&load), "{}", load.summary());
    assert_eq!(load.total_ok(), 60);
    // Pacing 60 arrivals at 2000/s takes at least ~30 ms.
    assert!(load.wall >= Duration::from_millis(25));
}

/// A caller's bounded wait gives up with a typed error while the worker
/// is busy; the abandoned request is still served.
#[test]
fn wait_deadline_times_out_with_a_typed_error() {
    let config = FleetConfig {
        // A long per-batch charge so the second request is still
        // unanswered when its caller gives up.
        synthetic_delay: Some(Duration::from_millis(200)),
        ..FleetConfig::default()
    };
    let (fleet, _, names) = fleet_of(1, config);
    let model = &names[0];
    let [first, second]: [FleetTicket; 2] = submit_n(&fleet.client(), model, 2)
        .try_into()
        .expect("two tickets");
    assert_eq!(
        second.wait_deadline(Duration::from_millis(1)),
        Err(FleetError::Deadline),
        "a bounded wait must not hang on a busy worker"
    );
    first
        .wait_deadline(Duration::from_secs(30))
        .expect("served within the bound");
    let report = fleet.shutdown();
    assert_eq!(
        report.model(model).expect("registered").completed,
        2,
        "abandoned tickets still complete"
    );
}

/// Shutdown answers every admitted request with a prediction before the
/// workers stop, records the backlog in the queue-depth high-water mark,
/// and refuses anything submitted afterwards.
#[test]
fn shutdown_drains_admitted_requests_before_stopping() {
    let config = FleetConfig {
        batch: BatchConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            queue_depth: 64,
        },
        synthetic_delay: Some(Duration::from_millis(5)),
        ..FleetConfig::default()
    };
    let (fleet, _, names) = fleet_of(1, config);
    let model = &names[0];
    let client = fleet.client();
    let tickets = submit_n(&client, model, 8);
    let report = fleet.shutdown();
    for t in tickets {
        t.wait().expect("drained, not dropped");
    }
    let m = report.model(model).expect("registered");
    assert_eq!(m.completed, 8);
    assert!(m.max_queue_depth >= 1, "the backlog reached the gauge");
    assert_eq!(
        submit(&client, model, vec![0.2; DIM]).err(),
        Some(FleetError::ShuttingDown)
    );
}

/// A telemetry sink collects one batch-fetch and one infer span per
/// executed batch, and the per-model admission metrics.
#[test]
fn telemetry_sink_collects_spans_and_admission_metrics() {
    let telemetry = Telemetry::wall();
    let config = FleetConfig {
        telemetry: Some(telemetry.clone()),
        ..FleetConfig::default()
    };
    let (fleet, _, names) = fleet_of(1, config);
    let model = &names[0];
    let client = fleet.client();
    for input in inputs(4).into_iter().take(6) {
        call(&client, model, input).expect("served");
    }
    let report = fleet.shutdown();
    let batches = report.model(model).expect("registered").batches;
    let timeline = telemetry.recorder.timeline();
    assert_eq!(timeline.count(SpanKind::Infer) as u64, batches);
    assert_eq!(timeline.count(SpanKind::BatchFetch) as u64, batches);
    assert!(timeline.phase_breakdown().total_ns(SpanKind::Infer) > 0);
    let snap = telemetry.metrics.snapshot();
    assert_eq!(snap.counters[&format!("fleet.{model}.completed")], 6);
    assert_eq!(snap.counters[&format!("fleet.{model}.rejected")], 0);
    assert!(snap
        .gauges
        .contains_key(&format!("fleet.{model}.queue_depth")));
}

/// Four closed clients against a two-worker pool get every request
/// answered by the one published version.
#[test]
fn closed_loop_completes_every_request() {
    let config = FleetConfig {
        initial_workers: 2,
        ..FleetConfig::default()
    };
    let (fleet, _, names) = fleet_of(1, config);
    let specs = vec![closed(&names[0], SloClass::Standard, 25, 5_000); 4];
    let load = run_fleet_load(&fleet.client(), &inputs(9), &specs, 9);
    let report = fleet.shutdown();
    let submitted: u64 = load.streams.iter().map(|s| s.submitted).sum();
    let refused: u64 = load.streams.iter().map(|s| s.rejected + s.failed).sum();
    assert_eq!(submitted, 100);
    assert_eq!(load.total_ok(), 100);
    assert_eq!(refused, 0);
    assert!(load.versions_monotonic());
    for s in &load.streams {
        assert_eq!((s.min_version, s.max_version), (1, 1));
    }
    assert!(load.wall > Duration::ZERO);
    assert_eq!(report.model(&names[0]).expect("registered").completed, 100);
}

/// A quantized snapshot published straight into the registry is served
/// through the exact-integer forward.
#[test]
fn a_quantized_snapshot_serves_through_the_quant_path() {
    let net = Arc::new(mlp(DIM, &[16], 4));
    let fleet = Fleet::builder(FleetConfig::default())
        .model("int8", Arc::clone(&net))
        .start();
    let registry = fleet.registry("int8").expect("registered");
    let quant = Arc::new(net.quantize(&net.init_params(&mut Rng::new(1)), Precision::Int8));
    registry
        .publish_quantized(Arc::clone(&quant), 11, Some(-0.01))
        .expect("the quantized model fits the spec");
    let client = fleet.client();
    let mut scratch = net.scratch();
    for input in inputs(9).into_iter().take(12) {
        let served = call(&client, "int8", input.clone()).expect("served");
        let direct = net.predict_quant(
            &quant,
            &Tensor::from_vec(Shape::new(&[1, DIM]), input),
            &mut scratch,
        );
        assert_eq!(served.class, direct[0], "fleet matches the int8 forward");
        assert_eq!(served.version, 1);
    }
    let report = fleet.shutdown();
    assert_eq!(report.model("int8").expect("registered").completed, 12);
    let current = registry.current().expect("published");
    assert_eq!(current.precision, Precision::Int8);
    assert_eq!(current.accuracy_delta, Some(-0.01));
}

/// A request for a model with nothing published yet is answered
/// `NoModel`, and no version is ever recorded as served.
#[test]
fn requests_before_the_first_publication_answer_no_model() {
    let net = Arc::new(mlp(DIM, &[16], 4));
    let fleet = Fleet::builder(FleetConfig::default())
        .model("empty", net)
        .start();
    assert_eq!(
        call(&fleet.client(), "empty", vec![0.0; DIM]),
        Err(FleetError::NoModel)
    );
    let report = fleet.shutdown();
    let m = report.model("empty").expect("registered");
    assert_eq!(m.no_model, 1);
    assert_eq!(m.completed, 0);
    assert_eq!(m.min_version, 0, "no version ever served");
}

/// An input of the wrong length is refused with a typed error before it
/// reaches the queue.
#[test]
fn mis_shaped_inputs_are_refused_at_admission() {
    let (fleet, _, names) = fleet_of(1, FleetConfig::default());
    assert_eq!(
        submit(&fleet.client(), &names[0], vec![0.0; DIM + 1]).err(),
        Some(FleetError::BadRequest {
            expected: DIM,
            got: DIM + 1
        })
    );
    let report = fleet.shutdown();
    assert_eq!(report.model(&names[0]).expect("registered").completed, 0);
}

/// A burst into a depth-2 queue in front of a slow worker is partly
/// refused `Overloaded`; everything admitted is still answered.
#[test]
fn a_full_queue_rejects_with_overloaded() {
    let config = FleetConfig {
        batch: BatchConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
            queue_depth: 2,
        },
        // Slow the worker down so the burst genuinely overflows the
        // bounded queue.
        synthetic_delay: Some(Duration::from_millis(50)),
        ..FleetConfig::default()
    };
    let (fleet, _, names) = fleet_of(1, config);
    let client = fleet.client();
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..10 {
        match submit(&client, &names[0], vec![0.1; DIM]) {
            Ok(t) => tickets.push(t),
            Err(FleetError::Overloaded) => rejected += 1,
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
    assert!(rejected > 0, "the burst must overflow a depth-2 queue");
    let admitted = tickets.len() as u64;
    for t in tickets {
        t.wait().expect("admitted requests complete");
    }
    let report = fleet.shutdown();
    let m = report.model(&names[0]).expect("registered");
    assert_eq!(m.completed, admitted);
    assert_eq!(m.rejected, rejected);
    assert!(m.max_queue_depth >= 1);
}

/// Six one-request batches behind a slow worker: each flush re-samples
/// the queue-depth gauge, so its high-water mark sees the backlog.
#[test]
fn queue_depth_high_water_is_recorded_at_flush_not_only_submit() {
    let telemetry = Telemetry::wall();
    let config = FleetConfig {
        batch: BatchConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
            queue_depth: 64,
        },
        synthetic_delay: Some(Duration::from_millis(5)),
        telemetry: Some(telemetry.clone()),
        ..FleetConfig::default()
    };
    let (fleet, _, names) = fleet_of(1, config);
    let model = &names[0];
    for t in submit_n(&fleet.client(), model, 6) {
        t.wait().expect("served");
    }
    let report = fleet.shutdown();
    let m = report.model(model).expect("registered");
    assert_eq!(m.completed, 6);
    assert_eq!(m.batches, 6);
    assert!(
        telemetry
            .metrics
            .gauge(format!("fleet.{model}.queue_depth"))
            .max()
            >= 1,
        "flush-time sampling must observe the backlog"
    );
    assert!(m.max_queue_depth >= 1);
}

/// The combined run: a background trainer keeps publishing the central
/// average model `z` while load runs in the foreground. Readers observe
/// monotonically increasing versions and zero dropped requests.
#[test]
fn train_into_fleet_publishes_fresh_models_under_load() {
    // Big enough that training genuinely overlaps the load: the first
    // load round must complete requests while early versions are still
    // current, or the mid-load straddle below would be vacuous.
    let net = Arc::new(mlp(64, &[256, 256], 10));
    let (train_set, test_set) = gaussian_mixture(10, 64, 2176, 0.3, 5)
        .split_at(2048)
        .expect("split in range");
    let mut algo = Sma::new(net.init_params(&mut Rng::new(5)), 4, SmaConfig::default());
    let fleet = Fleet::builder(FleetConfig {
        initial_workers: 2,
        ..FleetConfig::default()
    })
    .model("live", Arc::clone(&net))
    .start();
    let config = FleetTrainConfig {
        live_model: "live".into(),
        trainer: TrainerConfig::new(16, 4).with_seed(5),
        publish_every: 2,
        load: vec![closed("live", SloClass::Standard, 25, 10_000); 2],
        seed: 13,
        precision: Precision::F32,
    };
    let report = train_into_fleet(fleet, &net, &train_set, &test_set, &mut algo, &config);

    let load = &report.load;
    assert!(report.curve.iterations > 0, "the trainer ran");
    assert!(all_answered(load), "{}", load.summary());
    let refused: u64 = load.streams.iter().map(|s| s.rejected + s.shed).sum();
    assert_eq!(refused, 0, "zero rejected requests");
    assert!(load.total_ok() >= 50, "at least one full round completed");
    assert!(load.versions_monotonic(), "a client saw a version regress");
    let versions = load.streams.iter().map(|s| (s.min_version, s.max_version));
    let min = versions.clone().map(|v| v.0).min().unwrap_or(0);
    let max = versions.map(|v| v.1).max().unwrap_or(0);
    assert!(
        max > min,
        "training published fresh snapshots mid-load: versions {min}..{max}"
    );
    let m = report.fleet.model("live").expect("registered");
    assert_eq!(m.rejected, 0);
    assert_eq!(m.completed, load.total_ok());
    assert!(m.max_version >= max);
}
