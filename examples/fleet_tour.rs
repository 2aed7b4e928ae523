//! Tour of the serving fleet: three models behind one admission edge,
//! mixed-priority load with SLO-ordered shedding, a canary promotion,
//! a snapshot round trip through the checkpoint store, and the
//! Algorithm-2-style autoscaler.
//!
//! ```sh
//! cargo run --release -p crossbow --example fleet_tour
//! ```
//!
//! The fleet is the serving stack; `crossbow serve` runs it with one
//! model and the autoscaler off. Each named model gets its own
//! SLO-ordered queue and elastic worker pool, idle pools steal batches
//! from spec-compatible peers, an open-loop flood forces the admission
//! edge to shed its lowest class (never silently), a canary takes a
//! deterministic fraction of one model's traffic before being promoted,
//! and the autoscaler probes tail latency and queue depth to move pool
//! sizes both ways.

use crossbow::fleet::{
    run_fleet_load, Arrival, AutoscalerConfig, CandidateMode, Fleet, FleetConfig, SloClass,
    StreamSpec,
};
use crossbow::nn::zoo::mlp;
use crossbow::serve::{export_snapshot, load_into, BatchConfig, ModelSpec, SnapshotRegistry};
use crossbow::tensor::Rng;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    println!("CROSSBOW fleet tour");
    println!("===================");

    // -- 1. Three named models behind one admission edge -----------------
    // Same architecture (so work stealing applies), independent weights.
    let net = Arc::new(mlp(6, &[16], 4));
    let names = ["ranker", "spam", "ranker-eu"];
    let config = FleetConfig {
        batch: BatchConfig {
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            queue_depth: 32,
        },
        initial_workers: 1,
        work_stealing: true,
        // A fixed synthetic service time stands in for a real model's
        // forward pass, so overload and scaling are observable.
        synthetic_delay: Some(Duration::from_millis(5)),
        autoscaler: Some(AutoscalerConfig {
            slo_p99: Duration::from_millis(25),
            queue_high_water: 8,
            shrink_margin: 0.5,
            cooldown_ticks: 0,
            ..AutoscalerConfig::default()
        }),
        telemetry: None,
    };
    let mut builder = Fleet::builder(config);
    for name in names {
        builder = builder.model(name, Arc::clone(&net));
    }
    let fleet = builder.start();
    let mut rng = Rng::new(7);
    for name in names {
        let registry = fleet.registry(name).expect("registered");
        registry
            .publish(net.init_params(&mut rng), 1)
            .expect("fresh registry accepts v1");
        println!("{name}: published v1");
    }
    let inputs: Vec<Vec<f32>> = (0..32)
        .map(|_| (0..6).map(|_| rng.uniform(-1.0, 1.0)).collect())
        .collect();
    let client = fleet.client();

    // -- 2. Mixed priorities under overload ------------------------------
    // An open-loop Batch flood past each pool's capacity, while closed
    // Interactive and Standard streams keep submitting. The SLO queue
    // serves (class, deadline) order and sheds only the lowest class —
    // every shed request is *answered* with a typed error.
    let mut specs = Vec::new();
    for name in names {
        specs.push(StreamSpec {
            model: name.into(),
            class: SloClass::Batch,
            arrival: Arrival::Open { rps: 1200.0 },
            requests: 120,
            deadline: Duration::from_millis(50),
        });
        for (class, deadline_ms) in [(SloClass::Interactive, 100), (SloClass::Standard, 200)] {
            specs.push(StreamSpec {
                model: name.into(),
                class,
                arrival: Arrival::Closed,
                requests: 30,
                deadline: Duration::from_millis(deadline_ms),
            });
        }
    }
    let overload = run_fleet_load(&client, &inputs, &specs, 7);
    let grew = fleet.tick();
    println!("\noverload round:");
    print!("{}", overload.summary());
    for class in [SloClass::Interactive, SloClass::Standard, SloClass::Batch] {
        println!(
            "  {class}: {} shed or rejected",
            overload.shed_for_class(class)
        );
    }
    assert_eq!(overload.shed_for_class(SloClass::Interactive), 0);
    assert_eq!(overload.shed_for_class(SloClass::Standard), 0);
    assert!(
        overload.shed_for_class(SloClass::Batch) > 0,
        "the flood must shed some Batch work"
    );
    for d in &grew {
        println!("  autoscaler: {d}");
    }

    // -- 3. A canary promotion -------------------------------------------
    // Stage fresh parameters on `ranker` as a 30% canary: a
    // deterministic-by-request-id fraction of its traffic is answered by
    // the candidate (flagged `canary`, still the primary's version).
    // Promotion publishes the candidate as v2 — no request is lost, and
    // closed clients observe versions only ever rising.
    fleet
        .stage_candidate(
            "ranker",
            net.init_params(&mut rng),
            CandidateMode::Canary { percent: 30 },
        )
        .expect("candidate fits the spec");
    let specs: Vec<StreamSpec> = names
        .iter()
        .map(|name| StreamSpec {
            model: (*name).into(),
            class: SloClass::Standard,
            arrival: Arrival::Closed,
            requests: 60,
            deadline: Duration::from_millis(100),
        })
        .collect();
    let canary_round = run_fleet_load(&client, &inputs, &specs, 8);
    let v2 = fleet.promote("ranker", 2).expect("model exists");
    fleet.tick();
    let canary_hits: u64 = canary_round.streams.iter().map(|s| s.canary).sum();
    println!("\ncanary round:");
    print!("{}", canary_round.summary());
    let v2 = v2.expect("a candidate was staged");
    println!("  {canary_hits} replies served by the canary; promoted to v{v2}");
    assert!(canary_round.versions_monotonic());

    // -- 4. Snapshots round-trip through the checkpoint store ------------
    // The promoted model leaves the fleet as a durable checkpoint-format
    // export and comes back as the first version of a fresh registry.
    let snapshot = fleet
        .registry("ranker")
        .expect("registered")
        .current()
        .expect("published");
    let dir = std::env::temp_dir().join(format!("crossbow-fleet-tour-{}", std::process::id()));
    export_snapshot(&dir, &snapshot).expect("export");
    let restored = SnapshotRegistry::new(ModelSpec::of(&net));
    let version = load_into(&restored, &dir).expect("import").expect("found");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        restored.current().expect("imported").params,
        snapshot.params
    );
    println!(
        "\ncheckpoint trip: exported ranker v{} -> fresh registry serves v{version}",
        snapshot.version
    );

    // -- 5. Calm traffic shrinks the pools back --------------------------
    let specs: Vec<StreamSpec> = names
        .iter()
        .map(|name| StreamSpec {
            model: (*name).into(),
            class: SloClass::Standard,
            arrival: Arrival::Closed,
            requests: 15,
            deadline: Duration::from_millis(200),
        })
        .collect();
    let calm = run_fleet_load(&client, &inputs, &specs, 9);
    fleet.tick();
    println!(
        "\ncalm round: {} ok, all versions >= v2 on ranker",
        calm.total_ok()
    );

    // -- 6. Drain and report ---------------------------------------------
    let report = fleet.shutdown();
    println!("\nfinal report:");
    print!("{}", report.summary());
    assert!(report.scaled_both_ways(), "pools must grow and shrink");
    assert_eq!(report.model("ranker").map(|m| m.max_version), Some(2));
    println!("\nfleet tour complete.");
}
