//! Train-into-fleet: a live trainer publishing into one model of a
//! serving fleet, mid-load.
//!
//! The paper's average model `z` is the deployable artifact; here it is
//! deployed *while still improving*. One named model's registry is fed
//! by a background trainer's [`PublishHook`](crossbow_sync::PublishHook)
//! while load runs against the whole fleet. Hot swaps stay invisible
//! except as rising snapshot versions; the other models serve their
//! static snapshots undisturbed. A one-model fleet with the autoscaler
//! off is the plain train-and-serve run behind `crossbow serve`.

use crate::fleet::Fleet;
use crate::loadgen::{run_fleet_load, FleetLoadReport, StreamSpec};
use crate::report::FleetReport;
use crossbow_data::Dataset;
use crossbow_nn::{accuracy_delta, Network};
use crossbow_serve::SnapshotRegistry;
use crossbow_sync::algorithm::SyncAlgorithm;
use crossbow_sync::{train, TrainerConfig, TrainingCurve};
use crossbow_tensor::{Precision, Shape, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How many test samples the quantization accuracy delta is measured on.
const DELTA_EVAL_SAMPLES: usize = 256;

/// A train-into-fleet run's parameters.
#[derive(Clone, Debug)]
pub struct FleetTrainConfig {
    /// The fleet model the trainer publishes into.
    pub live_model: String,
    /// The background training run.
    pub trainer: TrainerConfig,
    /// Publish the consensus model every this many applied iterations.
    pub publish_every: u64,
    /// The load streams to run in rounds until training finishes.
    pub load: Vec<StreamSpec>,
    /// Seed for request selection (varied per round).
    pub seed: u64,
    /// Serving precision of the *final* model. Training publications stay
    /// f32 (the model is still moving; quantizing every few iterations
    /// buys nothing); once training finishes, the last consensus model is
    /// quantized, its accuracy delta measured against f32 on the test
    /// set, and the result published before the guaranteed post-training
    /// load round — so that round serves at the configured precision.
    pub precision: Precision,
}

/// What a train-into-fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetTrainReport {
    /// The background trainer's curve.
    pub curve: TrainingCurve,
    /// The merged observation of every load round.
    pub load: FleetLoadReport,
    /// The fleet's own report.
    pub fleet: FleetReport,
}

/// Trains `algo` in a background thread, publishing its consensus model
/// into the live model's registry every `publish_every` iterations,
/// while the configured load streams run against the fleet in rounds
/// until the trainer finishes (with one final round guaranteed to run
/// entirely after the last publication). Request payloads are drawn
/// from `test_set`.
///
/// The initial consensus model is published before load starts, so no
/// request ever sees `NoModel`. Consumes and drains the fleet; the live
/// model's registry (from [`Fleet::registry`]) keeps the final snapshot,
/// with its precision and measured accuracy delta.
///
/// # Panics
/// Panics when the live model is not in the fleet or its spec does not
/// match `net`.
pub fn train_into_fleet<A: SyncAlgorithm + Send>(
    fleet: Fleet,
    net: &Arc<Network>,
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &mut A,
    config: &FleetTrainConfig,
) -> FleetTrainReport {
    let registry = fleet
        .registry(&config.live_model)
        .expect("live model must be registered in the fleet");
    registry
        .publish(algo.consensus().to_vec(), 0)
        .expect("initial model fits its own network");
    let trainer_config = config
        .trainer
        .clone()
        .with_publish(registry.hook(config.publish_every));

    let sample_len = test_set.sample_len();
    let images = test_set.images_tensor();
    let inputs: Vec<Vec<f32>> = images
        .data()
        .chunks_exact(sample_len)
        .take(64)
        .map(<[f32]>::to_vec)
        .collect();

    let client = fleet.client();
    let done = AtomicBool::new(false);
    let (curve, load) = std::thread::scope(|scope| {
        let trainer = scope.spawn(|| {
            let curve = train(net, train_set, test_set, algo, &trainer_config);
            done.store(true, Ordering::Release);
            curve
        });
        let mut merged: Option<FleetLoadReport> = None;
        let mut round = 0u64;
        loop {
            // Sampled before the round: when true, this round runs
            // wholly after training, so the loop always ends with a
            // post-training round against the final model.
            let finished = done.load(Ordering::Acquire);
            if finished && config.precision != Precision::F32 {
                publish_final_quantized(net, &registry, test_set, config.precision);
            }
            let result = run_fleet_load(&client, &inputs, &config.load, config.seed ^ round);
            round += 1;
            match &mut merged {
                None => merged = Some(result),
                Some(earlier) => append_round(earlier, result),
            }
            if finished {
                break;
            }
        }
        let curve = trainer.join().expect("trainer thread panicked");
        (curve, merged.expect("at least one load round"))
    });
    let fleet = fleet.shutdown();
    FleetTrainReport { curve, load, fleet }
}

/// Appends a later load round to `merged`.
///
/// Rounds run back to back and registry versions only grow, so every
/// version a later round observes for a model must be at least the
/// highest one any earlier round observed for it. Each round's closed
/// streams restart their own check at version 0, so the boundary is
/// checked here: a later stream that saw less is marked non-monotonic.
fn append_round(merged: &mut FleetLoadReport, later: FleetLoadReport) {
    let earlier = merged.streams.len();
    for mut stream in later.streams {
        let earlier_max = merged.streams[..earlier]
            .iter()
            .filter(|s| s.model == stream.model)
            .map(|s| s.max_version)
            .max()
            .unwrap_or(0);
        if stream.min_version < earlier_max {
            stream.versions_monotonic = false;
        }
        merged.streams.push(stream);
    }
    merged.wall += later.wall;
}

/// Quantizes the registry's latest model (the final consensus `z` at
/// this point), measures what the precision costs against f32 on a
/// bounded slice of the test set, and publishes the result.
fn publish_final_quantized(
    net: &Network,
    registry: &SnapshotRegistry,
    test_set: &Dataset,
    precision: Precision,
) {
    let snapshot = registry.current().expect("published before serving");
    let model = net.quantize(&snapshot.params, precision);
    let sample_len = test_set.sample_len();
    let n = test_set.labels().len().min(DELTA_EVAL_SAMPLES);
    let delta = (n > 0).then(|| {
        let mut dims = vec![n];
        dims.extend_from_slice(net.input_shape().dims());
        let head = Tensor::from_vec(
            Shape::new(&dims),
            test_set.images_tensor().data()[..n * sample_len].to_vec(),
        );
        accuracy_delta(
            net,
            &snapshot.params,
            &model,
            &head,
            &test_set.labels()[..n],
            32,
        )
    });
    registry
        .publish_quantized(Arc::new(model), snapshot.iteration, delta)
        .expect("quantized model keeps its own spec");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::StreamReport;
    use crate::request::SloClass;
    use std::time::Duration;

    /// One round with a single closed stream on `model` that saw
    /// versions `min..=max`.
    fn round(model: &str, min: u64, max: u64) -> FleetLoadReport {
        FleetLoadReport {
            streams: vec![StreamReport {
                model: model.to_string(),
                class: SloClass::Standard,
                submitted: 10,
                ok: 10,
                goodput: 10,
                shed: 0,
                rejected: 0,
                failed: 0,
                canary: 0,
                versions_monotonic: true,
                min_version: min,
                max_version: max,
            }],
            wall: Duration::from_millis(10),
        }
    }

    #[test]
    fn merged_rounds_check_monotonicity_across_the_boundary() {
        let mut rising = round("live", 1, 3);
        append_round(&mut rising, round("live", 3, 5));
        assert!(rising.versions_monotonic());
        assert_eq!(rising.total_ok(), 20);
        assert_eq!(rising.wall, Duration::from_millis(20));

        // A later round that saw an *older* version than the earlier
        // round's max breaks monotonicity, though each round alone is
        // monotone.
        let mut regressing = round("live", 1, 3);
        append_round(&mut regressing, round("live", 2, 5));
        assert!(!regressing.versions_monotonic());

        // The boundary is per model: another model's versions are not
        // compared, and a stream that observed nothing passes vacuously.
        let mut other = round("live", 1, 3);
        append_round(&mut other, round("static", 1, 1));
        append_round(&mut other, round("live", u64::MAX, 0));
        assert!(other.versions_monotonic());
    }
}
