//! Failure injection: stragglers, stalled streams and degenerate
//! configurations must degrade gracefully, not deadlock or corrupt state.

use crossbow::autotuner::tune_to_convergence;
use crossbow::engine::{RobustnessConfig, Session, SessionConfig};
use crossbow::exec_sim::{simulate, simulate_robust, RobustSimConfig, SimConfig};
use crossbow::gpu_sim::{FaultPlan, KernelDesc, Machine, MachineConfig, SimDuration, SimTime};
use crossbow::nn::ModelProfile;
use crossbow::Benchmark;

#[test]
fn straggler_gpu_delays_but_does_not_deadlock_the_collective() {
    // One GPU is busy with a long kernel before joining the all-reduce;
    // the rendezvous must simply wait for it (paper §2.3 motivates
    // synchronous training's straggler sensitivity).
    let mut machine = Machine::new(MachineConfig::titan_x_server(4));
    let streams: Vec<_> = (0..4)
        .map(|g| machine.create_stream(machine.device(g)))
        .collect();
    let cfg = crossbow::gpu_sim::DeviceConfig::titan_x_pascal();
    let slow_flops = (cfg.effective_flops(cfg.sm_total) * 0.5) as u64; // 500 ms
    machine.submit_kernel(streams[2], KernelDesc::compute("straggler", slow_flops, 24));
    machine.all_reduce(&streams, 1_000_000, "ar");
    for (i, &s) in streams.iter().enumerate() {
        machine.callback(s, i as u64);
    }
    let done = machine.run();
    assert_eq!(done.len(), 4, "everyone completes");
    assert!(
        done[0].time > crossbow::gpu_sim::SimTime::from_nanos(400_000_000),
        "the collective waited for the straggler"
    );
}

#[test]
fn autotuner_survives_a_pathological_throughput_oracle() {
    // A noisy, non-monotonic oracle: the tuner must terminate at a valid
    // learner count without oscillating forever.
    let chaotic = |m: usize| match m % 3 {
        0 => 900.0,
        1 => 1000.0,
        _ => 800.0,
    };
    let (m, obs) = tune_to_convergence(10.0, 8, chaotic);
    assert!((1..=8).contains(&m), "chose {m}, observations {obs:?}");
    assert!(obs.len() <= 10, "terminates promptly");
}

#[test]
fn zero_work_machine_stays_quiescent_under_polling() {
    let mut machine = Machine::new(MachineConfig::titan_x_server(1));
    assert!(machine.run_until_callback().is_none());
    assert!(machine.poll_completion().is_none());
    assert!(machine.is_quiescent());
}

#[test]
fn delay_only_streams_complete() {
    // Host stalls with no device work behind them still retire.
    let mut machine = Machine::new(MachineConfig::titan_x_server(1));
    let s = machine.create_stream(machine.device(0));
    for _ in 0..100 {
        machine.delay(s, SimDuration::from_micros(10), "stall");
    }
    machine.callback(s, 7);
    let done = machine.run();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].time.as_nanos(), 100 * 10_000);
}

#[test]
fn transient_collective_failure_is_retried_to_success() {
    // A failed all-reduce must be resubmitted (with backoff) and succeed
    // on the retry — not deadlock, and not silently drop the sync.
    let cfg = RobustSimConfig::new(
        SimConfig::crossbow(ModelProfile::resnet32(), 4, 2, 64),
        FaultPlan::none().transient_collective(2, 1),
    );
    let report = simulate_robust(&cfg);
    assert!(report.faults.sync_retries >= 1, "{:?}", report.faults);
    assert_eq!(report.faults.dropped_syncs, 0, "retry must succeed");
    assert_eq!(report.faults.injected.collective_faults, 1);
    assert!(report.throughput > 0.0);
}

#[test]
fn quarantine_shrinks_then_restores_the_sync_group() {
    // A 3x straggler window on GPU 0: its learners leave the all-reduce
    // group while it lags and rejoin once the window passes.
    let mut sim = SimConfig::crossbow(ModelProfile::resnet32(), 4, 1, 64);
    sim.iterations = 32;
    let horizon = simulate(&sim).total_time;
    let from = SimTime::ZERO + SimDuration::from_nanos(horizon.as_nanos() / 4);
    let until = SimTime::ZERO + SimDuration::from_nanos(horizon.as_nanos() / 2);
    let cfg = RobustSimConfig::new(sim, FaultPlan::none().straggler(0, from, until, 3.0));
    let report = simulate_robust(&cfg);
    assert!(report.faults.quarantines >= 1, "{:?}", report.faults);
    assert!(report.faults.rejoins >= 1, "{:?}", report.faults);
}

#[test]
fn host_crash_inside_a_quarantine_window_resumes_cleanly() {
    // Composed faults: the host dies while a straggler has the sync group
    // quarantined. The crashed report must stay consistent (the crash and
    // the quarantine both recorded), and a fresh process resuming past the
    // crash point — the straggler window still in its plan — must
    // quarantine, rejoin and finish, with no phantom crash recorded.
    let mut sim = SimConfig::crossbow(ModelProfile::resnet32(), 4, 1, 64);
    sim.iterations = 32;
    let horizon = simulate(&sim).total_time;
    let from = SimTime::ZERO + SimDuration::from_nanos(horizon.as_nanos() / 4);
    let until = SimTime::ZERO + SimDuration::from_nanos(horizon.as_nanos() / 2);
    let crash_at = SimTime::ZERO + SimDuration::from_nanos(horizon.as_nanos() * 2 / 5);

    let crashed = simulate_robust(&RobustSimConfig::new(
        sim.clone(),
        FaultPlan::none()
            .straggler(0, from, until, 3.0)
            .host_crash(crash_at),
    ));
    assert_eq!(crashed.faults.host_crashes, 1, "{:?}", crashed.faults);
    assert!(
        crashed.faults.quarantines >= 1,
        "the crash landed inside an active quarantine window: {:?}",
        crashed.faults
    );

    let resumed = simulate_robust(
        &RobustSimConfig::new(sim, FaultPlan::none().straggler(0, from, until, 3.0))
            .with_start_iter(16),
    );
    assert_eq!(resumed.faults.host_crashes, 0, "{:?}", resumed.faults);
    assert!(resumed.faults.quarantines >= 1, "{:?}", resumed.faults);
    assert!(resumed.faults.rejoins >= 1, "{:?}", resumed.faults);
    assert!(resumed.throughput > 0.0, "the resumed run makes progress");
}

#[test]
fn nan_loss_rolls_back_and_still_reaches_target() {
    // Poisoned losses mid-run: the divergence guard restores the last
    // checkpoint, restarts averaging and the session still converges.
    let robustness = RobustnessConfig {
        fault_plan: Some(FaultPlan::none()), // statistical half only
        inject_nan_at: Some(30),
        ..RobustnessConfig::default()
    };
    let config = SessionConfig::lenet_quick()
        .with_epochs(12)
        .with_target(0.9)
        .with_robustness(robustness);
    let report = Session::new(config).run().expect("run");
    assert!(report.curve.rollbacks >= 1, "rollback must have happened");
    assert!(
        report.curve.epochs_to_target.is_some(),
        "still reaches the target: final accuracy {}",
        report.curve.final_accuracy
    );
}

#[test]
fn eight_gpu_resnet32_session_survives_collective_failure_and_straggler() {
    // The issue's acceptance scenario: an 8-GPU ResNet-32 session with one
    // transient collective failure and one 2x straggler window completes
    // without deadlock, records at least one retry and one quarantine, and
    // stays within 2 accuracy points of the fault-free run at the same
    // seed.
    let base = SessionConfig::new(Benchmark::resnet32())
        .with_gpus(8)
        .with_learners_per_gpu(2)
        .with_batch(64)
        .with_epochs(4)
        .with_seed(11);

    let fault_free = Session::new(base.clone()).run().expect("run");

    // The plan needs sim-time coordinates; probe the fault-free horizon
    // the same way the engine builds its simulator configuration.
    let horizon = simulate(&SimConfig::crossbow(ModelProfile::resnet32(), 8, 2, 64)).total_time;
    let from = SimTime::ZERO + SimDuration::from_nanos(horizon.as_nanos() / 4);
    let until = SimTime::ZERO + SimDuration::from_nanos(horizon.as_nanos() / 2);
    let robustness = RobustnessConfig {
        fault_plan: Some(
            FaultPlan::none()
                .transient_collective(1, 1)
                .straggler(3, from, until, 2.0),
        ),
        ..RobustnessConfig::default()
    };
    let robust = Session::new(base.with_robustness(robustness))
        .run()
        .expect("run");

    let faults = robust.sim.faults;
    assert!(faults.sync_retries >= 1, "at least one retry: {faults:?}");
    assert!(
        faults.quarantines >= 1,
        "at least one quarantine: {faults:?}"
    );
    assert_eq!(faults.injected.collective_faults, 1);
    assert!(faults.injected.straggler_kernels > 0);
    assert!(robust.sim.throughput > 0.0, "no deadlock, forward progress");
    let gap = (robust.curve.final_accuracy - fault_free.curve.final_accuracy).abs();
    assert!(
        gap < 0.02,
        "faulty run within 2 points of fault-free: {} vs {}",
        robust.curve.final_accuracy,
        fault_free.curve.final_accuracy
    );
}
