//! `serve_f32` and `serve_int8`: one fleet model under seeded load.
//!
//! One `Fleet`, one model (MLP 512→[1024,512]→32, 1.07M parameters), one
//! worker, `BatchConfig { max_batch 16, max_delay 1 ms, queue_depth 256 }`,
//! autoscaler off, no `synthetic_delay`. One load-generating thread, which
//! also redeems the tickets; seeded Poisson arrivals; 20% interactive
//! (10 ms deadline), 30% standard (50 ms), 50% batch (250 ms).
//!
//! Phases: `r1`, open loop at 1000 rps for 1.5 s, once; then five
//! interleaved cycles of `sat` (closed loop, 32 outstanding, 0.9 s),
//! `r2` (open loop for 1.2 s at a fixed rate about a quarter of
//! saturation) and `r3` (open loop for 0.8 s at 1.4 × the best `sat`
//! window seen so far, so it measures the shedding policy, not
//! capacity). Throughput is that of the best `sat` window and latency
//! that of the best `r2` cycle (see `stats`); goodput is the median over
//! the `r3` cycles. `serve_int8` stages an int8 candidate as a 20%
//! canary a third of the way into `r1` and promotes it at two thirds;
//! everything after is served in int8, so each serve workload bypasses
//! the other's kernels.

use crate::catalog::Workload;
use crate::harness::{self, timed_setups, Checks, EndToEndValues, LayerValues, Metrics, Outcome};
use crate::loadgen::{class_index, closed_loop, open_loop, Schedule, Sent, WallPace};
use crate::replay;
use crate::stats;
use crossbow::fleet::{
    CandidateMode, Fleet, FleetClient, FleetConfig, FleetError, FleetPrediction, FleetTicket,
    SloClass,
};
use crossbow::nn::{zoo, Network, QuantizedModel};
use crossbow::serve::snapshot::{export_snapshot, load_into};
use crossbow::serve::{BatchConfig, ModelSpec, SnapshotRegistry};
use crossbow::telemetry::{Recorder, Shard, Span, SpanKind, Telemetry, Timeline, HOST_DEVICE};
use crossbow::tensor::{Precision, Rng, Shape, Tensor};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const MODEL: &str = "m";
const DIM: usize = 512;
const HIDDEN: [usize; 2] = [1024, 512];
const CLASSES: usize = 32;
const POOL: usize = 2048;
const MAX_BATCH: usize = 16;
const OUTSTANDING: usize = 32;
const CYCLES: usize = 5;
const R1_RPS: f64 = 1000.0;
/// About a quarter of saturation at each precision.
const R2_RPS_F32: f64 = 2000.0;
const R2_RPS_INT8: f64 = 6000.0;
const R3_OVER_SAT: f64 = 1.4;
const R1_SECS: f64 = 1.5;
const SAT_SECS: f64 = 0.9;
const R2_SECS: f64 = 1.2;
const R3_SECS: f64 = 0.8;
const CANARY_PERCENT: u8 = 20;
/// An open loop holds at most this many tickets and redeems the oldest
/// beyond it, so what the harness holds does not grow with the rate or
/// the phase's length. The fleet has at most `queue_depth` + `max_batch`
/// requests unanswered, and the oldest of 4096 tickets was submitted
/// 70 ms ago at 60k requests/s and 290 ms ago at 14k: its reply is there.
const TICKETS_HELD: usize = 4096;
/// A reply not seen this long after its submit counts as lost.
const LOST_AFTER: Duration = Duration::from_secs(10);
/// Lane of the generator's own spans in the trace.
const GENERATOR_LANE: u32 = 100;
const SUBMIT_LABEL: &str = "perf.submit";

/// Everything a run serves from, built (and timed) as set-up.
struct Served {
    net: Arc<Network>,
    params: Vec<f32>,
    pool: Vec<Vec<f32>>,
    /// Offline f32 `predict` class of every pool input.
    ref_f32: Vec<usize>,
    /// The int8 model and its offline `predict_quant` classes.
    quant: Option<(Arc<QuantizedModel>, Vec<usize>)>,
    fleet: Option<Fleet>,
    base_version: u64,
}

impl Drop for Served {
    fn drop(&mut self) {
        // A fleet has no `Drop`: without this its worker would outlive
        // the run.
        if let Some(fleet) = self.fleet.take() {
            fleet.shutdown();
        }
    }
}

fn predict_pool(
    net: &Network,
    pool: &[Vec<f32>],
    mut f: impl FnMut(&Tensor) -> Vec<usize>,
) -> Vec<usize> {
    let sample: &[usize] = net.input_shape().dims();
    pool.chunks(MAX_BATCH)
        .flat_map(|chunk| {
            let mut dims = vec![chunk.len()];
            dims.extend_from_slice(sample);
            f(&Tensor::from_vec(Shape::new(&dims), chunk.concat()))
        })
        .collect()
}

fn build(int8: bool, seed: u64, telemetry: &Telemetry) -> Served {
    let net = Arc::new(zoo::mlp(DIM, &HIDDEN, CLASSES));
    let mut rng = Rng::new(seed ^ 0x5E27E);
    let params = net.init_params(&mut rng);
    let pool: Vec<Vec<f32>> = (0..POOL)
        .map(|_| (0..DIM).map(|_| rng.normal()).collect())
        .collect();
    let mut scratch = net.scratch_with_plan(&net.plan(MAX_BATCH));
    let ref_f32 = predict_pool(&net, &pool, |x| net.predict(&params, x, &mut scratch));
    let quant = int8.then(|| {
        let model = Arc::new(net.quantize(&params, Precision::Int8));
        let classes = predict_pool(&net, &pool, |x| net.predict_quant(&model, x, &mut scratch));
        (model, classes)
    });
    let fleet = Fleet::builder(FleetConfig {
        batch: BatchConfig {
            max_batch: MAX_BATCH,
            max_delay: Duration::from_millis(1),
            queue_depth: 256,
        },
        initial_workers: 1,
        work_stealing: false,
        synthetic_delay: None,
        autoscaler: None,
        telemetry: Some(telemetry.clone()),
    })
    .model(MODEL, Arc::clone(&net))
    .start();
    let base_version = fleet
        .registry(MODEL)
        .expect("the model was registered")
        .publish(params.clone(), 1)
        .expect("parameters fit the model's own spec");
    Served {
        net,
        params,
        pool,
        ref_f32,
        quant,
        fleet: Some(fleet),
        base_version,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    R1,
    Sat,
    R2,
    R3,
}

/// A request the fleet accepted and has not been asked about yet.
struct InFlight {
    ticket: FleetTicket,
    sent: Sent,
    phase: usize,
    /// Submitted after `promote` returned: must be served by the
    /// promoted version.
    after_promote: bool,
}

/// What the driver saw of one phase.
#[derive(Debug, Default)]
struct Tally {
    /// Per class ([`MIX`] order): requests scheduled, and replies inside
    /// their deadline measured from the due time.
    sent: [u64; 3],
    good: [u64; 3],
    answered: u64,
    shed: u64,
    refused: u64,
    lost: u64,
    /// Served class equals the offline f32 class.
    agree_f32: u64,
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
}

impl Tally {
    fn scheduled(&self) -> u64 {
        self.sent.iter().sum()
    }
}

/// One phase as the driver timed it.
#[derive(Debug)]
struct Phase {
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    /// Closed-loop completions inside the window (`sat` only).
    completed: u64,
    /// `fleet.m.{batches,completed,shed,rejected}` over the phase.
    counters: [u64; 4],
}

impl Phase {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns).max(1) as f64 / 1e9
    }
}

/// The load generator: one thread that runs the phases in order, submits
/// through `client`, keeps the tickets in submit order and redeems them
/// itself. The fleet measures a reply's served latency, so when the
/// ticket is redeemed does not enter any number; with no second harness
/// thread the benchmark keeps two threads busy on this 2-vCPU box, its
/// own and the fleet's worker.
struct Driver<'a> {
    served: &'a Served,
    client: FleetClient,
    recorder: Arc<Recorder>,
    shard: Shard,
    schedule: Schedule,
    metrics: Arc<crossbow::telemetry::MetricsRegistry>,
    in_flight: VecDeque<InFlight>,
    phases: Vec<Phase>,
    tallies: Vec<Tally>,
    promoted: bool,
    /// First few mismatches, for the check message.
    wrong: Vec<String>,
    wrong_count: u64,
}

impl Driver<'_> {
    fn counters(&self) -> [u64; 4] {
        ["batches", "completed", "shed", "rejected"]
            .map(|c| self.metrics.counter(format!("fleet.{MODEL}.{c}")).get())
    }

    fn tally(&mut self, phase: usize) -> &mut Tally {
        if self.tallies.len() <= phase {
            self.tallies.resize_with(phase + 1, Tally::default);
        }
        &mut self.tallies[phase]
    }

    fn wrong(&mut self, what: String) {
        self.wrong_count += 1;
        if self.wrong.len() < 5 {
            self.wrong.push(what);
        }
    }

    fn submit(&mut self, sent: Sent) {
        let phase = self.phases.len();
        let r = sent.request;
        let input = self.served.pool[r.input].clone();
        let start = self.shard.now_ns();
        let result = self.client.submit(MODEL, input, r.class, r.deadline());
        self.shard.close(
            SpanKind::Host,
            SUBMIT_LABEL,
            start,
            HOST_DEVICE,
            GENERATOR_LANE,
            None,
        );
        match result {
            Ok(ticket) => self.in_flight.push_back(InFlight {
                ticket,
                sent,
                phase,
                after_promote: self.promoted,
            }),
            Err(error) => {
                let t = self.tally(phase);
                t.sent[class_index(r.class)] += 1;
                match error {
                    FleetError::Overloaded => t.refused += 1,
                    other => {
                        t.lost += 1;
                        self.wrong(format!("submit failed with {other}"));
                    }
                }
            }
        }
    }

    /// Waits for the reply to the oldest ticket and tallies it. The wait
    /// is bounded: a reply the worker never sends is a lost request, not
    /// a hung benchmark.
    fn redeem_oldest(&mut self) {
        let Some(f) = self.in_flight.pop_front() else {
            return;
        };
        let waited = Duration::from_nanos(self.recorder.now_ns().saturating_sub(f.sent.submit_ns));
        let reply = f.ticket.wait_deadline(LOST_AFTER.saturating_sub(waited));
        self.reply(reply, f.sent, f.phase, f.after_promote);
    }

    /// Redeems the oldest tickets beyond [`TICKETS_HELD`]. Their replies
    /// are there, so this does not block; if it ever does, the requests
    /// it delays are timed from when they were due.
    fn redeem_old(&mut self) {
        while self.in_flight.len() > TICKETS_HELD {
            self.redeem_oldest();
        }
    }

    /// Redeems every ticket: the phase has drained.
    fn drain(&mut self) {
        while !self.in_flight.is_empty() {
            self.redeem_oldest();
        }
    }

    fn reply(
        &mut self,
        reply: Result<FleetPrediction, FleetError>,
        sent: Sent,
        phase: usize,
        after_promote: bool,
    ) {
        let class = class_index(sent.request.class);
        self.tally(phase).sent[class] += 1;
        let p = match reply {
            Ok(p) => p,
            Err(FleetError::Shed) => {
                self.tally(phase).shed += 1;
                return;
            }
            Err(other) => {
                self.tally(phase).lost += 1;
                self.wrong(format!("request lost: {other}"));
                return;
            }
        };
        let served = self.served;
        let input = sent.request.input;
        let promoted = p.version > served.base_version;
        let expected = match &served.quant {
            Some((_, quant_ref)) if p.canary || promoted => quant_ref[input],
            _ => served.ref_f32[input],
        };
        if p.class != expected {
            self.wrong(format!(
                "input {input} served as class {} (version {}, canary {}), offline predicts {expected}",
                p.class, p.version, p.canary
            ));
        }
        let staged = served.quant.is_some();
        if (!staged && (p.canary || promoted)) || (after_promote && (!promoted || p.canary)) {
            self.wrong(format!(
                "version went backwards: input {input} submitted {} promotion got version {} \
                 (canary {})",
                if after_promote { "after" } else { "without a" },
                p.version,
                p.canary
            ));
        }
        let latency = sent.latency(p.latency);
        let t = self.tally(phase);
        t.answered += 1;
        t.agree_f32 += u64::from(p.class == served.ref_f32[input]);
        t.good[class] += u64::from(p.met_deadline && latency <= sent.request.deadline());
        t.latency_ms.push(latency.as_secs_f64() * 1e3);
        t.lateness_ms.push(sent.lateness_ns() as f64 / 1e6);
    }

    fn open(&mut self, kind: Kind, rate: f64, secs: f64, mut at: impl FnMut(&mut Self, f64)) {
        let before = self.counters();
        let duration_ns = (secs * 1e9) as u64;
        let mut pace = WallPace(Arc::clone(&self.recorder));
        let mut schedule = std::mem::replace(&mut self.schedule, Schedule::new(0, 1));
        let mut first_due = None;
        let (start_ns, end_ns) = open_loop(&mut pace, &mut schedule, rate, duration_ns, |sent| {
            let start = *first_due.get_or_insert(sent.due_ns);
            at(self, (sent.due_ns - start) as f64 / duration_ns as f64);
            self.submit(sent);
            self.redeem_old();
        });
        self.schedule = schedule;
        at(self, 1.0);
        self.drain();
        let after = self.counters();
        self.phases.push(Phase {
            kind,
            start_ns,
            end_ns,
            completed: 0,
            counters: std::array::from_fn(|i| after[i] - before[i]),
        });
    }

    /// The closed loop waits for its oldest request, as a caller does
    /// for its own; replies that overtake it wait to be counted.
    fn sat(&mut self, secs: f64) {
        let before = self.counters();
        let mut pace = WallPace(Arc::clone(&self.recorder));
        let mut schedule = std::mem::replace(&mut self.schedule, Schedule::new(0, 1));
        // `closed_loop` takes two closures that both need the driver; a
        // cell lends it to whichever runs.
        let (start_ns, end_ns, completed) = {
            let this = std::cell::RefCell::new(&mut *self);
            closed_loop(
                &mut pace,
                &mut schedule,
                OUTSTANDING,
                (secs * 1e9) as u64,
                |sent| this.borrow_mut().submit(sent),
                || this.borrow_mut().redeem_oldest(),
            )
        };
        self.schedule = schedule;
        self.drain();
        let after = self.counters();
        self.phases.push(Phase {
            kind: Kind::Sat,
            start_ns,
            end_ns,
            completed,
            counters: std::array::from_fn(|i| after[i] - before[i]),
        });
    }

    /// Stages the int8 canary a third of the way into `r1` and promotes
    /// it at two thirds (or at the end, should no arrival fall later).
    fn roll_out(&mut self, progress: f64, staged: &mut bool, checks: &mut Vec<String>) {
        let Some((model, _)) = &self.served.quant else {
            return;
        };
        let fleet = self.served.fleet.as_ref().expect("fleet runs until drop");
        if !*staged && progress >= 1.0 / 3.0 {
            *staged = true;
            let mode = CandidateMode::Canary {
                percent: CANARY_PERCENT,
            };
            if let Err(e) = fleet.stage_quantized_candidate(MODEL, Arc::clone(model), None, mode) {
                checks.push(format!("staging the int8 candidate failed: {e}"));
            }
        }
        if !self.promoted && progress >= 2.0 / 3.0 {
            match fleet.promote(MODEL, 2) {
                Ok(Some(v)) if v > self.served.base_version => self.promoted = true,
                other => checks.push(format!("promoting the int8 candidate returned {other:?}")),
            }
        }
    }
}

/// What one pass over all phases produced.
struct Pass {
    phases: Vec<Phase>,
    tallies: Vec<Tally>,
}

impl Pass {
    fn of(&self, kind: Kind) -> impl Iterator<Item = (&Phase, &Tally)> {
        self.phases
            .iter()
            .zip(&self.tallies)
            .filter(move |(p, _)| p.kind == kind)
    }

    /// Closed-loop requests per second of the best `sat` window. What
    /// the shared host takes away it takes from some windows and not
    /// others, and it never adds: the best window is the one that
    /// measured the program.
    fn sat_rps(&self) -> f64 {
        self.of(Kind::Sat)
            .map(|(p, _)| p.completed as f64 / p.secs())
            .fold(0.0, f64::max)
    }

    /// The `q` percentile of open-loop latency at `r2`, of the cycle
    /// where it is lowest (see [`Pass::sat_rps`]).
    fn r2_latency_ms(&self, q: f64) -> f64 {
        self.of(Kind::R2)
            .map(|(_, t)| stats::percentile(&t.latency_ms, q))
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// Replies inside their deadline over requests *sent* at `r3`, median
    /// over cycles; shed, refused, late and lost all miss. `class` picks
    /// one class of the mix, `None` all of them.
    fn r3_goodput(&self, class: Option<usize>) -> f64 {
        let pick = |a: &[u64; 3]| class.map_or(a.iter().sum::<u64>(), |c| a[c]) as f64;
        let per_cycle: Vec<f64> = self
            .of(Kind::R3)
            .map(|(_, t)| pick(&t.good) / pick(&t.sent).max(1.0))
            .collect();
        stats::median(&per_cycle)
    }

    /// Share of replies after `r1` whose class equals the offline f32
    /// class: 1 for f32, the quantisation cost for int8.
    fn accuracy(&self) -> f64 {
        let (agree, answered) = self
            .phases
            .iter()
            .zip(&self.tallies)
            .filter(|(p, _)| p.kind != Kind::R1)
            .fold((0, 0), |(a, n), (_, t)| (a + t.agree_f32, n + t.answered));
        agree as f64 / answered.max(1) as f64
    }

    fn attempted(&self) -> u64 {
        self.tallies.iter().map(Tally::scheduled).sum()
    }

    /// Lost anywhere, and shed or refused outside the overload phase.
    fn failed(&self) -> u64 {
        self.phases
            .iter()
            .zip(&self.tallies)
            .map(|(p, t)| {
                t.lost
                    + if p.kind == Kind::R3 {
                        0
                    } else {
                        t.shed + t.refused
                    }
            })
            .sum()
    }
}

/// Runs every phase against `served` and checks what was served.
fn pass(
    served: &Served,
    int8: bool,
    seed: u64,
    scale: f64,
    telemetry: &Telemetry,
    checks: &mut Checks,
) -> Pass {
    let recorder = Arc::clone(&telemetry.recorder);
    let mut d = Driver {
        served,
        client: served
            .fleet
            .as_ref()
            .expect("fleet runs until drop")
            .client(),
        shard: recorder.shard(),
        recorder,
        schedule: Schedule::new(seed, POOL),
        metrics: Arc::clone(&telemetry.metrics),
        in_flight: VecDeque::new(),
        phases: Vec::new(),
        tallies: Vec::new(),
        promoted: false,
        wrong: Vec::new(),
        wrong_count: 0,
    };
    let mut rollout_errors = Vec::new();
    let mut staged = false;
    d.open(Kind::R1, R1_RPS, R1_SECS * scale, |d, progress| {
        d.roll_out(progress, &mut staged, &mut rollout_errors)
    });
    let r2_rps = if int8 { R2_RPS_INT8 } else { R2_RPS_F32 };
    let mut best_sat = 0.0f64;
    for _ in 0..CYCLES {
        d.sat(SAT_SECS * scale);
        let last = d.phases.last().expect("just pushed");
        best_sat = best_sat.max(last.completed as f64 / last.secs());
        d.open(Kind::R2, r2_rps, R2_SECS * scale, |_, _| {});
        d.open(
            Kind::R3,
            R3_OVER_SAT * best_sat.max(1.0),
            R3_SECS * scale,
            |_, _| {},
        );
    }
    // Dropping the driver's shard flushes the submit spans.
    let Driver {
        phases,
        mut tallies,
        wrong,
        wrong_count,
        ..
    } = d;
    for e in rollout_errors {
        checks.require(false, || e);
    }
    checks.require(wrong_count == 0, || {
        format!("{wrong_count} replies were wrong or lost, e.g. {wrong:?}")
    });
    tallies.resize_with(phases.len(), Tally::default);
    let pass = Pass { phases, tallies };
    // Every request scheduled is accounted for, and none is lost.
    for (i, (p, t)) in pass.phases.iter().zip(&pass.tallies).enumerate() {
        let accounted = t.answered + t.shed + t.refused + t.lost;
        checks.require(accounted == t.scheduled() && t.lost == 0, || {
            format!(
                "phase {i} ({:?}): {} scheduled, {} answered + {} shed + {} refused + {} lost",
                p.kind,
                t.scheduled(),
                t.answered,
                t.shed,
                t.refused,
                t.lost
            )
        });
    }
    checks.require(pass.phases.len() == 1 + 3 * CYCLES, || {
        format!(
            "{} phases ran, expected {}",
            pass.phases.len(),
            1 + 3 * CYCLES
        )
    });
    checks.require(
        !int8 || pass.of(Kind::R2).all(|(_, t)| t.answered > 0),
        || "an r2 phase served nothing".into(),
    );
    pass
}

fn workload(int8: bool) -> Workload {
    if int8 {
        Workload::ServeInt8
    } else {
        Workload::ServeF32
    }
}

pub fn run(
    int8: bool,
    seed: u64,
    scale: f64,
    trace: bool,
    dir: &Path,
    checks: &mut Checks,
) -> Outcome {
    if trace {
        return traced(int8, seed, scale, dir, checks);
    }
    let telemetry = Telemetry::disabled();
    let (served, setup_s) = timed_setups(|| build(int8, seed, &telemetry));
    let p = pass(&served, int8, seed, scale, &telemetry, checks);
    drop(served);
    Outcome {
        attempted: p.attempted(),
        failed: p.failed(),
        metrics: Metrics::EndToEnd(EndToEndValues {
            samples_per_s: p.sat_rps(),
            op_ms_p50: p.r2_latency_ms(0.50),
            op_ms_tail: p.r2_latency_ms(0.95),
            accuracy: p.accuracy(),
            goodput_ratio: p.r3_goodput(None),
            setup_s,
            peak_rss_mb: harness::peak_rss_mb(),
        }),
    }
}

fn in_window<'a>(
    timeline: &'a Timeline,
    label: &'a str,
    p: &'a Phase,
) -> impl Iterator<Item = &'a Span> {
    timeline
        .spans()
        .iter()
        .filter(move |s| s.label == label && s.start_ns >= p.start_ns && s.end_ns <= p.end_ns)
}

/// Mean batch size and the worker's busy share over one phase kind, each
/// the median over cycles.
fn report_phase(
    kind: Kind,
    batch_name: &'static str,
    busy_name: &'static str,
    pass: &Pass,
    timeline: &Timeline,
    out: &mut LayerValues,
) {
    let (mut batch, mut busy) = (Vec::new(), Vec::new());
    for (p, _) in pass.of(kind) {
        let [batches, completed, ..] = p.counters;
        batch.push(completed as f64 / batches.max(1) as f64);
        let infer_ns: u64 = in_window(timeline, "fleet-infer", p)
            .map(Span::duration_ns)
            .sum();
        busy.push(infer_ns as f64 / (p.end_ns - p.start_ns).max(1) as f64);
    }
    out.set(batch_name, stats::median(&batch));
    out.set(busy_name, stats::median(&busy));
}

fn traced(int8: bool, seed: u64, scale: f64, dir: &Path, checks: &mut Checks) -> Outcome {
    let off = {
        let telemetry = Telemetry::disabled();
        let served = build(int8, seed, &telemetry);
        pass(&served, int8, seed, scale, &telemetry, checks)
    };
    let telemetry = Telemetry::wall();
    let served = build(int8, seed, &telemetry);
    let on = pass(&served, int8, seed, scale, &telemetry, checks);
    let mut out = LayerValues::default();

    // Replays at the served model's shapes and precision.
    let (in_f, out_f) = replay::widest_dense(&served.net);
    let quant = served.quant.as_ref().map(|q| q.0.as_ref());
    if int8 {
        out.set(
            "tensor.int8_b1_gops",
            replay::int8_gops(in_f, out_f, 1, seed),
        );
        out.set(
            "tensor.int8_b16_gops",
            replay::int8_gops(in_f, out_f, MAX_BATCH, seed),
        );
    } else {
        out.set(
            "tensor.gemm_dense_b1_gflops",
            replay::dense_gemm_gflops(in_f, out_f, 1, seed),
        );
        out.set(
            "tensor.gemm_dense_b16_gflops",
            replay::dense_gemm_gflops(in_f, out_f, MAX_BATCH, seed),
        );
    }
    let (eval_b1, allocs_b1) = replay::eval_us(&served.net, &served.params, quant, 1, seed);
    let (eval_b16, allocs_b16) =
        replay::eval_us(&served.net, &served.params, quant, MAX_BATCH, seed);
    out.set("nn.eval_us_b1", eval_b1);
    out.set("nn.eval_us_b16", eval_b16);
    out.set("tensor.arena_fresh_allocs", allocs_b1 + allocs_b16);
    out.set("tensor.kernel_tier", replay::kernel_tier());

    // Publishing and loading a snapshot, on a registry of the benchmark's
    // own so the serving one is not disturbed.
    let registry = SnapshotRegistry::new(ModelSpec::of(&served.net));
    // `publish` takes the parameters by value; the caller's copy is made
    // outside the timed call.
    let publish: Vec<f64> = (0..20)
        .map(|_| {
            let params = served.params.clone();
            let t = std::time::Instant::now();
            registry
                .publish(params, 1)
                .expect("parameters fit the spec");
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.set("serve.publish_us", stats::median(&publish) * 1e6);
    let snapshot_dir = dir.join("snapshot");
    let snapshot = registry.current().expect("just published");
    match export_snapshot(&snapshot_dir, &snapshot) {
        Ok(()) => {
            let fresh = SnapshotRegistry::new(ModelSpec::of(&served.net));
            let load = replay::time_reps(replay::BUDGET, || {
                let loaded = load_into(&fresh, &snapshot_dir);
                assert!(
                    matches!(loaded, Ok(Some(_))),
                    "snapshot load failed: {loaded:?}"
                );
            });
            out.set("serve.snapshot_load_ms", stats::median(&load) * 1e3);
        }
        Err(e) => checks.require(false, || format!("snapshot export failed: {e}")),
    }
    drop(served);

    let timeline = telemetry.recorder.timeline();
    let submit_us: Vec<f64> = timeline
        .spans()
        .iter()
        .filter(|s| s.label == SUBMIT_LABEL)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    out.set("fleet.submit_us", stats::median(&submit_us));
    let r2_lateness: Vec<f64> = on
        .of(Kind::R2)
        .flat_map(|(_, t)| t.lateness_ms.iter().copied())
        .collect();
    out.set(
        "fleet.gen_lateness_ms_p99",
        stats::percentile(&r2_lateness, 0.99),
    );
    out.set("fleet.p99_ms_r2", on.r2_latency_ms(0.99));
    report_phase(
        Kind::R2,
        "fleet.mean_batch_size_r2",
        "fleet.infer_busy_share_r2",
        &on,
        &timeline,
        &mut out,
    );
    report_phase(
        Kind::R3,
        "fleet.mean_batch_size_r3",
        "fleet.infer_busy_share_r3",
        &on,
        &timeline,
        &mut out,
    );
    for (name, class) in [
        ("fleet.goodput_interactive_r3", SloClass::Interactive),
        ("fleet.goodput_standard_r3", SloClass::Standard),
        ("fleet.goodput_batch_r3", SloClass::Batch),
    ] {
        out.set(name, on.r3_goodput(Some(class_index(class))));
    }
    let r3_counter = |i: usize| -> f64 {
        stats::median(
            &on.of(Kind::R3)
                .map(|(p, _)| p.counters[i] as f64)
                .collect::<Vec<_>>(),
        )
    };
    out.set("fleet.shed_r3", r3_counter(2));
    out.set("fleet.rejected_r3", r3_counter(3));
    out.set(
        "fleet.lost",
        on.tallies.iter().map(|t| t.lost).sum::<u64>() as f64,
    );

    // Serving runs on a schedule, so tracing cannot lengthen the wall;
    // its cost shows as closed-loop throughput lost.
    let (sat_off, sat_on) = (off.sat_rps(), on.sat_rps());
    out.set(
        "telemetry.trace_overhead_share",
        if sat_off > 0.0 {
            (sat_off - sat_on) / sat_off
        } else {
            0.0
        },
    );
    out.set(
        "telemetry.spans_recorded",
        harness::write_and_verify_trace(workload(int8), &timeline, checks) as f64,
    );
    let r2_latency: Vec<f64> = on
        .of(Kind::R2)
        .flat_map(|(_, t)| t.latency_ms.iter().copied())
        .collect();
    out.set(
        "telemetry.hist_p99_rel_err",
        replay::hist_p99_rel_err(&r2_latency),
    );
    Outcome {
        attempted: off.attempted() + on.attempted(),
        failed: off.failed() + on.failed(),
        metrics: Metrics::PerLayer(out),
    }
}
