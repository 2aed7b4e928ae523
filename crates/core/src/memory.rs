//! Memory planning (§4.5).
//!
//! Deep-learning models "require more memory to store the output of their
//! dataflow operators than the model itself" — ResNet-50 is 97.5 MB but
//! its 384 operator outputs consume 7.5 GB. CROSSBOW reduces this with two
//! plans:
//!
//! * an **offline plan** per learning task: walk the operator graph in
//!   execution order, keep a reference count per output buffer, and hand a
//!   buffer back to a free pool when its count drops to zero so later
//!   operators reuse it ("reduces the memory footprint of a learner by up
//!   to 50% because outputs are mostly reused during the backwards
//!   phase");
//! * an **online plan** when several learners share a GPU: in practice
//!   "not all instances of the same operator execute concurrently", so
//!   learners share per-size output-buffer pools, and the peak footprint
//!   of `m` staggered learners is far below `m×` a single learner's.

use crossbow_nn::graph::OpGraph;
use crossbow_nn::{NetPlan, Network, Scratch};
use crossbow_tensor::Workspace;
use std::collections::BTreeMap;

/// The result of planning one or more learning tasks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoryPlan {
    /// Distinct physical buffers allocated.
    pub buffers_allocated: usize,
    /// Total bytes of all allocated buffers.
    pub bytes_allocated: usize,
    /// Peak bytes live at any point during execution.
    pub peak_bytes: usize,
    /// Bytes that would be needed with no reuse at all (one buffer per
    /// operator output).
    pub bytes_without_reuse: usize,
}

impl MemoryPlan {
    /// Fraction of the no-reuse footprint saved by the plan.
    pub fn savings(&self) -> f64 {
        if self.bytes_without_reuse == 0 {
            0.0
        } else {
            1.0 - self.bytes_allocated as f64 / self.bytes_without_reuse as f64
        }
    }
}

/// Pool of reusable buffers keyed by exact size, mirroring the paper's
/// per-operator output pools.
#[derive(Default)]
struct BufferPool {
    free: BTreeMap<usize, usize>, // size -> free count
    allocated: usize,
    bytes: usize,
    live_bytes: usize,
    peak_bytes: usize,
}

impl BufferPool {
    /// Takes a free buffer of exactly `size` bytes or allocates a new one.
    fn acquire(&mut self, size: usize) {
        match self.free.get_mut(&size) {
            Some(n) if *n > 0 => *n -= 1,
            _ => {
                self.allocated += 1;
                self.bytes += size;
            }
        }
        self.live_bytes += size;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    /// Returns a buffer of `size` bytes to the pool.
    fn release(&mut self, size: usize) {
        *self.free.entry(size).or_insert(0) += 1;
        debug_assert!(self.live_bytes >= size);
        self.live_bytes -= size;
    }
}

/// An **executable** §4.5 memory plan.
///
/// The original [`MemoryPlan`] is a *stats* view: it reports how much a
/// ref-count walk over the operator graph would save, but nothing consumes
/// it at run time. `ExecMemoryPlan` closes that loop. It combines
///
/// * the per-layer element counts from [`Network::plan`] (what one training
///   step actually checks out of a learner's arena), and
/// * the ref-count walk over the operator graph (the offline stats
///   view),
///
/// and can **build** the pre-warmed per-learner [`Workspace`]/[`Scratch`]
/// the CPU execution engine hands to each learner lane, so the very first
/// iteration is served from the pool.
#[derive(Clone, Debug)]
pub struct ExecMemoryPlan {
    net: NetPlan,
    learners: usize,
    offline: MemoryPlan,
}

impl ExecMemoryPlan {
    /// Plans `learners` co-located learners of `net` at the given batch
    /// size.
    pub fn new(net: &Network, batch: usize, learners: usize) -> Self {
        assert!(learners > 0, "need at least one learner");
        ExecMemoryPlan {
            net: net.plan(batch),
            learners,
            offline: offline_plan(&OpGraph::from_network(net, batch)),
        }
    }

    /// The per-learner executable plan (element counts per layer).
    pub fn net_plan(&self) -> &NetPlan {
        &self.net
    }

    /// Number of co-located learners this plan covers.
    pub fn learners(&self) -> usize {
        self.learners
    }

    /// Estimated arena bytes one learner's training step needs.
    pub fn arena_bytes_per_learner(&self) -> usize {
        self.net.arena_bytes()
    }

    /// Stats view of the single-learner ref-count walk.
    pub fn offline_stats(&self) -> &MemoryPlan {
        &self.offline
    }

    /// Builds one pre-warmed workspace for a learner lane.
    pub fn build_workspace(&self) -> Workspace {
        self.net.build_workspace()
    }

    /// Builds pre-warmed scratches for every learner lane.
    pub fn build_scratches(&self, net: &Network) -> Vec<Scratch> {
        (0..self.learners)
            .map(|_| net.scratch_with_plan(&self.net))
            .collect()
    }
}

/// Plans one learning task offline (the §4.5 reference-count walk).
pub fn offline_plan(graph: &OpGraph) -> MemoryPlan {
    plan_interleaved(std::slice::from_ref(graph), 0)
}

/// Plans `m` learners of the same task sharing one pool. `stagger` is the
/// execution offset between consecutive learners, in operators: 0 means
/// perfectly in lock-step (worst sharing), a large value approaches fully
/// sequential execution (best sharing). The paper's task scheduler makes
/// learners naturally staggered because they are issued one task at a
/// time.
pub fn shared_plan(graph: &OpGraph, m: usize, stagger: usize) -> MemoryPlan {
    assert!(m > 0, "need at least one learner");
    let graphs = vec![graph.clone(); m];
    plan_interleaved(&graphs, stagger)
}

/// Core planner: executes several op sequences interleaved with the given
/// stagger against one shared buffer pool, tracking reference counts.
fn plan_interleaved(graphs: &[OpGraph], stagger: usize) -> MemoryPlan {
    let mut pool = BufferPool::default();
    // Remaining-consumer count for every (graph, op) output.
    let mut refs: Vec<Vec<usize>> = graphs
        .iter()
        .map(|g| (0..g.ops.len()).map(|i| g.consumer_count(i)).collect())
        .collect();
    let mut cursor: Vec<usize> = vec![0; graphs.len()];
    let without_reuse: usize = graphs.iter().map(|g| g.total_output_bytes()).sum();

    // Global step: learner l executes its ops starting at step l*stagger.
    let mut step = 0usize;
    loop {
        let mut any = false;
        for (l, graph) in graphs.iter().enumerate() {
            let start = l * stagger;
            if step < start || cursor[l] >= graph.ops.len() {
                continue;
            }
            let i = cursor[l];
            cursor[l] += 1;
            any = true;
            let op = &graph.ops[i];
            // Acquire this op's output buffer.
            pool.acquire(op.output_bytes);
            if refs[l][i] == 0 {
                // Nothing ever reads it: release immediately after the op.
                pool.release(op.output_bytes);
            }
            // This op has consumed its inputs: drop their refcounts.
            for &input in &op.inputs {
                debug_assert!(refs[l][input] > 0, "input consumed too often");
                refs[l][input] -= 1;
                if refs[l][input] == 0 {
                    pool.release(graph.ops[input].output_bytes);
                }
            }
        }
        if !any && cursor.iter().zip(graphs).all(|(&c, g)| c >= g.ops.len()) {
            break;
        }
        step += 1;
    }
    MemoryPlan {
        buffers_allocated: pool.allocated,
        bytes_allocated: pool.bytes,
        peak_bytes: pool.peak_bytes,
        bytes_without_reuse: without_reuse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbow_nn::zoo::{mlp, resnet_small};

    fn graph(batch: usize) -> OpGraph {
        OpGraph::from_network(&resnet_small(3, 16, 10), batch)
    }

    #[test]
    fn offline_plan_reuses_buffers() {
        let g = graph(16);
        let plan = offline_plan(&g);
        assert!(plan.buffers_allocated < g.ops.len(), "some reuse happened");
        assert!(plan.bytes_allocated < plan.bytes_without_reuse);
        assert!(plan.peak_bytes <= plan.bytes_allocated);
    }

    #[test]
    fn resnet_savings_match_papers_up_to_50_percent() {
        // §4.5: "such an offline plan reduces the memory footprint of a
        // learner by up to 50% because outputs are mostly reused during
        // the backwards phase".
        let plan = offline_plan(&graph(16));
        let s = plan.savings();
        assert!(
            (0.25..=0.60).contains(&s),
            "savings {s} out of the paper's ballpark"
        );
    }

    #[test]
    fn plan_is_batch_size_proportional() {
        let p1 = offline_plan(&graph(8));
        let p2 = offline_plan(&graph(16));
        assert_eq!(p2.bytes_allocated, 2 * p1.bytes_allocated);
        assert_eq!(p2.peak_bytes, 2 * p1.peak_bytes);
    }

    #[test]
    fn shared_pool_beats_private_pools() {
        // The online plan: m staggered learners share buffers; their peak
        // must be below m x single-learner peak.
        let g = graph(8);
        let single = offline_plan(&g);
        let m = 4;
        let stagger = g.ops.len() / 2;
        let shared = shared_plan(&g, m, stagger);
        assert!(
            shared.peak_bytes < m * single.peak_bytes,
            "shared {} vs {}x private {}",
            shared.peak_bytes,
            m,
            single.peak_bytes
        );
    }

    #[test]
    fn lockstep_learners_share_least() {
        let g = graph(8);
        let lockstep = shared_plan(&g, 3, 0);
        let staggered = shared_plan(&g, 3, g.ops.len());
        assert!(
            staggered.peak_bytes <= lockstep.peak_bytes,
            "more stagger, more sharing"
        );
        // Fully sequential learners need no more peak memory than one.
        let single = offline_plan(&g);
        assert_eq!(staggered.peak_bytes, single.peak_bytes);
    }

    #[test]
    fn mlp_graph_plans_too() {
        let g = OpGraph::from_network(&mlp(10, &[32, 16], 4), 4);
        let plan = offline_plan(&g);
        assert!(plan.bytes_allocated > 0);
        assert!(plan.savings() >= 0.0);
    }

    #[test]
    fn exec_plan_builds_prewarmed_scratches() {
        let net = resnet_small(3, 16, 10);
        let plan = ExecMemoryPlan::new(&net, 8, 3);
        assert_eq!(plan.learners(), 3);
        assert!(plan.arena_bytes_per_learner() > 0);
        // The stats views are exactly what the free planners report.
        let g = OpGraph::from_network(&net, 8);
        assert_eq!(plan.offline_stats(), &offline_plan(&g));
        let scratches = plan.build_scratches(&net);
        assert_eq!(scratches.len(), 3);
        for s in &scratches {
            assert!(
                s.workspace_stats().bytes_free > 0,
                "lane scratch is pre-warmed"
            );
        }
        let ws = plan.build_workspace();
        assert!(ws.bytes_held() > 0);
    }

    #[test]
    fn exec_plan_arena_tracks_batch_size() {
        let net = resnet_small(3, 16, 10);
        let small = ExecMemoryPlan::new(&net, 4, 1);
        let large = ExecMemoryPlan::new(&net, 8, 1);
        assert!(large.arena_bytes_per_learner() > small.arena_bytes_per_learner());
        assert_eq!(large.net_plan().batch, 8);
    }

    #[test]
    fn savings_of_empty_baseline_is_zero() {
        let p = MemoryPlan {
            buffers_allocated: 0,
            bytes_allocated: 0,
            peak_bytes: 0,
            bytes_without_reuse: 0,
        };
        assert_eq!(p.savings(), 0.0);
    }
}
