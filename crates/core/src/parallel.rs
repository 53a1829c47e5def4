//! The distributed-memory parallel Louvain algorithm (Algorithms 2–5 of
//! the paper).
//!
//! Data layout per rank (Section IV-A):
//!
//! * vertices are 1D-partitioned by `v mod p` ([`ModuloPartition`]);
//! * `In_Table` holds the in-edges of locally owned vertices, keyed
//!   `(src, dst)` — immutable during the inner loop;
//! * `Out_Table` accumulates `w_{u→c}`, keyed `(src, community)` — built
//!   once per level, for GRAPH RECONSTRUCTION (the refine phase reads the
//!   row store below instead);
//! * community `c` (a global id) is owned by rank `c mod p`, which keeps
//!   its `Σ_tot` and member count.
//!
//! Per inner iteration (REFINE, Algorithm 4): gather a `Σ_tot` snapshot,
//! scan every local vertex for its best gain `m_u` (FIND BEST
//! COMMUNITY), derive the move threshold `ΔQ̂` from the ε schedule via a
//! global log-histogram of the gains (Section IV-B), apply the thresholded
//! moves with `Σ_tot` delta messages (UPDATE COMMUNITY INFORMATION),
//! re-propagate state, and fold `Σ_in` to compute the new modularity.
//!
//! The refine phase reads one per-level **row store** (DESIGN.md §10)
//! where the paper's Out-Table would be: each local vertex's in-arcs as
//! CSR of `(source slot, weight)` sorted by source, one *cached
//! community label* per distinct source, and the self-loop weight `a_uu`.
//! The store is built from purely local data at level start (every level
//! starts with identity labels). STATE PROPAGATION then broadcasts only
//! `(vertex, new_community)` pairs for vertices that migrated, and a
//! received pair is one label overwrite. FIND BEST sums `w(u→c)` afresh
//! from the arcs into a dense scratch array indexed by community, in
//! sorted source order, so no incrementally patched weight exists to go
//! stale. An iteration in which no vertex migrates anywhere exchanges
//! zero state-propagation messages. `Σ_in` needs no messages either:
//! `Σ_c Σ_in(c) = Σ_u w(u→label(u))`, which each rank sums over its own
//! rows, so modularity costs one scalar allreduce.
//!
//! GRAPH RECONSTRUCTION (Algorithm 5) compacts surviving community ids,
//! aggregates the rows once into the paper's hash Out-Table keyed
//! `(u, community)`, and turns that into the next level's In-Table with a
//! single all-to-all: entry `((u, c), w)` becomes message
//! `((c'_new, c_new), w)` to the owner of `c_new` — "transforming the
//! graph relabeling problem into an all-to-all communication with
//! hashing".
//!
//! Determinism note: packet arrival order varies between runs, so every
//! floating-point accumulation over received messages is made a function
//! of the message *multiset* — delta batches are sorted before their
//! labels are applied, and the In-Table loading, `Σ_tot` update and
//! reconstruction accumulations buffer and sort their contributions
//! before folding, while reductions fold in rank order. Local sums (the
//! row scans) run in a fixed order. Runs are therefore bit-reproducible
//! for *arbitrary* weights, not just the integer-valued ones the
//! generators emit.

use crate::checkpoint::{Checkpoint, CheckpointStore, LevelSnapshot};
use crate::dq;
use crate::heuristic::EpsilonSchedule;
use crate::result::{LevelInfo, LouvainResult};
use crate::timing::{
    CommBreakdown, InnerIterationTiming, Phase, PhaseTimers, ScanStats, SimBreakdown, Stopwatch,
};
use louvain_graph::edgelist::EdgeList;
use louvain_graph::partition::{
    load_imbalance, AnyPartition, BalancedPartition, PartitionStrategy,
};
use louvain_graph::partition1d::ModuloPartition;
use louvain_hash::{pack_key, unpack_key, EdgeTable};
use louvain_metrics::Partition;
use louvain_runtime::{
    run_with_config_faulted, run_with_config_logged, CollectiveKind, CommStats, Exchange,
    FaultPlan, FaultStats, RankCtx, RunOutcome, RuntimeConfig,
};
use louvain_trace::{Event, RankTrace};
use std::time::Duration;

/// 16-byte POD message: two ids and a weight. The meaning of `(a, b, w)`
/// depends on the phase (edge, state triple, or Σ_tot delta).
#[derive(Clone, Copy, Debug)]
pub struct Msg {
    /// First id (source vertex / community).
    pub a: u32,
    /// Second id (destination vertex / community).
    pub b: u32,
    /// Weight or delta.
    pub w: f64,
}

/// Configuration of the distributed solver.
///
/// The default configuration reproduces the paper's algorithm: every
/// vertex with a positive best gain is a move candidate.
///
/// ```
/// use louvain_core::parallel::ParallelConfig;
///
/// let cfg = ParallelConfig::with_ranks(8);
/// assert_eq!(cfg.min_gain_threshold, 0.0); // every positive gain may move
/// assert!(!cfg.v1_state_rebuild); // delta-compressed state propagation
///
/// // Trade a little quality for fewer sweeps: ignore gains below 1e-6.
/// let coarse = ParallelConfig {
///     min_gain_threshold: 1e-6,
///     ..ParallelConfig::with_ranks(8)
/// };
/// assert!(coarse.min_gain_threshold > cfg.min_gain_threshold);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ParallelConfig {
    /// Simulated ranks (compute nodes).
    pub ranks: usize,
    /// Coalescing capacity of the messaging layer (messages per packet).
    pub coalesce_capacity: usize,
    /// The ε schedule of the convergence heuristic (Equation 7).
    pub schedule: EpsilonSchedule,
    /// When `false`, every positive-gain vertex moves each iteration —
    /// the "parallel without heuristic" ablation of Figure 4.
    pub use_heuristic: bool,
    /// Inner-loop iteration cap per level.
    pub max_inner_iterations: usize,
    /// Maximum hierarchy levels.
    pub max_levels: usize,
    /// Inner loop stops once a full iteration improves Q by less than
    /// this (heuristic mode only; the naive mode must be allowed to
    /// oscillate).
    pub min_improvement: f64,
    /// Outer loop stops once a level improves Q by less than this.
    pub min_level_improvement: f64,
    /// Bins of the global gain histogram used to translate ε into `ΔQ̂`.
    pub histogram_bins: usize,
    /// Inner loop exits once the global move fraction drops below this
    /// (heuristic mode only). The tail iterations move almost nobody but
    /// cost two full state propagations each; the paper's UK-2007 runs
    /// use ~8 inner loops (Figure 8b).
    pub min_move_fraction: f64,
    /// BSP cost model: units per synchronization (see `louvain-runtime`'s
    /// simulated clock).
    pub sync_latency_units: f64,
    /// BSP cost model: units per message sent/delivered.
    pub charge_per_message: f64,
    /// Schedule-perturbation seed forwarded to the runtime (see
    /// [`louvain_runtime::RuntimeConfig::perturb_seed`]): `Some(seed)`
    /// adversarially permutes message delivery order in every exchange
    /// phase. The solver must produce bit-identical output regardless.
    pub perturb_seed: Option<u64>,
    /// When `true`, every rank records the sequence of collectives it
    /// enters; the observed sequences come back in
    /// [`ParallelResult::protocol_logs`] and must be accepted by the
    /// static protocol spec (DESIGN.md §11).
    pub record_protocol: bool,
    /// Testing/ablation knob: when `true`, STATE PROPAGATION falls back
    /// to the v1 full per-arc rebuild (every local vertex announces its
    /// label along every out-arc, every iteration) instead of the
    /// delta-compressed path of DESIGN.md §10. Results are identical;
    /// only the message volume differs. The cost-conformance suite flips
    /// this to prove the volume verifier rejects the regression
    /// (DESIGN.md §12).
    pub v1_state_rebuild: bool,
    /// Minimum modularity gain a vertex must see before it may migrate.
    /// The default `0.0` keeps the paper's semantics (`m_u > 0` moves).
    /// A positive threshold prunes near-zero-gain churn, trading a
    /// bounded amount of modularity (at most `threshold` per suppressed
    /// move) for fewer moves and deltas. Gains below the threshold still
    /// enter the ε-histogram — the knob composes with, and is applied
    /// after, the Equation-7 schedule.
    pub min_gain_threshold: f64,
    /// Checkpoint cadence: snapshot every rank's solver state at every
    /// `checkpoint_every_level`-th level boundary (DESIGN.md §14).
    /// `0` (the default) disables checkpointing entirely — no extra
    /// barrier, no trace events, byte-identical behavior to a build
    /// without the subsystem.
    pub checkpoint_every_level: usize,
    /// Deterministic fault plan forwarded to the runtime (DESIGN.md §14):
    /// seeded transport faults (masked — results must not change) and
    /// scheduled rank crashes keyed on the simulated clock. On a crash
    /// the driver rewinds every rank to the last checkpoint, disarms the
    /// fired crash, and re-executes; [`ParallelResult::recovery_replays`]
    /// counts the restarts. `None` (the default) takes exactly the
    /// fault-free code path.
    pub fault_plan: Option<FaultPlan>,
    /// Vertex-ownership strategy (DESIGN.md §15). The default
    /// [`PartitionStrategy::Modulo`] is the paper's 1D modulo
    /// decomposition and adds **zero** collectives — results are
    /// bit-identical to a build without the pluggable-partition layer.
    /// [`PartitionStrategy::ArcBalanced`] equalizes per-rank arc load
    /// with a greedy LPT assignment built from one allreduced load
    /// vector, and repartitions the coarsened super-graph by
    /// super-vertex arc weight at every level boundary (the
    /// repartitioning rides the reconstruction all-to-all — no extra
    /// data exchange). Either strategy is fully deterministic
    /// (bit-identical across runs and perturb seeds), but the two may
    /// legitimately disagree with each other: the UPDATE sweep's
    /// Gauss-Seidel move ordering follows ownership, so a different
    /// partition is a different (equally valid) sequentialization.
    pub partition: PartitionStrategy,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            ranks: 4,
            coalesce_capacity: 1024,
            schedule: EpsilonSchedule::default(),
            use_heuristic: true,
            max_inner_iterations: 32,
            max_levels: 16,
            min_improvement: 1e-7,
            min_level_improvement: 1e-7,
            histogram_bins: 64,
            min_move_fraction: 5e-3,
            sync_latency_units: 5000.0,
            charge_per_message: 1.0,
            perturb_seed: None,
            record_protocol: false,
            v1_state_rebuild: false,
            min_gain_threshold: 0.0,
            checkpoint_every_level: 0,
            fault_plan: None,
            partition: PartitionStrategy::default(),
        }
    }
}

impl ParallelConfig {
    /// Default configuration on `ranks` ranks.
    #[must_use]
    pub fn with_ranks(ranks: usize) -> Self {
        Self {
            ranks,
            ..Self::default()
        }
    }
}

/// Output of the distributed solver: the hierarchy result plus timing and
/// communication measurements.
#[derive(Clone, Debug)]
pub struct ParallelResult {
    /// Hierarchy result (levels, partitions, final modularity).
    pub result: LouvainResult,
    /// Per-phase times, critical path (max) across ranks.
    pub timers: PhaseTimers,
    /// Per-inner-iteration breakdown of the first level (rank 0) —
    /// Figure 8b.
    pub inner_timings: Vec<InnerIterationTiming>,
    /// Wall time of the whole run.
    pub total_time: Duration,
    /// Wall time of the first level (used for TEPS, Section V-E).
    pub first_level_time: Duration,
    /// Communication counters.
    pub comm: CommStats,
    /// Undirected input edges.
    pub input_edges: usize,
    /// BSP-simulated time of the whole run, in work units (see
    /// `louvain-runtime`'s simulated clock; used for the scaling studies
    /// because wall clock cannot show speedup when simulated ranks
    /// timeshare fewer physical cores).
    pub sim_total_units: f64,
    /// BSP-simulated time of the first level, in work units.
    pub sim_first_level_units: f64,
    /// Remote messages per algorithm phase, summed across ranks.
    pub comm_breakdown: CommBreakdown,
    /// Per-phase simulated-clock deltas (Fig. 8 under the cost model).
    /// Identical on every rank; folded with an element-wise max. The sum
    /// is slightly below [`ParallelResult::sim_total_units`] because the
    /// driver's bookkeeping syncs (initial 2m reduction, first-level and
    /// final clock reads) belong to no phase.
    pub sim_breakdown: SimBreakdown,
    /// BSP synchronization points per rank (identical on every rank by
    /// the collective-ordering invariant; rank 0's count is reported).
    pub syncs: u64,
    /// Payload bytes pushed into remote packets, summed across ranks.
    pub bytes_sent: u64,
    /// Per-rank event traces, in rank order. Empty unless the `trace`
    /// feature (on by default) enabled `louvain-trace/record`. Traces are
    /// keyed on the simulated clock and are bit-identical across runs and
    /// across `perturb_seed`s.
    pub traces: Vec<RankTrace>,
    /// Row-store rebuilds forced by graph reconstruction, summed across
    /// ranks (the level-0 build is a construction, not an invalidation).
    /// See DESIGN.md §10.
    pub cache_invalidations: u64,
    /// Per-rank observed collective sequences, in rank order. Empty
    /// unless [`ParallelConfig::record_protocol`] was set. All ranks
    /// record the identical sequence (the runtime's shadow checker
    /// enforces lockstep), and the sequence must be accepted by the
    /// static protocol spec of DESIGN.md §11.
    pub protocol_logs: Vec<Vec<CollectiveKind>>,
    /// FIND BEST scan counters, summed across ranks, levels and inner
    /// iterations. The field keeps the name of the frontier scheduler
    /// these counters used to measure (DESIGN.md §13).
    pub frontier: ScanStats,
    /// How many times the driver restarted the world from the last
    /// checkpoint after a scheduled rank crash (DESIGN.md §14). Always 0
    /// without a [`ParallelConfig::fault_plan`].
    pub recovery_replays: u64,
    /// Per-rank checkpoints written across all attempts (0 when
    /// [`ParallelConfig::checkpoint_every_level`] is 0).
    pub checkpoints_taken: u64,
    /// Total rendered bytes of all checkpoints written (cumulative).
    pub checkpoint_bytes: u64,
    /// Simulated clock at each completed level boundary of the final
    /// (successful) attempt, in work units — the aiming grid for crash
    /// injection: a crash scheduled just past `level_boundary_clocks[i]`
    /// fires in level `i + 1`. Identical on every rank; rank 0's reading.
    pub level_boundary_clocks: Vec<f64>,
    /// Fault-injection counters summed over every attempt (all zero
    /// without a fault plan).
    pub faults: FaultStats,
    /// Per-rank per-phase **charged work** in simulated units, in rank
    /// order (DESIGN.md §15). Unlike [`ParallelResult::sim_breakdown`]
    /// — which is the globally synchronized clock, identical on every
    /// rank because each superstep advances by the max over ranks —
    /// these are each rank's *own* charges, so per-phase load skew is
    /// directly readable: `max_r(work[r].find_best)` is the straggler
    /// term the arc-balanced partition exists to shrink.
    pub per_rank_work_breakdown: Vec<SimBreakdown>,
    /// Per-rank arc load, in rank order: local In-Table entries summed
    /// over the levels each rank processed. This is the find-best scan
    /// and state-propagation volume a rank owns, i.e. the quantity the
    /// partition strategy balances.
    pub arc_loads: Vec<u64>,
    /// Max-over-mean skew of [`ParallelResult::arc_loads`]: `1.0` is
    /// perfectly balanced, `ranks` is everything-on-one-rank. The BSP
    /// clock advances by per-superstep maxima, so this ratio is a
    /// direct proxy for simulated time lost to partition skew.
    pub imbalance: f64,
}

impl ParallelResult {
    /// Traversed edges per second: input edges / first-level time
    /// (the paper's Figure 9 metric), measured on the wall clock.
    #[must_use]
    pub fn teps(&self) -> f64 {
        let t = self.first_level_time.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.input_edges as f64 / t
        }
    }

    /// TEPS under the BSP cost model: input edges per simulated second,
    /// with one work unit costing `ns_per_unit` nanoseconds. The unit is
    /// not calibrated: divide a run's wall time by its
    /// [`ParallelResult::sim_total_units`] on the host at hand (perfbench
    /// reports this as `parallel.r1.ns_per_unit`) rather than assuming a
    /// constant.
    #[must_use]
    pub fn teps_simulated(&self, ns_per_unit: f64) -> f64 {
        let t = self.sim_first_level_units * ns_per_unit * 1e-9;
        if t <= 0.0 {
            0.0
        } else {
            self.input_edges as f64 / t
        }
    }

    /// Whole-run simulated time at `ns_per_unit` nanoseconds per unit.
    #[must_use]
    pub fn simulated_time(&self, ns_per_unit: f64) -> Duration {
        Duration::from_secs_f64(self.sim_total_units * ns_per_unit * 1e-9)
    }
}

/// The distributed-memory parallel Louvain solver.
///
/// ```
/// use louvain_core::parallel::{ParallelConfig, ParallelLouvain};
/// use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
///
/// let (edges, _truth) = generate_planted(
///     &PlantedConfig { communities: 4, community_size: 25, p_in: 0.4, p_out: 0.01 },
///     7,
/// );
/// let r = ParallelLouvain::new(ParallelConfig::with_ranks(3)).run(&edges);
/// assert_eq!(r.result.final_partition.num_communities(), 4);
/// assert!(r.result.final_modularity > 0.5);
/// assert!(r.comm.messages > 0); // it really communicated
/// ```
#[derive(Clone, Debug, Default)]
pub struct ParallelLouvain {
    cfg: ParallelConfig,
}

/// Per-rank state of one hierarchy level.
struct RankLevel {
    /// Global vertices at this level.
    n: usize,
    part: AnyPartition,
    /// In-edges of local vertices, keyed `(src, dst)`.
    in_table: EdgeTable,
    /// Weighted degree `k_u` per local vertex.
    k: Vec<f64>,
    /// Community (global id) per local vertex.
    label: Vec<u32>,
    /// `Σ_tot` per *owned community* (local community index).
    tot: Vec<f64>,
    /// Member count per owned community (for the singleton swap guard).
    size: Vec<u32>,
}

/// The per-level row store (DESIGN.md §10): what FIND BEST, UPDATE, STATE
/// PROPAGATION and `Σ_in` read about the neighbourhoods of a rank's local
/// vertices, stored once.
///
/// Each local vertex keeps its in-arcs as a CSR slice of
/// `(source slot, weight)`, sorted by source id. Each distinct source has
/// one slot, holding its *cached* community label; the self-loop weight
/// `a_uu` sits apart. A received `(u, c_new)` delta is one label
/// overwrite, and every `w(u→c)` is a fresh sum over the arcs, in sorted
/// source order, each time it is read.
///
/// The store is derived from the In-Table, which is immutable within a
/// level — so its epoch *is* the level, and GRAPH RECONSTRUCTION (which
/// replaces the In-Table) is the one event that invalidates it.
struct RowStore {
    /// Sorted distinct source vertices (global ids) of the local in-arcs.
    srcs: Vec<u32>,
    /// Cached community of `srcs[i]`, current as of the last applied
    /// delta batch. Identity at level start: every level begins with
    /// singleton communities `c = v`, known without communication.
    labels: Vec<u32>,
    /// CSR offsets into `arcs`, one slice per local vertex.
    offsets: Vec<usize>,
    /// `(source slot, weight)` in-arcs of each local vertex, sorted by
    /// source; self-loops excluded.
    arcs: Vec<(u32, f64)>,
    /// Self-loop weight `a_uu` per local vertex (0.0 without one).
    self_loop: Vec<f64>,
}

impl RowStore {
    /// Builds the store for `lvl`: two passes over the In-Table bucket
    /// the arcs by destination, each vertex's slice is sorted by source,
    /// and a dense mark over the level's vertex ids numbers the distinct
    /// sources in ascending order.
    fn build(lvl: &RankLevel, rank: usize) -> Self {
        let part = &lvl.part;
        let local_n = part.local_count(rank);
        let mut offsets = vec![0usize; local_n + 1];
        for (key, _) in lvl.in_table.iter() {
            let (s, d) = unpack_key(key);
            if s != d {
                offsets[part.local_index(d) + 1] += 1;
            }
        }
        for li in 0..local_n {
            offsets[li + 1] += offsets[li];
        }
        let mut self_loop = vec![0.0f64; local_n];
        let mut cursor = offsets.clone();
        let mut by_src: Vec<(u32, f64)> = vec![(0, 0.0); offsets[local_n]];
        for (key, w) in lvl.in_table.iter() {
            let (s, d) = unpack_key(key);
            let li = part.local_index(d);
            if s == d {
                self_loop[li] = w;
            } else {
                by_src[cursor[li]] = (s, w);
                cursor[li] += 1;
            }
        }
        // Keys are distinct `(s, d)` pairs, so each slice's order is total.
        for li in 0..local_n {
            by_src[offsets[li]..offsets[li + 1]].sort_unstable_by_key(|&(s, _)| s);
        }
        let mut slot_of = vec![u32::MAX; lvl.n];
        for &(s, _) in &by_src {
            slot_of[s as usize] = 0;
        }
        let mut srcs: Vec<u32> = Vec::new();
        for (v, slot) in slot_of.iter_mut().enumerate() {
            if *slot != u32::MAX {
                *slot = srcs.len() as u32;
                srcs.push(v as u32);
            }
        }
        let arcs = by_src
            .iter()
            .map(|&(s, w)| (slot_of[s as usize], w))
            .collect();
        Self {
            labels: srcs.clone(),
            srcs,
            offsets,
            arcs,
            self_loop,
        }
    }

    /// The in-arcs of local vertex `li`.
    fn arcs_of(&self, li: usize) -> &[(u32, f64)] {
        &self.arcs[self.offsets[li]..self.offsets[li + 1]]
    }

    /// Global id of the source in `slot`.
    fn source(&self, slot: u32) -> u32 {
        self.srcs[slot as usize]
    }

    /// `w(u→c)` for local vertex `li` under the cached labels, self-loop
    /// excluded.
    fn weight_to(&self, li: usize, c: u32) -> f64 {
        let mut w = 0.0;
        for &(slot, x) in self.arcs_of(li) {
            if self.labels[slot as usize] == c {
                w += x;
            }
        }
        w
    }

    /// Applies a batch of received `(vertex, new_community)` deltas: one
    /// cached-label overwrite each. The batch is sorted first, so the
    /// labels are a function of the *set* of migrations — independent of
    /// message delivery order, which the perturbation harness scrambles.
    /// (Each vertex migrates at most once per sweep and only its owner
    /// announces it.) Returns the number of labels written.
    fn apply_deltas(&mut self, deltas: &mut [(u32, u32)]) -> usize {
        deltas.sort_unstable();
        let mut written = 0;
        for &(u, c_new) in deltas.iter() {
            // Only owners of neighbours of `u` receive its delta, so the
            // lookup always hits; guard anyway rather than unwrap (P1).
            if let Ok(slot) = self.srcs.binary_search(&u) {
                self.labels[slot] = c_new;
                written += 1;
            }
        }
        written
    }

    /// The paper's hash Out-Table under the cached labels: row `(u, c)`
    /// holds `w(u→c)`, the self-loop included in `u`'s own row. Built once
    /// per level, for GRAPH RECONSTRUCTION; arcs fold in sorted order, so
    /// the row weights are a function of the arc multiset.
    fn out_table(&self, lvl: &RankLevel, rank: usize) -> EdgeTable {
        let mut out_table = EdgeTable::new(self.arcs.len().max(8));
        for (li, &c_u) in lvl.label.iter().enumerate() {
            let u = lvl.part.global(rank, li);
            for &(slot, w) in self.arcs_of(li) {
                out_table.accumulate(pack_key(u, self.labels[slot as usize]), w);
            }
            let a_uu = self.self_loop[li];
            #[allow(clippy::float_cmp)]
            // lint: allow(F1) — 0.0 is the row store's "no self-loop" marker
            if a_uu != 0.0 {
                out_table.accumulate(pack_key(u, c_u), a_uu);
            }
        }
        out_table
    }
}

/// Dense FIND BEST scratch (DESIGN.md §10): `w(u→c)` summed by community
/// id, with the touched ids listed so a reset costs only what one scan
/// wrote.
struct Scratch {
    weight: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<u32>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self {
            weight: vec![0.0; n],
            seen: vec![false; n],
            touched: Vec::new(),
        }
    }

    /// Sums the in-arcs of local vertex `li` by cached source label, in
    /// sorted source order.
    fn load(&mut self, rows: &RowStore, li: usize) {
        for &(slot, w) in rows.arcs_of(li) {
            let c = rows.labels[slot as usize];
            if !self.seen[c as usize] {
                self.seen[c as usize] = true;
                self.touched.push(c);
            }
            self.weight[c as usize] += w;
        }
    }

    /// `w(u→c)` of the loaded vertex (0.0 for an untouched community).
    fn get(&self, c: u32) -> f64 {
        self.weight[c as usize]
    }

    /// Resets what the last [`Scratch::load`] wrote.
    fn clear(&mut self) {
        for &c in &self.touched {
            self.weight[c as usize] = 0.0;
            self.seen[c as usize] = false;
        }
        self.touched.clear();
    }
}

/// What each rank reports back to the driver.
struct RankOutput {
    /// Final community (dense id) of each originally-local vertex.
    orig_comm: Vec<u32>,
    /// This rank's level-0 vertices in local-index order — the domain of
    /// [`RankOutput::orig_comm`]. Reported because the driver cannot
    /// re-derive a balanced level-0 partition (it never sees the loads).
    orig_vertices: Vec<u32>,
    levels: Vec<LevelInfo>,
    /// Partitions of original local vertices after each level.
    level_orig_comms: Vec<Vec<u32>>,
    timers: PhaseTimers,
    inner_timings: Vec<InnerIterationTiming>,
    first_level_time: Duration,
    sim_first_level_units: f64,
    sim_total_units: f64,
    /// This rank's share of the input edge count (for TEPS).
    input_edges: usize,
    comm_breakdown: CommBreakdown,
    sim_breakdown: SimBreakdown,
    syncs: u64,
    bytes_sent: u64,
    /// Row stores discarded because reconstruction replaced the In-Table
    /// they were built from.
    cache_invalidations: u64,
    /// Simulated clock at each completed level boundary (identical on
    /// every rank; only levels executed by this attempt — a resumed
    /// attempt reports boundaries from its restart point on).
    level_boundary_clocks: Vec<f64>,
    /// This rank's own per-phase charged work (DESIGN.md §15) — unlike
    /// [`RankOutput::sim_breakdown`], not synchronized over ranks, so
    /// per-phase skew is readable.
    work_breakdown: SimBreakdown,
    /// Local In-Table entries summed over the levels this attempt
    /// processed: the per-rank arc load the partition strategy balances.
    arc_load: u64,
    trace: Option<RankTrace>,
}

/// How the input graph reaches the ranks.
enum RunInput<'a> {
    /// Every rank scans the same shared edge list and keeps its share —
    /// the analog of a parallel read of a replicated file.
    Replicated(&'a EdgeList),
    /// Rank `r` contributes `f(r)`, an arbitrary disjoint slice of the
    /// global edge stream (a generator chunk or file shard); arcs are
    /// routed to their owners through the runtime. Duplicate edges
    /// accumulate as weight, so raw generator streams are accepted.
    Parts {
        num_vertices: usize,
        f: &'a (dyn Fn(usize) -> EdgeList + Sync),
    },
}

impl ParallelLouvain {
    /// Creates a solver with the given configuration.
    #[must_use]
    pub fn new(cfg: ParallelConfig) -> Self {
        assert!(cfg.ranks >= 1);
        assert!(cfg.histogram_bins >= 2);
        Self { cfg }
    }

    /// Runs the distributed algorithm on `edges` and assembles the global
    /// result.
    #[must_use]
    pub fn run(&self, edges: &EdgeList) -> ParallelResult {
        self.run_input(RunInput::Replicated(edges), edges.num_vertices())
    }

    /// Distributed loading: rank `r` ingests `parts(r)` (e.g. an R-MAT
    /// generator chunk) and the arcs are routed to their owning ranks
    /// through the messaging layer — no rank ever holds the whole graph.
    /// This is how the paper's weak-scaling runs ingest their per-node
    /// generator output.
    #[must_use]
    pub fn run_from_parts<F>(&self, num_vertices: usize, parts: F) -> ParallelResult
    where
        F: Fn(usize) -> EdgeList + Sync,
    {
        self.run_input(
            RunInput::Parts {
                num_vertices,
                f: &parts,
            },
            num_vertices,
        )
    }

    fn run_input(&self, input: RunInput<'_>, n: usize) -> ParallelResult {
        let cfg = self.cfg.clone();
        let t0 = Stopwatch::start();
        let input = &input;
        let rt_cfg = RuntimeConfig {
            coalesce_capacity: cfg.coalesce_capacity,
            sync_latency_units: cfg.sync_latency_units,
            charge_per_message: cfg.charge_per_message,
            perturb_seed: cfg.perturb_seed,
            record_protocol: cfg.record_protocol,
            ..RuntimeConfig::new(cfg.ranks)
        };
        let store = CheckpointStore::new(cfg.ranks);
        let store = &store;
        let mut recovery_replays = 0u64;
        let mut faults = FaultStats::default();
        let (mut rank_outputs, comm, protocol_logs) = match cfg.fault_plan.clone() {
            // No fault plan: exactly the fault-free code path (the
            // checkpoint hooks still run if the cadence knob is set).
            None => run_with_config_logged::<Msg, RankOutput, _>(rt_cfg, |ctx| {
                rank_main(ctx, input, &cfg, store)
            }),
            // Chaos path: run until the plan is exhausted. Each crash is
            // disarmed after it fires (the machine "comes back"), and the
            // next attempt resumes every rank from its checkpoint slot —
            // or from scratch if no checkpoint was taken yet.
            Some(mut plan) => loop {
                let outcome = run_with_config_faulted::<Msg, RankOutput, _>(rt_cfg, &plan, |ctx| {
                    rank_main(ctx, input, &cfg, store)
                });
                match outcome {
                    RunOutcome::Completed {
                        results,
                        stats,
                        logs,
                        faults: attempt,
                    } => {
                        faults = faults.sum(&attempt);
                        break (results, stats, logs);
                    }
                    RunOutcome::Crashed {
                        rank,
                        at_clock,
                        faults: attempt,
                    } => {
                        faults = faults.sum(&attempt);
                        recovery_replays += 1;
                        plan.disarm_crash(rank, at_clock);
                    }
                }
            },
        };
        let total_time = t0.elapsed();

        // Assemble the global partition from per-rank original labels.
        // Each rank reports its own level-0 vertex set (`orig_vertices`)
        // rather than the driver re-deriving it: under the arc-balanced
        // strategy the level-0 ownership is a function of the allreduced
        // load vector, which only the ranks ever see.
        let assemble = |selector: &dyn Fn(&RankOutput) -> &[u32]| -> Partition {
            let mut raw = vec![0u32; n];
            for out in rank_outputs.iter() {
                for (i, &v) in out.orig_vertices.iter().enumerate() {
                    raw[v as usize] = selector(out)[i];
                }
            }
            Partition::from_labels(&raw)
        };
        let num_level_parts = rank_outputs[0].level_orig_comms.len();
        let level_partitions: Vec<Partition> = (0..num_level_parts)
            .map(|l| assemble(&|o| &o.level_orig_comms[l]))
            .collect();

        let levels = rank_outputs[0].levels.clone();
        // Unlike the sequential algorithm, stale-state moves can make a
        // later level slightly worse; report the best level as the final
        // answer (the paper prints C and Q per outer loop).
        let best_level = levels
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.modularity.total_cmp(&b.1.modularity))
            .map(|(i, _)| i);
        let final_modularity = best_level.map_or(0.0, |i| levels[i].modularity);
        let timers = rank_outputs
            .iter()
            .skip(1)
            .fold(rank_outputs[0].timers.clone(), |acc, r| acc.max(&r.timers));
        let first_level_time = rank_outputs
            .iter()
            .map(|r| r.first_level_time)
            .max()
            .unwrap_or_default();
        let final_partition = best_level
            .and_then(|i| level_partitions.get(i).cloned())
            .unwrap_or_else(|| assemble(&|o| &o.orig_comm));
        let inner_timings = std::mem::take(&mut rank_outputs[0].inner_timings);
        let sim_total_units = rank_outputs[0].sim_total_units;
        let sim_first_level_units = rank_outputs[0].sim_first_level_units;
        let comm_breakdown = rank_outputs
            .iter()
            .fold(CommBreakdown::default(), |acc, r| {
                acc.sum(&r.comm_breakdown)
            });
        let sim_breakdown = rank_outputs
            .iter()
            .fold(SimBreakdown::default(), |acc, r| acc.max(&r.sim_breakdown));
        let syncs = rank_outputs[0].syncs;
        let bytes_sent = rank_outputs.iter().map(|r| r.bytes_sent).sum();
        let cache_invalidations = rank_outputs.iter().map(|r| r.cache_invalidations).sum();
        // FIND BEST is the full scan: every vertex of a level once per
        // inner iteration, so the count follows from the hierarchy.
        let frontier = ScanStats {
            active_vertices: levels
                .iter()
                .map(|l| (l.num_vertices * l.inner_iterations) as u64)
                .sum(),
            skipped_scans: 0,
        };
        let traces: Vec<RankTrace> = rank_outputs
            .iter_mut()
            .filter_map(|r| r.trace.take())
            .collect();
        // Partition-skew observability (DESIGN.md §15): per-rank arc
        // loads and own-charge breakdowns, in rank order, plus the
        // max/mean skew the BSP clock actually pays for.
        let per_rank_work_breakdown: Vec<SimBreakdown> =
            rank_outputs.iter().map(|r| r.work_breakdown).collect();
        let arc_loads: Vec<u64> = rank_outputs.iter().map(|r| r.arc_load).collect();
        let arc_loads_f64: Vec<f64> = arc_loads.iter().map(|&x| x as f64).collect();
        let imbalance = load_imbalance(&arc_loads_f64);

        ParallelResult {
            result: LouvainResult {
                levels,
                level_partitions,
                final_partition,
                final_modularity,
            },
            timers,
            inner_timings,
            total_time,
            first_level_time,
            comm,
            input_edges: rank_outputs.iter().map(|r| r.input_edges).sum(),
            sim_total_units,
            sim_first_level_units,
            comm_breakdown,
            sim_breakdown,
            syncs,
            bytes_sent,
            cache_invalidations,
            traces,
            protocol_logs,
            frontier,
            recovery_replays,
            checkpoints_taken: store.total_taken(),
            checkpoint_bytes: store.total_bytes(),
            level_boundary_clocks: rank_outputs[0].level_boundary_clocks.clone(),
            faults,
            per_rank_work_breakdown,
            arc_loads,
            imbalance,
        }
    }
}

/// Everything the level loop of [`rank_main`] carries across levels —
/// the unit of state a checkpoint persists and a restore reconstructs.
struct LoopState {
    lvl: RankLevel,
    /// This rank's share of the input edge count.
    input_edges: usize,
    /// The global weight sum `s = 2m` (invariant across levels).
    s: f64,
    /// Level index the loop starts at (0 fresh, checkpointed otherwise).
    start_level: usize,
    orig_comm: Vec<u32>,
    /// Level-0 local vertices of this rank (the domain of `orig_comm`);
    /// persisted in checkpoints because a restore may not communicate
    /// and a balanced level-0 partition is not re-derivable offline.
    orig_vertices: Vec<u32>,
    levels: Vec<LevelInfo>,
    level_orig_comms: Vec<Vec<u32>>,
    q_prev_level: f64,
    cache_invalidations: u64,
}

/// The per-rank driver: Algorithm 2.
fn rank_main(
    ctx: &mut RankCtx<'_, Msg>,
    input: &RunInput<'_>,
    cfg: &ParallelConfig,
    store: &CheckpointStore,
) -> RankOutput {
    // Each rank is one OS thread: install this rank's trace buffer here
    // and drain it just before returning. Every emission below is keyed
    // on the simulated clock, never wall time.
    louvain_trace::install(ctx.rank());
    let mut timers = PhaseTimers::new();
    let mut inner_timings: Vec<InnerIterationTiming> = Vec::new();
    let mut comm = CommBreakdown::default();
    let mut sim = SimBreakdown::default();
    // Restart path (DESIGN.md §14): if a checkpoint exists, rebuild the
    // loop state from it — no loading, no 2m reduction; the restored
    // protocol-log prefix stands in for the skipped collectives. A fresh
    // world (or checkpointing off) takes the loading path.
    let st = match take_resume_state(store, cfg, ctx) {
        Some(st) => st,
        None => fresh_rank_state(ctx, input, cfg, &mut comm, &mut sim),
    };
    let LoopState {
        mut lvl,
        input_edges,
        s,
        start_level,
        mut orig_comm,
        orig_vertices,
        mut levels,
        mut level_orig_comms,
        mut q_prev_level,
        mut cache_invalidations,
    } = st;
    let mut first_level_time = Duration::ZERO;
    let mut sim_first_level_units = 0.0f64;
    let mut level_boundary_clocks: Vec<f64> = Vec::new();
    let mut checkpoints_written = 0u64;
    let mut checkpoint_bytes_written = 0u64;
    // Per-phase own-charge breakdown (DESIGN.md §15): unlike `sim`,
    // which reads the synchronized clock, `work` reads this rank's own
    // charge ledger — the loading superstep's share is everything
    // charged so far (zero on the restore path, which skips loading).
    let mut work = SimBreakdown {
        loading: ctx.charged_units(),
        ..SimBreakdown::default()
    };
    let mut arc_load = 0u64;
    let mut repartitions = 0u64;

    for level_idx in start_level..cfg.max_levels {
        // The rank's share of this level's arcs — the quantity the
        // partition strategy balances (the find-best scan and both
        // propagation directions are linear in it).
        arc_load += lvl.in_table.len() as u64;
        let level_start = Stopwatch::start();
        let record_inner = level_idx == 0;
        // The row store is derived from the In-Table, which is immutable
        // within a level — its epoch IS the level. Graph reconstruction
        // replaced the In-Table, so every level after the first begins by
        // discarding the stale store (DESIGN.md §10).
        if level_idx > 0 {
            cache_invalidations += 1;
        }
        // --- REFINE (Algorithm 4) ---
        louvain_trace::emit_with(|| Event::Enter {
            phase: "refine",
            clock: ctx.sim_clock_units(),
        });
        let refine_start = Stopwatch::start();
        let Refined {
            rows,
            q,
            iterations,
            fractions,
            q_trace,
        } = refine(
            ctx,
            &mut lvl,
            s,
            cfg,
            &mut timers,
            &mut comm,
            &mut sim,
            &mut work,
            if record_inner {
                Some(&mut inner_timings)
            } else {
                None
            },
        );
        timers.add(Phase::Refine, refine_start.elapsed());
        louvain_trace::emit_with(|| Event::Exit {
            phase: "refine",
            clock: ctx.sim_clock_units(),
        });

        // --- GRAPH RECONSTRUCTION (Algorithm 5) ---
        louvain_trace::emit_with(|| Event::Enter {
            phase: "reconstruction",
            clock: ctx.sim_clock_units(),
        });
        let recon_start = Stopwatch::start();
        let sent_before = ctx.sent_messages();
        let sim_before = ctx.sim_clock_units();
        let work_before = ctx.charged_units();
        let (next, n_next) = reconstruct(ctx, &lvl, rows, &mut orig_comm, cfg);
        comm.reconstruction += ctx.sent_messages() - sent_before;
        sim.reconstruction += ctx.sim_clock_units() - sim_before;
        work.reconstruction += ctx.charged_units() - work_before;
        timers.add(Phase::Reconstruction, recon_start.elapsed());
        louvain_trace::emit_with(|| Event::Exit {
            phase: "reconstruction",
            clock: ctx.sim_clock_units(),
        });
        if level_idx == 0 {
            first_level_time = level_start.elapsed();
            sim_first_level_units = ctx.sim_time_units();
        }

        levels.push(LevelInfo {
            num_vertices: lvl.n,
            num_communities: n_next,
            modularity: q,
            inner_iterations: iterations,
            move_fractions: fractions,
            q_trace,
        });
        level_orig_comms.push(orig_comm.to_vec());

        let no_reduction = n_next == lvl.n;
        let improved = q - q_prev_level > cfg.min_level_improvement;
        q_prev_level = q;
        lvl = next;
        if matches!(lvl.part, AnyPartition::Balanced(_)) {
            repartitions += 1;
        }
        // Every collective above completed, so this read is identical on
        // all ranks — the aiming grid for deterministic crash injection.
        level_boundary_clocks.push(ctx.sim_clock_units());
        if no_reduction || !improved {
            break;
        }
        if checkpoint_due(cfg, level_idx) {
            // The barrier makes the store update atomic with respect to
            // scheduled crashes: a rank can only die at a sim_sync, so a
            // pre-barrier crash unwinds everyone *at* this barrier
            // (before any slot is written), and once the barrier
            // completes there is no sync before the writes — every rank
            // writes level `level_idx + 1`, or none does. Checkpoint
            // serialization happens outside every traced phase region
            // (lint rule X1): it is bookkeeping, not algorithm work, and
            // must not distort the per-phase clock attribution.
            ctx.barrier();
            let bytes = write_level_checkpoint(
                store,
                ctx,
                cfg,
                level_idx + 1,
                &lvl,
                input_edges,
                s,
                &orig_comm,
                &levels,
                &level_orig_comms,
                q_prev_level,
                cache_invalidations,
                &orig_vertices,
            );
            checkpoints_written += 1;
            checkpoint_bytes_written += bytes;
        }
    }

    let sim_total_units = ctx.sim_time_units();
    // Final counter samples, then drain the buffer. All three values are
    // rank-local program-order quantities, so the trace stays
    // schedule-invariant.
    louvain_trace::emit_with(|| Event::Count {
        name: "runtime.syncs",
        value: ctx.sync_count(),
    });
    louvain_trace::emit_with(|| Event::Count {
        name: "runtime.bytes_sent",
        value: ctx.bytes_sent(),
    });
    louvain_trace::emit_with(|| Event::Count {
        name: "runtime.messages_sent",
        value: ctx.sent_messages(),
    });
    // Delta-mode counters (all rank-local program-order quantities;
    // dedup_hits is a per-phase multiset property, so none of these can
    // vary with the perturbed delivery schedule).
    louvain_trace::emit_with(|| Event::Count {
        name: "delta.state_propagation_messages",
        value: comm.state_propagation,
    });
    louvain_trace::emit_with(|| Event::Count {
        name: "delta.cache_invalidations",
        value: cache_invalidations,
    });
    louvain_trace::emit_with(|| Event::Count {
        name: "runtime.dedup_hits",
        value: ctx.dedup_hits(),
    });
    // Partitioning observables (DESIGN.md §15): this rank's share of
    // the arc load the partition strategy balances and its level-0
    // vertex count — both rank-local program-order tallies, so the §9
    // trace contract holds under any partition. The repartition counter
    // is gated on the arc-balanced strategy, mirroring the chaos gating
    // below: the default modulo trace carries no counter for a
    // mechanism that never ran.
    louvain_trace::emit_with(|| Event::Count {
        name: "partition.arc_load",
        value: arc_load,
    });
    louvain_trace::emit_with(|| Event::Count {
        name: "partition.local_vertices",
        value: orig_comm.len() as u64,
    });
    if matches!(cfg.partition, PartitionStrategy::ArcBalanced) {
        louvain_trace::emit_with(|| Event::Count {
            name: "partition.repartitions",
            value: repartitions,
        });
    }
    // Chaos observables (DESIGN.md §14), gated so a default-config run's
    // trace stays byte-identical to a build without the subsystem:
    // checkpoint counters only when a cadence is set, fault counters
    // only when a plan is injecting. All are rank-local program-order
    // tallies of deterministic decisions, so the §9 trace contract
    // holds.
    if cfg.checkpoint_every_level > 0 {
        louvain_trace::emit_with(|| Event::Count {
            name: "checkpoint.count",
            value: checkpoints_written,
        });
        louvain_trace::emit_with(|| Event::Count {
            name: "checkpoint.bytes",
            value: checkpoint_bytes_written,
        });
    }
    if ctx.fault_injection_active() {
        let f = ctx.fault_counters();
        louvain_trace::emit_with(|| Event::Count {
            name: "fault.packets_dropped",
            value: f.packets_dropped,
        });
        louvain_trace::emit_with(|| Event::Count {
            name: "fault.packets_duplicated",
            value: f.packets_duplicated,
        });
        louvain_trace::emit_with(|| Event::Count {
            name: "fault.packets_delayed",
            value: f.packets_delayed,
        });
    }
    RankOutput {
        orig_comm,
        orig_vertices,
        levels,
        level_orig_comms,
        timers,
        inner_timings,
        first_level_time,
        sim_first_level_units,
        sim_total_units,
        input_edges,
        comm_breakdown: comm,
        sim_breakdown: sim,
        syncs: ctx.sync_count(),
        bytes_sent: ctx.bytes_sent(),
        cache_invalidations,
        level_boundary_clocks,
        work_breakdown: work,
        arc_load,
        trace: louvain_trace::take(),
    }
}

/// Whether the boundary at the end of `level_idx` is a checkpoint point.
fn checkpoint_due(cfg: &ParallelConfig, level_idx: usize) -> bool {
    cfg.checkpoint_every_level > 0 && (level_idx + 1).is_multiple_of(cfg.checkpoint_every_level)
}

/// The fresh-start half of [`rank_main`]'s initialization: distribute
/// the input, reduce `2m`, and start the hierarchy at level 0. This is
/// the loading superstep of Algorithm 2, untouched — restore runs skip
/// it wholesale.
fn fresh_rank_state(
    ctx: &mut RankCtx<'_, Msg>,
    input: &RunInput<'_>,
    cfg: &ParallelConfig,
    comm: &mut CommBreakdown,
    sim: &mut SimBreakdown,
) -> LoopState {
    let sent0 = ctx.sent_messages();
    let (lvl, input_edges) = match input {
        RunInput::Replicated(edges) => {
            let lvl = build_initial_level(ctx, edges, cfg);
            // Attribute the shared input evenly so the sum is exact.
            let rank = ctx.rank();
            let m = edges.num_edges();
            let share = m / cfg.ranks + usize::from(rank < m % cfg.ranks);
            (lvl, share)
        }
        RunInput::Parts { num_vertices, f } => {
            let part = f(ctx.rank());
            let m = part.num_edges();
            (
                build_initial_level_distributed(ctx, *num_vertices, &part, cfg),
                m,
            )
        }
    };
    comm.loading = ctx.sent_messages() - sent0;
    // 2m is invariant across levels (reconstruction preserves weight).
    let s = ctx.allreduce_sum(lvl.k.iter().sum());
    // Everything up to here (edge distribution + the 2m reduction) is the
    // loading superstep; the clock only moves at collectives, so this
    // read is identical on every rank.
    sim.loading = ctx.sim_clock_units();
    // Current community of each originally-local vertex, expressed as a
    // vertex id of the *current* level. At level 0 that is the identity:
    // the vertex set itself, which also becomes the permanent domain
    // (`orig_vertices`) the driver scatters final labels with.
    let orig_comm: Vec<u32> = lvl.part.local_vertices(ctx.rank()).collect();
    let orig_vertices = orig_comm.clone();
    LoopState {
        lvl,
        input_edges,
        s,
        start_level: 0,
        orig_comm,
        orig_vertices,
        levels: Vec::new(),
        level_orig_comms: Vec::new(),
        q_prev_level: f64::NEG_INFINITY,
        cache_invalidations: 0,
    }
}

/// The restart half of [`rank_main`]'s initialization: if this rank has
/// a checkpoint slot (and checkpointing is on), rebuild the loop state
/// from it — bit-for-bit — and seed the recorded protocol log with the
/// checkpointed prefix so the spliced log reads exactly like an
/// uninterrupted run's. Contains no collectives: a restored world goes
/// straight to the resumed level's first collective, in lockstep.
///
/// The In-Table is rebuilt by accumulating the persisted `(key, weight)`
/// multiset in sorted key order. Its slot layout and capacity may differ
/// from the original table's, but every consumer folds table contents in
/// sorted order (the determinism contract of this module), so the
/// difference is unobservable in results.
fn take_resume_state(
    store: &CheckpointStore,
    cfg: &ParallelConfig,
    ctx: &RankCtx<'_, Msg>,
) -> Option<LoopState> {
    if cfg.checkpoint_every_level == 0 {
        return None;
    }
    let cp = store.read_slot(ctx.rank())?;
    assert_eq!(cp.ranks, cfg.ranks, "checkpoint is for a different world");
    assert_eq!(cp.rank, ctx.rank(), "checkpoint slot/rank skew");
    let prefix: Vec<CollectiveKind> = cp
        .protocol_log
        .iter()
        .map(|name| match CollectiveKind::parse(name) {
            Some(kind) => kind,
            None => panic!("checkpoint names unknown collective {name:?}"),
        })
        .collect();
    ctx.seed_protocol_log(&prefix);
    let n = cp.n as usize;
    // Restore may not communicate, so the partition is rebuilt from the
    // checkpoint alone: modulo from `(n, ranks)`, balanced from its
    // persisted owner vector (DESIGN.md §15).
    let part = match PartitionStrategy::from_tag(&cp.part_kind) {
        Some(PartitionStrategy::Modulo) => AnyPartition::Modulo(ModuloPartition::new(n, cfg.ranks)),
        Some(PartitionStrategy::ArcBalanced) => {
            assert_eq!(
                cp.part_owners.len(),
                n,
                "checkpoint owner vector length skew"
            );
            AnyPartition::Balanced(BalancedPartition::from_owners(&cp.part_owners, cfg.ranks))
        }
        None => panic!("checkpoint names unknown partition kind {:?}", cp.part_kind),
    };
    let mut in_table = EdgeTable::new(cp.in_keys.len().max(8));
    for (&key, &w_bits) in cp.in_keys.iter().zip(&cp.in_w_bits) {
        in_table.accumulate(key, f64::from_bits(w_bits));
    }
    let lvl = RankLevel {
        n,
        part,
        in_table,
        k: cp.k_bits.iter().map(|&b| f64::from_bits(b)).collect(),
        label: cp.label,
        tot: cp.tot_bits.iter().map(|&b| f64::from_bits(b)).collect(),
        size: cp.size,
    };
    Some(LoopState {
        lvl,
        input_edges: cp.input_edges as usize,
        s: f64::from_bits(cp.s_bits),
        start_level: cp.next_level,
        orig_comm: cp.orig_comm,
        orig_vertices: cp.orig_vertices,
        levels: cp.levels.iter().map(LevelSnapshot::restore).collect(),
        level_orig_comms: cp.level_orig_comms,
        q_prev_level: f64::from_bits(cp.q_prev_level_bits),
        cache_invalidations: cp.cache_invalidations,
    })
}

/// Snapshots this rank's loop state into its [`CheckpointStore`] slot at
/// the boundary into `next_level`. Called only inside the post-barrier
/// window of the level loop (see the call site for the atomicity
/// argument) and never inside a traced phase region (lint rule X1).
/// Returns the rendered checkpoint size in bytes.
#[allow(clippy::too_many_arguments)]
fn write_level_checkpoint(
    store: &CheckpointStore,
    ctx: &RankCtx<'_, Msg>,
    cfg: &ParallelConfig,
    next_level: usize,
    lvl: &RankLevel,
    input_edges: usize,
    s: f64,
    orig_comm: &[u32],
    levels: &[LevelInfo],
    level_orig_comms: &[Vec<u32>],
    q_prev_level: f64,
    cache_invalidations: u64,
    orig_vertices: &[u32],
) -> u64 {
    // The In-Table is persisted as its sorted (key, weight-bits)
    // multiset — layout-free, like every other fold in this module.
    let mut entries: Vec<(u64, u64)> = lvl
        .in_table
        .iter()
        .map(|(key, w)| (key, w.to_bits()))
        .collect();
    entries.sort_unstable_by_key(|&(key, _)| key);
    let cp = Checkpoint {
        rank: ctx.rank(),
        ranks: cfg.ranks,
        next_level,
        s_bits: s.to_bits(),
        input_edges: input_edges as u64,
        q_prev_level_bits: q_prev_level.to_bits(),
        cache_invalidations,
        n: lvl.n as u64,
        in_keys: entries.iter().map(|&(key, _)| key).collect(),
        in_w_bits: entries.iter().map(|&(_, bits)| bits).collect(),
        k_bits: lvl.k.iter().map(|x| x.to_bits()).collect(),
        label: lvl.label.clone(),
        tot_bits: lvl.tot.iter().map(|x| x.to_bits()).collect(),
        size: lvl.size.clone(),
        orig_comm: orig_comm.to_vec(),
        orig_vertices: orig_vertices.to_vec(),
        // The partition must survive the restore without communication:
        // modulo is rebuilt from `(n, ranks)`, balanced from the dense
        // owner vector persisted here (DESIGN.md §15).
        part_kind: lvl.part.strategy().tag().to_string(),
        part_owners: lvl.part.owners().map(<[u32]>::to_vec).unwrap_or_default(),
        levels: levels.iter().map(LevelSnapshot::of).collect(),
        level_orig_comms: level_orig_comms.to_vec(),
        protocol_log: ctx
            .protocol_log_snapshot()
            .iter()
            .map(|kind| kind.name().to_string())
            .collect(),
    };
    store.save_slot(&cp)
}

/// Builds a level's vertex partition (DESIGN.md §15). The modulo arm is
/// pure arithmetic — zero communication, so the default path's protocol
/// is untouched. The arc-balanced arm computes the local per-vertex load
/// counts, allreduces them (its one collective), and derives the LPT
/// assignment — a pure function of the reduced vector, so every rank
/// builds the identical partition.
fn build_vertex_partition(
    ctx: &RankCtx<'_, Msg>,
    cfg: &ParallelConfig,
    n: usize,
    loads_fn: impl FnOnce() -> Vec<f64>,
) -> AnyPartition {
    match cfg.partition {
        PartitionStrategy::Modulo => AnyPartition::Modulo(ModuloPartition::new(n, cfg.ranks)),
        PartitionStrategy::ArcBalanced => {
            let loads = loads_fn();
            let loads = ctx.allreduce_sum_vec(&loads);
            AnyPartition::Balanced(BalancedPartition::from_loads(&loads, cfg.ranks))
        }
    }
}

/// Distributes the input edge list into per-rank In-Tables (Algorithm 2,
/// line 1) and initializes singleton communities.
fn build_initial_level(
    ctx: &RankCtx<'_, Msg>,
    edges: &EdgeList,
    cfg: &ParallelConfig,
) -> RankLevel {
    let n = edges.num_vertices();
    let rank = ctx.rank();
    // Replicated loading: every rank scans the same full edge list, so
    // the reduced load vector is `ranks`× the true degree counts. LPT is
    // invariant to uniform scaling, so the assignment is unaffected.
    let part = build_vertex_partition(ctx, cfg, n, || {
        let mut loads = vec![0.0f64; n];
        for e in edges.edges() {
            loads[e.u as usize] += 1.0;
            if e.u != e.v {
                loads[e.v as usize] += 1.0;
            }
        }
        loads
    });
    let local_n = part.local_count(rank);
    // Expected local arcs: 2|E|/p.
    let mut in_table = EdgeTable::new((2 * edges.num_edges() / cfg.ranks).max(8));
    for e in edges.edges() {
        if e.u == e.v {
            if part.owner(e.u) == rank {
                // A_uu = 2w, stored once.
                in_table.accumulate(pack_key(e.u, e.u), 2.0 * e.w);
            }
        } else {
            if part.owner(e.v) == rank {
                in_table.accumulate(pack_key(e.u, e.v), e.w);
            }
            if part.owner(e.u) == rank {
                in_table.accumulate(pack_key(e.v, e.u), e.w);
            }
        }
    }
    let mut k = vec![0.0f64; local_n];
    for (key, w) in in_table.iter() {
        let (_, dst) = unpack_key(key);
        k[part.local_index(dst)] += w;
    }
    // Singleton communities: community id = vertex id, owned by the same
    // rank (v mod p == c mod p).
    let label: Vec<u32> = part.local_vertices(rank).collect();
    let tot = k.clone();
    let size = vec![1u32; local_n];
    RankLevel {
        n,
        part,
        in_table,
        k,
        label,
        tot,
        size,
    }
}

/// Distributed graph loading: route this rank's edge chunk to the
/// owning ranks (both arc directions) and build the In-Table from the
/// received stream. Duplicate edges accumulate as weight.
fn build_initial_level_distributed(
    ctx: &mut RankCtx<'_, Msg>,
    n: usize,
    chunk: &EdgeList,
    cfg: &ParallelConfig,
) -> RankLevel {
    let rank = ctx.rank();
    // Distributed loading: chunks are disjoint, so the reduced vector is
    // the true per-vertex degree count.
    let part = build_vertex_partition(ctx, cfg, n, || {
        let mut loads = vec![0.0f64; n];
        for e in chunk.edges() {
            loads[e.u as usize] += 1.0;
            if e.u != e.v {
                loads[e.v as usize] += 1.0;
            }
        }
        loads
    });
    let local_n = part.local_count(rank);
    let mut in_table = EdgeTable::new((2 * chunk.num_edges()).max(8));
    {
        let mut ex = ctx.exchange();
        for e in chunk.edges() {
            debug_assert!((e.u as usize) < n && (e.v as usize) < n);
            if e.u == e.v {
                ex.send(
                    part.owner(e.u),
                    Msg {
                        a: e.u,
                        b: e.u,
                        w: 2.0 * e.w,
                    },
                );
            } else {
                ex.send(
                    part.owner(e.v),
                    Msg {
                        a: e.u,
                        b: e.v,
                        w: e.w,
                    },
                );
                ex.send(
                    part.owner(e.u),
                    Msg {
                        a: e.v,
                        b: e.u,
                        w: e.w,
                    },
                );
            }
        }
        // Sorted application, for the same reason as reconstruction: the
        // table (weights and slot layout alike) must be a function of the
        // routed arc multiset, never of the delivery interleaving.
        let mut arcs: Vec<(u64, u64)> = Vec::new();
        ex.finish(|m| arcs.push((pack_key(m.a, m.b), m.w.to_bits())));
        arcs.sort_unstable();
        for &(key, w_bits) in &arcs {
            in_table.accumulate(key, f64::from_bits(w_bits));
        }
    }
    let mut k = vec![0.0f64; local_n];
    for (key, w) in in_table.iter() {
        let (_, dst) = unpack_key(key);
        k[part.local_index(dst)] += w;
    }
    let label: Vec<u32> = part.local_vertices(rank).collect();
    let tot = k.clone();
    let size = vec![1u32; local_n];
    RankLevel {
        n,
        part,
        in_table,
        k,
        label,
        tot,
        size,
    }
}

/// The v1 full per-arc rebuild (ablation/testing only): re-announce every
/// local vertex's label along every in-arc, whether it moved or not.
/// Overwriting a cached label with its own value is a no-op, so the
/// labels end up identical to the delta path's — this arm exists so the
/// cost-conformance suite can show the volume verifier catching the
/// `O(local_arcs)`-per-iteration regression the delta path was built to
/// eliminate (DESIGN.md §12).
fn send_full_rebuild(
    ex: &mut Exchange<'_, '_, Msg>,
    lvl: &RankLevel,
    rows: &RowStore,
    rank: usize,
) {
    let part = &lvl.part;
    let local_n = part.local_count(rank);
    for li in 0..local_n {
        let v = part.global(rank, li);
        let c = lvl.label[li];
        // Spelled as a slice of `arcs` (not `arcs_of`) so the cost
        // analysis classifies this site `O(local_arcs)` (DESIGN.md §12).
        for &(slot, _) in &rows.arcs[rows.offsets[li]..rows.offsets[li + 1]] {
            ex.send(part.owner(rows.source(slot)), Msg { a: v, b: c, w: 0.0 });
        }
    }
}

/// STATE PROPAGATION (Algorithm 3), delta edition: each rank announces
/// only the vertices that migrated this sweep, as `(vertex,
/// new_community)` pairs, to the owners of their neighbours — keyed
/// sends, so a vertex with many neighbours on one rank costs one message.
/// Received deltas are buffered and applied in sorted vertex order by
/// [`RowStore::apply_deltas`], one cached-label overwrite each
/// (DESIGN.md §10). Returns the number of labels written.
fn propagate_deltas(
    ctx: &mut RankCtx<'_, Msg>,
    lvl: &RankLevel,
    rows: &mut RowStore,
    migrated: &[(u32, u32)],
    v1_state_rebuild: bool,
) -> usize {
    let part = &lvl.part;
    let rank = ctx.rank();
    let mut ex = ctx.exchange();
    if v1_state_rebuild {
        send_full_rebuild(&mut ex, lvl, rows, rank);
    } else {
        for &(u, c_new) in migrated {
            // The graph is symmetric: `u`'s in-arc sources are exactly
            // the vertices whose rows hold an arc from `u`.
            for &(slot, _) in rows.arcs_of(part.local_index(u)) {
                ex.send_keyed(
                    part.owner(rows.source(slot)),
                    u64::from(u),
                    Msg {
                        a: u,
                        b: c_new,
                        w: 0.0,
                    },
                );
            }
        }
    }
    // Buffer first, apply after: the labels must be a function of the
    // delta *set*, not of the (perturbable) delivery order.
    let mut deltas: Vec<(u32, u32)> = Vec::new();
    ex.finish(|m| deltas.push((m.a, m.b)));
    rows.apply_deltas(&mut deltas)
}

/// Gathers a replicated snapshot (global community id → value) from each
/// owner's dense local array, laid out in the modulo partition order.
fn gather_snapshot(ctx: &RankCtx<'_, Msg>, lvl: &RankLevel, local: &[f64]) -> Vec<f64> {
    let p = ctx.num_ranks();
    let gathered = ctx.allgather_f64(local);
    let mut offsets = vec![0usize; p + 1];
    for r in 0..p {
        offsets[r + 1] = offsets[r] + lvl.part.local_count(r);
    }
    debug_assert_eq!(offsets[p], gathered.len());
    let mut global = vec![0.0f64; lvl.n];
    for (c, g) in global.iter_mut().enumerate() {
        let r = lvl.part.owner(c as u32);
        *g = gathered[offsets[r] + lvl.part.local_index(c as u32)];
    }
    global
}

/// The `(gain, community)` lexicographic order of the best-move fold:
/// `total_cmp` on the gain, larger community id breaking exact ties.
/// Community ids are distinct within one vertex's candidate set, so this
/// is a strict total order and the fold is order-independent.
#[inline]
fn lex_gt(g1: f64, c1: u32, g2: f64, c2: u32) -> bool {
    match g1.total_cmp(&g2) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Equal => c1 > c2,
        std::cmp::Ordering::Less => false,
    }
}

/// What one REFINE phase hands to GRAPH RECONSTRUCTION: the level's row
/// store (its labels current) and the level summary.
struct Refined {
    rows: RowStore,
    q: f64,
    iterations: usize,
    fractions: Vec<f64>,
    q_trace: Vec<f64>,
}

/// The inner loop (Algorithm 4).
#[allow(clippy::too_many_arguments)]
fn refine(
    ctx: &mut RankCtx<'_, Msg>,
    lvl: &mut RankLevel,
    s: f64,
    cfg: &ParallelConfig,
    timers: &mut PhaseTimers,
    comm: &mut CommBreakdown,
    sim: &mut SimBreakdown,
    work: &mut SimBreakdown,
    mut inner_timings: Option<&mut Vec<InnerIterationTiming>>,
) -> Refined {
    let rank = ctx.rank();
    let local_n = lvl.part.local_count(rank);
    let mut m_u = vec![0.0f64; local_n];
    let mut best = vec![0u32; local_n];
    // `w(u→c_u)` and `w(u→best)` as the scan summed them. The cached
    // labels only change at the next propagation, so these are exactly
    // what the UPDATE re-vet would sum again.
    let mut w_own = vec![0.0f64; local_n];
    let mut w_best = vec![0.0f64; local_n];
    let mut scratch = Scratch::new(lvl.n);
    let mut fractions = Vec::new();
    let mut q_trace = Vec::new();
    let mut q_prev = f64::NEG_INFINITY;
    let mut q = 0.0;
    let mut iterations = 0usize;

    // Per-phase simulated-clock attribution: `sim_last` is re-read right
    // after the collective that closes each phase. The clock only moves
    // at globally ordered syncs, so every rank computes identical deltas.
    // The same lap also attributes this rank's *own* charged work to the
    // phase (`work`): unlike the clock it is rank-local, so its
    // per-phase, per-rank breakdown is where partition skew shows up.
    let mut sim_last = ctx.sim_clock_units();
    let mut work_last = ctx.charged_units();
    let mut sim_lap = |ctx: &RankCtx<'_, Msg>, bucket: &mut f64, wbucket: &mut f64| {
        let now = ctx.sim_clock_units();
        *bucket += now - sim_last;
        sim_last = now;
        let w = ctx.charged_units();
        *wbucket += w - work_last;
        work_last = w;
    };

    // Initial propagation (Algorithm 2, line 5): the row store is built
    // from purely local data — the level starts at the identity
    // labelling, so no rank needs remote state yet. Charge the local
    // pass; the clock realizes it at the next collective.
    let t_prop0 = Stopwatch::start();
    let mut rows = RowStore::build(lvl, rank);
    ctx.charge(lvl.in_table.len() as f64 * cfg.charge_per_message);
    sim_lap(ctx, &mut sim.state_propagation, &mut work.state_propagation);
    let prop0 = t_prop0.elapsed();
    timers.add(Phase::StatePropagation, prop0);
    let mut migrated: Vec<(u32, u32)> = Vec::new();

    for iter in 1..=cfg.max_inner_iterations {
        iterations = iter;
        let mut it_timing = InnerIterationTiming::default();
        if iter == 1 {
            it_timing.state_propagation += prop0;
        }

        // --- FIND BEST COMMUNITY ---
        let t_find = Stopwatch::start();
        let tot_snap = gather_snapshot(ctx, lvl, &lvl.tot);
        let size_local: Vec<f64> = lvl.size.iter().map(|&x| f64::from(x)).collect();
        let size_snap = gather_snapshot(ctx, lvl, &size_local);
        for li in 0..local_n {
            let c_u = lvl.label[li];
            let k_u = lvl.k[li];
            scratch.load(&rows, li);
            let own = scratch.get(c_u);
            let remove_u = dq::remove_gain(own, k_u, tot_snap[c_u as usize], s);
            // The best move is the lexicographic max over (gain,
            // community id), seeded with staying put at gain 0 —
            // order-independent, so the order of the touched list does
            // not matter.
            let (mut g_best, mut c_best) = (0.0f64, c_u);
            for &c in &scratch.touched {
                let w = scratch.get(c);
                // A community reached only through arcs summing to
                // exactly 0.0 carries no attraction and is no candidate.
                #[allow(clippy::float_cmp)]
                // lint: allow(F1) — an exact-zero sum is "no connecting weight"
                let weightless = w == 0.0;
                if c == c_u || weightless {
                    continue;
                }
                // Singleton swap guard (minimum-label rule): two singleton
                // communities deciding to join each other simultaneously
                // would swap forever on stale state; only the
                // higher-labelled one may move. Standard symmetric-
                // oscillation breaker for synchronous Louvain (cf. Lu et
                // al., Grappolo); complements the paper's ε threshold,
                // which throttles volume but cannot break exact
                // two-cycles. Part of the convergence machinery, so
                // disabled in the no-heuristic ablation.
                #[allow(clippy::float_cmp)]
                // lint: allow(F1) — community sizes are exact small-integer-valued f64 counters
                let singles = size_snap[c as usize] == 1.0 && size_snap[c_u as usize] == 1.0;
                if cfg.use_heuristic && singles && c > c_u {
                    continue;
                }
                let gain = remove_u + dq::insert_gain(w, k_u, tot_snap[c as usize], s);
                if lex_gt(gain, c, g_best, c_best) {
                    (g_best, c_best) = (gain, c);
                }
            }
            m_u[li] = g_best;
            best[li] = c_best;
            w_own[li] = own;
            w_best[li] = scratch.get(c_best);
            scratch.clear();
        }
        // Local compute charge: one unit per in-arc summed plus one per
        // vertex (the remove-gain pass).
        ctx.charge((rows.arcs.len() + local_n) as f64 * cfg.charge_per_message);
        timers.add(Phase::FindBestCommunity, t_find.elapsed());
        it_timing.find_best = t_find.elapsed();

        // --- Threshold ΔQ̂ from the ε schedule (Section IV-B) ---
        let threshold = if cfg.use_heuristic {
            compute_threshold(ctx, &m_u, lvl.n, cfg, iter)
        } else {
            0.0
        };
        // The find-best bucket closes at the threshold reductions (the
        // scan itself has no collective; its compute charge is accounted
        // by the sync that follows). In naive mode there is no threshold
        // collective, so the scan charge folds into the update bucket.
        sim_lap(ctx, &mut sim.find_best, &mut work.find_best);

        // --- UPDATE COMMUNITY INFORMATION ---
        // Algorithm 4 lines 13–15 apply the Σ_tot changes *immediately*
        // while sweeping the local vertices. We mirror that: moves are
        // applied sequentially against a locally updated Σ_tot view and
        // re-vetted — the precomputed gain may have gone stale as earlier
        // local moves crowded the target community. A move whose
        // re-evaluated gain is no longer positive is skipped. This
        // recovers most of the Gauss-Seidel quality a purely synchronous
        // snapshot loses.
        let t_upd = Stopwatch::start();
        let sent_before = ctx.sent_messages();
        let mut tot_view = tot_snap;
        let mut local_moves = 0u64;
        migrated.clear();
        {
            let part = &lvl.part;
            let label = &mut lvl.label;
            let k = &lvl.k;
            let mut ex = ctx.exchange();
            for li in 0..local_n {
                if m_u[li] > cfg.min_gain_threshold && m_u[li] >= threshold {
                    let c_old = label[li];
                    let c_new = best[li];
                    let u = part.global(rank, li);
                    let k_u = k[li];
                    // Re-vet only with the heuristic enabled; the naive
                    // ablation applies snapshot decisions blindly, which
                    // is exactly the chaotic motion of Section III.
                    if cfg.use_heuristic {
                        let gain = dq::move_gain(
                            w_own[li],
                            w_best[li],
                            k_u,
                            tot_view[c_old as usize],
                            tot_view[c_new as usize],
                            s,
                        );
                        if gain <= 0.0 {
                            continue;
                        }
                        tot_view[c_old as usize] -= k_u;
                        tot_view[c_new as usize] += k_u;
                    }
                    label[li] = c_new;
                    local_moves += 1;
                    migrated.push((u, c_new));
                    // b flags join (1) vs leave (0) for size tracking.
                    ex.send(
                        part.owner(c_old),
                        Msg {
                            a: c_old,
                            b: 0,
                            w: -k_u,
                        },
                    );
                    ex.send(
                        part.owner(c_new),
                        Msg {
                            a: c_new,
                            b: 1,
                            w: k_u,
                        },
                    );
                }
            }
            // Buffer first, apply in sorted order: Σ_tot is floating
            // point, so the accumulation must be a function of the
            // delta *multiset*, not of the (perturbable, and for
            // mixed-magnitude weights ulp-visible) delivery order.
            let mut tot_deltas: Vec<(u32, u32, u64)> = Vec::new();
            ex.finish(|m| tot_deltas.push((m.a, m.b, m.w.to_bits())));
            tot_deltas.sort_unstable();
            let tot = &mut lvl.tot;
            let size = &mut lvl.size;
            for &(a, b, w_bits) in &tot_deltas {
                let li = part.local_index(a);
                tot[li] += f64::from_bits(w_bits);
                if b == 1 {
                    size[li] += 1;
                } else {
                    size[li] -= 1;
                }
            }
        }
        comm.update += ctx.sent_messages() - sent_before;
        let moves = ctx.allreduce_sum_u64(local_moves);
        sim_lap(ctx, &mut sim.update, &mut work.update);
        timers.add(Phase::UpdateCommunity, t_upd.elapsed());
        it_timing.update = t_upd.elapsed();
        fractions.push(moves as f64 / lvl.n.max(1) as f64);

        // --- STATE PROPAGATION (Algorithm 4, line 16) ---
        // Delta mode: only migrated vertices are announced. `moves` is
        // the allreduce result, identical on every rank, so when nothing
        // moved anywhere the exchange is skipped in lockstep (the
        // zero-delta fast path) and the iteration still terminates
        // through the modularity collective below.
        let t_prop = Stopwatch::start();
        let sent_before = ctx.sent_messages();
        if moves > 0 {
            let written = propagate_deltas(ctx, lvl, &mut rows, &migrated, cfg.v1_state_rebuild);
            // One unit per label overwrite; the clock realizes it at the
            // next collective.
            ctx.charge(written as f64 * cfg.charge_per_message);
        }
        comm.state_propagation += ctx.sent_messages() - sent_before;
        sim_lap(ctx, &mut sim.state_propagation, &mut work.state_propagation);
        timers.add(Phase::StatePropagation, t_prop.elapsed());
        it_timing.state_propagation += t_prop.elapsed();

        // --- Σ_in and modularity (Algorithm 4, lines 18–25) ---
        let sent_before = ctx.sent_messages();
        q = timers.time(Phase::ComputeModularity, || {
            compute_modularity(ctx, lvl, &rows, s, cfg)
        });
        comm.modularity += ctx.sent_messages() - sent_before;
        sim_lap(ctx, &mut sim.modularity, &mut work.modularity);
        q_trace.push(q);

        if let Some(t) = inner_timings.as_deref_mut() {
            t.push(it_timing);
        }

        if moves == 0 {
            break;
        }
        let fraction = moves as f64 / lvl.n.max(1) as f64;
        if cfg.use_heuristic
            && iter > 1
            && (q - q_prev < cfg.min_improvement || fraction < cfg.min_move_fraction)
        {
            break;
        }
        q_prev = q;
    }
    Refined {
        rows,
        q,
        iterations,
        fractions,
        q_trace,
    }
}

/// Translates ε(iter) into the gain threshold `ΔQ̂` with a global
/// log-spaced histogram of the positive gains — "we build a histogram
/// based on m_u and calculate the update threshold" (Section IV-C2).
fn compute_threshold(
    ctx: &RankCtx<'_, Msg>,
    m_u: &[f64],
    n_global: usize,
    cfg: &ParallelConfig,
    iter: usize,
) -> f64 {
    let eps = cfg.schedule.epsilon(iter);
    let local_max = m_u.iter().copied().fold(0.0f64, f64::max);
    let global_max = ctx.allreduce_max(local_max);
    if global_max <= 0.0 {
        return 0.0; // nobody wants to move
    }
    let bins = cfg.histogram_bins;
    let hi = global_max;
    let lo = hi * 1e-9;
    let log_span = (hi / lo).ln();
    let bin_of = |g: f64| -> usize {
        if g <= lo {
            0
        } else {
            (((g / lo).ln() / log_span) * bins as f64).min(bins as f64 - 1.0) as usize
        }
    };
    let mut hist = vec![0.0f64; bins];
    for &g in m_u {
        if g > 0.0 {
            hist[bin_of(g)] += 1.0;
        }
    }
    let hist = ctx.allreduce_sum_vec(&hist);
    let total_positive: f64 = hist.iter().sum();
    let keep = (eps * n_global as f64).ceil();
    if keep >= total_positive {
        return 0.0; // budget not binding: all positive gains move
    }
    // Walk bins from the top, accumulating until the budget is filled.
    let mut cum = 0.0;
    for b in (0..bins).rev() {
        cum += hist[b];
        if cum >= keep {
            // Lower edge of bin b.
            return lo * (log_span * b as f64 / bins as f64).exp();
        }
    }
    0.0
}

/// Σ_in and global modularity (Algorithm 4, lines 18–25), without
/// messages: `Σ_c Σ_in(c) = Σ_u w(u→label(u))` (self-loops included),
/// and after the propagation that precedes this call every cached label
/// is current, so each rank folds its own rows in local-index order and
/// the ranks combine one scalar.
fn compute_modularity(
    ctx: &RankCtx<'_, Msg>,
    lvl: &RankLevel,
    rows: &RowStore,
    s: f64,
    cfg: &ParallelConfig,
) -> f64 {
    let mut internal = 0.0;
    for (li, &c_u) in lvl.label.iter().enumerate() {
        internal += rows.self_loop[li] + rows.weight_to(li, c_u);
    }
    let mut q_local = internal / s;
    for &tot in &lvl.tot {
        // lint: allow(F1) — exact zero sentinel: empty communities carry Σ_tot = 0.0 exactly
        if tot != 0.0 {
            q_local -= (tot / s) * (tot / s);
        }
    }
    // One unit per in-arc read; realized by the allreduce below.
    ctx.charge(rows.arcs.len() as f64 * cfg.charge_per_message);
    ctx.allreduce_sum(q_local)
}

/// GRAPH RECONSTRUCTION (Algorithm 5): compact surviving community ids,
/// update `orig_comm`, and rebuild the next level's In-Table through an
/// all-to-all over the Out-Table, which is aggregated here once from the
/// row store. Returns the next level and its vertex count.
fn reconstruct(
    ctx: &mut RankCtx<'_, Msg>,
    lvl: &RankLevel,
    rows: RowStore,
    orig_comm: &mut [u32],
    cfg: &ParallelConfig,
) -> (RankLevel, usize) {
    let rank = ctx.rank();
    let p = ctx.num_ranks();
    let part = &lvl.part;
    // The refine loop's last propagation announced every move, so the
    // cached labels are current and the Out-Table is exact. The rows are
    // dead once aggregated: free them before the all-to-all buffers grow.
    let out_table = rows.out_table(lvl, rank);
    ctx.charge(rows.arcs.len() as f64 * cfg.charge_per_message);
    drop(rows);

    // 1. Owners learn which of their communities are non-empty.
    let mut distinct: Vec<u32> = lvl.label.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let mut owned: Vec<u32> = Vec::new();
    {
        let mut ex = ctx.exchange();
        for &c in &distinct {
            ex.send(part.owner(c), Msg { a: c, b: 0, w: 0.0 });
        }
        ex.finish(|m| owned.push(m.a));
    }
    owned.sort_unstable();
    owned.dedup();

    // 2. Dense new ids: rank r's communities get ids
    //    [offset_r, offset_r + count_r).
    let counts = ctx.allgather_f64(&[owned.len() as f64]);
    let offset: usize = counts.iter().take(rank).map(|&c| c as usize).sum();
    let n_next: usize = counts.iter().map(|&c| c as usize).sum();

    // 3. Replicate the old→new mapping (each owner broadcasts its pairs)
    //    into a dense table over this level's ids; `u32::MAX` marks a
    //    community that emptied out.
    let mut map = vec![u32::MAX; lvl.n];
    {
        let mut ex = ctx.exchange();
        for (i, &c) in owned.iter().enumerate() {
            let new_id = (offset + i) as u32;
            for dest in 0..p {
                ex.send(
                    dest,
                    Msg {
                        a: c,
                        b: new_id,
                        w: 0.0,
                    },
                );
            }
        }
        ex.finish(|m| map[m.a as usize] = m.b);
    }

    // 4. Project original vertices: current level vertex id -> its final
    //    community in new-id space. Requires the replicated label array.
    let labels_f64: Vec<f64> = lvl.label.iter().map(|&l| l as f64).collect();
    let gathered = ctx.allgather_f64(&labels_f64);
    let mut offsets = vec![0usize; p + 1];
    for r in 0..p {
        offsets[r + 1] = offsets[r] + part.local_count(r);
    }
    for oc in orig_comm.iter_mut() {
        let x = *oc;
        let owner = part.owner(x);
        let old_label = gathered[offsets[owner] + part.local_index(x)] as u32;
        *oc = map[old_label as usize];
    }

    // 5. Rebuild the In-Table in new-id space: ((u, c), w) becomes
    //    ((c'_new, c_new), w) sent to the owner of c_new. Under the
    //    arc-balanced strategy the super-graph is *repartitioned* here,
    //    before the rows are routed — the repartition rides the
    //    reconstruction all-to-all instead of adding a migration round
    //    (DESIGN.md §15).
    let part_next = build_vertex_partition(ctx, cfg, n_next, || {
        // Arc load of super-vertex `b`: live Out-Table rows landing on
        // it, counted before cross-rank duplicate arcs merge — an
        // upper-bound proxy for the next In-Table's row distribution.
        let mut loads = vec![0.0f64; n_next];
        for (key, w) in out_table.iter() {
            #[allow(clippy::float_cmp)]
            // lint: allow(F1) — a row of exactly zero weight carries no arc
            let live = w != 0.0;
            if live {
                let (_, c_old) = unpack_key(key);
                loads[map[c_old as usize] as usize] += 1.0;
            }
        }
        loads
    });
    let mut in_table = EdgeTable::new(out_table.len().max(8));
    {
        let label = &lvl.label;
        let mut ex = ctx.exchange();
        for (key, w) in out_table.iter() {
            // Every row names a current label (of a source vertex or of
            // `u` itself), so its community has a member and a dense id.
            // Rows of exactly zero weight carry no arc into the next
            // level.
            #[allow(clippy::float_cmp)]
            // lint: allow(F1) — a row of exactly zero weight carries no arc
            let live = w != 0.0;
            if live {
                let (u, c_old) = unpack_key(key);
                let a = map[label[part.local_index(u)] as usize];
                let b = map[c_old as usize];
                ex.send(part_next.owner(b), Msg { a, b, w });
            }
        }
        // Sorted application: the next level's edge weights (and the slot
        // layout their accumulation order produces, which step 6's k sums
        // inherit) must be a function of the arc multiset, not of the
        // perturbable delivery order.
        let mut arcs: Vec<(u64, u64)> = Vec::new();
        ex.finish(|m| arcs.push((pack_key(m.a, m.b), m.w.to_bits())));
        arcs.sort_unstable();
        for &(key, w_bits) in &arcs {
            in_table.accumulate(key, f64::from_bits(w_bits));
        }
    }

    // 6. Derive the next level's arrays.
    let local_n = part_next.local_count(rank);
    let mut k = vec![0.0f64; local_n];
    for (key, w) in in_table.iter() {
        let (_, dst) = unpack_key(key);
        k[part_next.local_index(dst)] += w;
    }
    let label: Vec<u32> = part_next.local_vertices(rank).collect();
    let tot = k.clone();
    let size = vec![1u32; local_n];
    (
        RankLevel {
            n: n_next,
            part: part_next,
            in_table,
            k,
            label,
            tot,
            size,
        },
        n_next,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{SeqConfig, SequentialLouvain};
    use louvain_graph::edgelist::EdgeListBuilder;
    use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
    use louvain_metrics::{modularity, similarity::nmi, Partition as P};
    use std::collections::BTreeMap;

    fn planted_graph(seed: u64) -> (EdgeList, Vec<u32>) {
        generate_planted(
            &PlantedConfig {
                communities: 6,
                community_size: 30,
                p_in: 0.35,
                p_out: 0.01,
            },
            seed,
        )
    }

    #[test]
    fn recovers_planted_communities_on_multiple_ranks() {
        let (el, truth) = planted_graph(3);
        for ranks in [1, 2, 4, 7] {
            let r = ParallelLouvain::new(ParallelConfig::with_ranks(ranks)).run(&el);
            let sim = nmi(&P::from_labels(&truth), &r.result.final_partition);
            assert!(sim > 0.9, "ranks={ranks}: NMI {sim}");
            assert!(r.result.final_modularity > 0.5, "ranks={ranks}");
        }
    }

    #[test]
    fn reported_modularity_matches_recomputation() {
        let (el, _) = planted_graph(5);
        let g = el.to_csr();
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(3)).run(&el);
        let q = modularity(&g, &r.result.final_partition);
        assert!(
            (q - r.result.final_modularity).abs() < 1e-9,
            "reported {} vs recomputed {q}",
            r.result.final_modularity
        );
        // Every level's projected partition matches its reported Q.
        for (lvl, p) in r.result.levels.iter().zip(&r.result.level_partitions) {
            let ql = modularity(&g, p);
            assert!(
                (ql - lvl.modularity).abs() < 1e-9,
                "level Q {} vs projected {ql}",
                lvl.modularity
            );
        }
    }

    #[test]
    fn single_rank_close_to_sequential_quality() {
        let (el, _) = planted_graph(7);
        let g = el.to_csr();
        let q_seq = SequentialLouvain::new(SeqConfig::default())
            .run(&g)
            .final_modularity;
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(1)).run(&el);
        assert!(
            (r.result.final_modularity - q_seq).abs() < 0.05,
            "parallel {} vs sequential {q_seq}",
            r.result.final_modularity
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (el, _) = planted_graph(11);
        let a = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&el);
        let b = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&el);
        assert_eq!(a.result.final_modularity, b.result.final_modularity);
        assert_eq!(
            a.result.final_partition.labels(),
            b.result.final_partition.labels()
        );
    }

    #[test]
    fn handles_self_loops_and_weights() {
        let mut b = EdgeListBuilder::new(4);
        b.add_edge(0, 1, 2.0);
        b.add_edge(2, 3, 2.0);
        b.add_edge(1, 2, 0.5);
        b.add_edge(0, 0, 1.0);
        let el = b.build();
        let g = el.to_csr();
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(2)).run(&el);
        let q = modularity(&g, &r.result.final_partition);
        assert!((q - r.result.final_modularity).abs() < 1e-12);
        // 0,1 and 2,3 pair up.
        let p = &r.result.final_partition;
        assert_eq!(p.community(0), p.community(1));
        assert_eq!(p.community(2), p.community(3));
        assert_ne!(p.community(0), p.community(2));
    }

    #[test]
    fn more_ranks_than_vertices() {
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let el = b.build();
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(8)).run(&el);
        assert!(r.result.final_partition.num_communities() <= 3);
    }

    #[test]
    fn teps_and_timers_populated() {
        let (el, _) = planted_graph(13);
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(2)).run(&el);
        assert!(r.teps() > 0.0);
        assert!(r.first_level_time > Duration::ZERO);
        assert!(r.timers.get(Phase::Refine) > Duration::ZERO);
        assert!(r.timers.get(Phase::StatePropagation) > Duration::ZERO);
        assert!(!r.inner_timings.is_empty());
        assert!(r.comm.messages > 0);
    }

    #[test]
    fn comm_breakdown_accounts_for_all_messages() {
        let (el, _) = planted_graph(19);
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(3)).run(&el);
        let cb = r.comm_breakdown;
        // Every remote message belongs to exactly one phase.
        assert_eq!(cb.total(), r.comm.messages);
        // Delta mode: migrations did happen, so state propagation is not
        // silent, and its keyed sends are where dedup lives.
        assert!(cb.state_propagation > 0);
        assert!(r.comm.dedup_hits > 0);
        assert!(r.cache_invalidations > 0);
        // Strictly below the v1 rebuild volume of one message per arc
        // per inner iteration (robust to phase tuning, unlike comparing
        // against another phase's incidental message count).
        let arcs = 2 * el.num_edges() as u64;
        let inner: u64 = r
            .result
            .levels
            .iter()
            .map(|l| l.inner_iterations as u64)
            .sum();
        assert!(cb.state_propagation < arcs * inner);
        // Replicated loading sends nothing.
        assert_eq!(cb.loading, 0);
        // Distributed loading does.
        let chunks: Vec<EdgeList> = (0..3)
            .map(|r| {
                let mut b = louvain_graph::edgelist::EdgeListBuilder::new(el.num_vertices());
                for (i, e) in el.edges().iter().enumerate() {
                    if i % 3 == r {
                        b.add_edge(e.u, e.v, e.w);
                    }
                }
                b.build()
            })
            .collect();
        let r2 = ParallelLouvain::new(ParallelConfig::with_ranks(3))
            .run_from_parts(el.num_vertices(), |r| chunks[r].clone());
        assert!(r2.comm_breakdown.loading > 0);
        assert_eq!(r2.comm_breakdown.total(), r2.comm.messages);
    }

    #[test]
    fn zero_delta_fast_path_sends_no_state_propagation_messages() {
        // Two vertices with only self-loops: no vertex ever migrates, so
        // the inner loop runs exactly one iteration in which (a) the
        // row store is built from local data and (b) the delta exchange
        // is skipped in lockstep — zero state-propagation messages —
        // while the phase still terminates through the closing
        // modularity collective.
        let mut b = EdgeListBuilder::new(2);
        b.add_edge(0, 0, 1.0);
        b.add_edge(1, 1, 1.0);
        let el = b.build();
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(2)).run(&el);
        assert_eq!(r.comm_breakdown.state_propagation, 0);
        assert_eq!(r.result.levels.len(), 1);
        assert_eq!(r.result.levels[0].inner_iterations, 1);
        // The run still synced (collectives closed every superstep).
        assert!(r.syncs > 0);
        let g = el.to_csr();
        let q = modularity(&g, &r.result.final_partition);
        assert!((q - r.result.final_modularity).abs() < 1e-12);
    }

    #[test]
    fn distributed_loading_matches_replicated_loading() {
        // Split a planted graph's edges round-robin into per-rank chunks;
        // the distributed loader must reconstruct exactly the same graph
        // and produce identical results.
        let (el, _) = planted_graph(17);
        let ranks = 4;
        let chunks: Vec<EdgeList> = (0..ranks)
            .map(|r| {
                let mut b = louvain_graph::edgelist::EdgeListBuilder::new(el.num_vertices());
                for (i, e) in el.edges().iter().enumerate() {
                    if i % ranks == r {
                        b.add_edge(e.u, e.v, e.w);
                    }
                }
                b.build()
            })
            .collect();
        let solver = ParallelLouvain::new(ParallelConfig::with_ranks(ranks));
        let a = solver.run(&el);
        let b = solver.run_from_parts(el.num_vertices(), |r| chunks[r].clone());
        assert_eq!(a.result.final_modularity, b.result.final_modularity);
        assert_eq!(
            a.result.final_partition.labels(),
            b.result.final_partition.labels()
        );
        // TEPS accounting: both attribute the same total input edges.
        assert_eq!(a.input_edges, el.num_edges());
        assert_eq!(b.input_edges, el.num_edges());
    }

    #[test]
    fn distributed_loading_accepts_raw_generator_streams() {
        // Raw (duplicate-carrying) R-MAT chunks: duplicates accumulate as
        // weight and the run is still well-formed.
        use louvain_graph::gen::rmat::{generate_rmat_chunk, RmatConfig};
        let cfg = RmatConfig::graph500(9);
        let ranks = 4;
        let solver = ParallelLouvain::new(ParallelConfig::with_ranks(ranks));
        let r = solver.run_from_parts(cfg.num_vertices(), |rank| {
            generate_rmat_chunk(&cfg, 5, rank, ranks)
        });
        assert!(r.result.final_partition.is_valid());
        // Chunks dedup internally, so the delivered count is bounded by
        // the raw budget but stays in its ballpark.
        assert!(r.input_edges <= cfg.num_edges_raw());
        assert!(r.input_edges > cfg.num_edges_raw() / 2);
        assert!(r.teps() > 0.0);
    }

    /// Builds a single-rank [`RankLevel`] over `edges` for white-box
    /// tests of the row store.
    fn single_rank_level(n: usize, edges: &[(u32, u32, f64)]) -> RankLevel {
        let part = AnyPartition::Modulo(ModuloPartition::new(n, 1));
        let mut in_table = EdgeTable::new(edges.len() * 2 + 8);
        for &(u, v, w) in edges {
            if u == v {
                in_table.accumulate(pack_key(u, u), 2.0 * w);
            } else {
                in_table.accumulate(pack_key(u, v), w);
                in_table.accumulate(pack_key(v, u), w);
            }
        }
        let mut k = vec![0.0f64; n];
        for (key, w) in in_table.iter() {
            let (_, d) = unpack_key(key);
            k[d as usize] += w;
        }
        RankLevel {
            n,
            part,
            in_table,
            k: k.clone(),
            label: (0..n as u32).collect(),
            tot: k,
            size: vec![1; n],
        }
    }

    /// Reference Out-Table: a from-scratch rebuild of `lvl`'s In-Table
    /// under `labels` (a full label per vertex), folding each row's arcs
    /// in ascending source order, self-loops excluded — what every scan
    /// of the row store must reproduce bit for bit.
    fn rebuild_reference(lvl: &RankLevel, labels: &[u32]) -> BTreeMap<(u32, u32), f64> {
        let mut arcs: Vec<(u32, u32, f64)> = lvl
            .in_table
            .iter()
            .map(|(key, w)| {
                let (s, d) = unpack_key(key);
                (d, s, w)
            })
            .filter(|&(d, s, _)| d != s)
            .collect();
        arcs.sort_unstable_by_key(|&(d, s, _)| (d, s));
        let mut rows = BTreeMap::new();
        for (d, s, w) in arcs {
            *rows.entry((d, labels[s as usize])).or_insert(0.0) += w;
        }
        rows
    }

    /// Mixed-magnitude graph plus delta batches for the row-store tests:
    /// vertex 0's neighbours 1 (1e16), 2 (1.0) and 3 (0.3) join
    /// community 4 together and leave it again, so a patched sum would
    /// not cancel back to zero ((1e16 + 1.0) − 1e16 − 1.0 == −1.0).
    const MIXED_EDGES: [(u32, u32, f64); 7] = [
        (0, 1, 1e16),
        (0, 2, 1.0),
        (0, 3, 0.3),
        (4, 1, 0.1),
        (4, 2, 2.5e7),
        (3, 3, 0.7),
        (1, 2, 0.3),
    ];
    const MIXED_BATCHES: [&[(u32, u32)]; 4] = [
        &[(1, 4), (2, 4), (3, 4)],
        &[(1, 3), (2, 3)],
        &[(2, 0), (3, 0), (1, 0)],
        &[(4, 1), (0, 2)],
    ];

    #[test]
    fn scanned_weights_match_a_from_scratch_out_table_bit_for_bit() {
        let mut lvl = single_rank_level(5, &MIXED_EDGES);
        let mut rows = RowStore::build(&lvl, 0);
        let mut scratch = Scratch::new(lvl.n);
        let mut labels: Vec<u32> = (0..5).collect();
        for (b, batch) in MIXED_BATCHES.iter().enumerate() {
            rows.apply_deltas(&mut batch.to_vec());
            for &(u, c) in batch.iter() {
                labels[u as usize] = c;
            }
            assert_eq!(rows.labels, labels, "batch {b}: cached labels");
            let reference = rebuild_reference(&lvl, &labels);
            for li in 0..lvl.n {
                scratch.load(&rows, li);
                let mut scanned: Vec<(u32, u64)> = scratch
                    .touched
                    .iter()
                    .map(|&c| (c, scratch.get(c).to_bits()))
                    .collect();
                scanned.sort_unstable();
                scratch.clear();
                let expected: Vec<(u32, u64)> = reference
                    .range((li as u32, 0)..=(li as u32, u32::MAX))
                    .map(|(&(_, c), w)| (c, w.to_bits()))
                    .collect();
                assert_eq!(scanned, expected, "batch {b}, vertex {li}");
                for &(c, w_bits) in &expected {
                    assert_eq!(rows.weight_to(li, c).to_bits(), w_bits);
                }
            }
            // The reconstruction Out-Table agrees too, self-loops folded
            // into the owner's own row.
            lvl.label.clone_from(&labels);
            let out = rows.out_table(&lvl, 0);
            for ((d, c), w) in &reference {
                let self_loop = if labels[*d as usize] == *c {
                    rows.self_loop[*d as usize]
                } else {
                    0.0
                };
                let expected = if self_loop == 0.0 { *w } else { w + self_loop };
                assert_eq!(
                    out.get(pack_key(*d, *c)).map(f64::to_bits),
                    Some(expected.to_bits()),
                    "batch {b}: out-table row ({d}, {c})"
                );
            }
        }
        // Vertex 0's neighbours 1 and 2 join community 4 and leave it
        // for 3: the row (0, 4) must be absent, not a cancellation
        // residue, and (0, 3) a fresh sum in source order.
        let mut rows = RowStore::build(&lvl, 0);
        rows.apply_deltas(&mut [(1, 4), (2, 4)]);
        rows.apply_deltas(&mut [(1, 3), (2, 3)]);
        scratch.load(&rows, 0);
        assert!(!scratch.touched.contains(&4), "{:?}", scratch.touched);
        assert_eq!(scratch.get(3).to_bits(), (1e16f64 + 1.0 + 0.3).to_bits());
        scratch.clear();
    }

    #[test]
    fn delta_batches_in_reverse_arrival_order_leave_identical_labels() {
        // `drain_perturbed` deliberately scrambles delivery order, and the
        // cached labels persist across inner iterations — so
        // `apply_deltas` sorts each batch before applying it.
        let run = |reverse: bool| -> Vec<u32> {
            let lvl = single_rank_level(5, &MIXED_EDGES);
            let mut rows = RowStore::build(&lvl, 0);
            for batch in MIXED_BATCHES {
                let mut b = batch.to_vec();
                if reverse {
                    b.reverse();
                }
                rows.apply_deltas(&mut b);
            }
            rows.labels
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn mixed_magnitude_weights_survive_delta_patching() {
        // End-to-end: non-integer, mixed-magnitude weights whose sums
        // are not exactly representable, run under the perturbation
        // harness. The run must complete with a self-consistent
        // modularity at every rank count and perturb seed.
        let (el0, _) = planted_graph(23);
        let mut b = EdgeListBuilder::new(el0.num_vertices());
        for (i, e) in el0.edges().iter().enumerate() {
            let w = match i % 3 {
                0 => 1e8,
                1 => 0.1,
                _ => 0.3,
            };
            b.add_edge(e.u, e.v, w);
        }
        let el = b.build();
        let g = el.to_csr();
        for ranks in [2, 4] {
            for seed in [None, Some(1), Some(7)] {
                let r = ParallelLouvain::new(ParallelConfig {
                    perturb_seed: seed,
                    ..ParallelConfig::with_ranks(ranks)
                })
                .run(&el);
                assert!(r.result.final_partition.is_valid());
                let q = modularity(&g, &r.result.final_partition);
                assert!(
                    (q - r.result.final_modularity).abs() <= 1e-9 * (1.0 + q.abs()),
                    "ranks={ranks} seed={seed:?}: reported {} vs recomputed {q}",
                    r.result.final_modularity
                );
            }
        }
    }

    /// The v1 full per-arc rebuild re-announces every label every
    /// iteration; the delta path announces only migrations. Both must
    /// leave the cached labels — and so the whole run — bit-identical,
    /// across rank counts and perturb seeds, on mixed-magnitude weighted
    /// graphs where floating-point order sensitivity would surface
    /// first.
    #[test]
    fn v1_state_rebuild_matches_delta_path_bit_for_bit() {
        let (el0, _) = planted_graph(23);
        let mut b = EdgeListBuilder::new(el0.num_vertices());
        for (i, e) in el0.edges().iter().enumerate() {
            let w = match i % 3 {
                0 => 1e8,
                1 => 0.1,
                _ => 0.3,
            };
            b.add_edge(e.u, e.v, w);
        }
        let el = b.build();
        for ranks in [1, 2, 4] {
            for seed in [None, Some(1), Some(7)] {
                let run = |v1_state_rebuild: bool| {
                    ParallelLouvain::new(ParallelConfig {
                        perturb_seed: seed,
                        v1_state_rebuild,
                        ..ParallelConfig::with_ranks(ranks)
                    })
                    .run(&el)
                };
                let delta = run(false);
                let v1 = run(true);
                assert_eq!(
                    delta.result.final_partition.labels(),
                    v1.result.final_partition.labels(),
                    "ranks={ranks} seed={seed:?}: assignments diverged"
                );
                for (a, b) in delta.result.levels.iter().zip(&v1.result.levels) {
                    assert_eq!(a.inner_iterations, b.inner_iterations);
                    let bits = |q: &[f64]| q.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&a.q_trace),
                        bits(&b.q_trace),
                        "ranks={ranks} seed={seed:?}: modularity diverged"
                    );
                }
                assert_eq!(delta.result.levels.len(), v1.result.levels.len());
                // The scan count is the full scan's: every local vertex
                // once per inner iteration, nothing skipped.
                let n_scans: u64 = delta
                    .result
                    .levels
                    .iter()
                    .map(|l| (l.num_vertices * l.inner_iterations) as u64)
                    .sum();
                assert_eq!(delta.frontier.active_vertices, n_scans);
                assert_eq!(delta.frontier.skipped_scans, 0);
            }
        }
    }

    #[test]
    fn positive_min_gain_threshold_prunes_with_bounded_quality_cost() {
        let (el, _) = planted_graph(5);
        let g = el.to_csr();
        let exact = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&el);
        let pruned = ParallelLouvain::new(ParallelConfig {
            min_gain_threshold: 1e-4,
            ..ParallelConfig::with_ranks(4)
        })
        .run(&el);
        assert!(pruned.result.final_partition.is_valid());
        let q = modularity(&g, &pruned.result.final_partition);
        assert!(
            (q - pruned.result.final_modularity).abs() <= 1e-9 * (1.0 + q.abs()),
            "reported {} vs recomputed {q}",
            pruned.result.final_modularity
        );
        // Pruning near-zero gains may cost a little quality, never much.
        assert!(
            pruned.result.final_modularity >= exact.result.final_modularity - 0.05,
            "pruned {} vs exact {}",
            pruned.result.final_modularity,
            exact.result.final_modularity
        );
    }

    #[test]
    fn without_heuristic_struggles_on_mixed_graphs() {
        use louvain_graph::gen::lfr::{generate_lfr, LfrConfig};
        let el = generate_lfr(&LfrConfig::standard(2000, 0.5), 7).edges;
        let with = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&el);
        let without = ParallelLouvain::new(ParallelConfig {
            use_heuristic: false,
            max_inner_iterations: 12,
            ..ParallelConfig::with_ranks(4)
        })
        .run(&el);
        assert!(
            with.result.final_modularity > without.result.final_modularity,
            "heuristic {} vs naive {}",
            with.result.final_modularity,
            without.result.final_modularity
        );
    }
}
