//! Per-phase timers (Figure 8 of the paper): wall-clock accumulation for
//! the host-machine view and simulated-clock deltas for the BSP cost
//! model view.
//!
//! This module is the workspace's **only sanctioned wall-clock reader**
//! on solver/runtime paths: lint rule T1 bans `Instant::now` everywhere
//! else in `crates/{core,runtime,trace}/src`, so that no wall-clock value
//! can leak into a deterministic output (traces, `BENCH_*.json`). Code
//! that needs an elapsed-time measurement goes through [`Stopwatch`].

use std::time::{Duration, Instant};

/// A wall-clock stopwatch — the single sanctioned `Instant` wrapper on
/// solver paths (see the module docs and lint rule T1). Wall-clock
/// readings must stay out of deterministic outputs; use them only for
/// host-machine reporting fields (`timers`, `total_time`).
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Wall-clock time elapsed since [`Stopwatch::start`] (or the last
    /// [`Stopwatch::lap`]).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Returns the time elapsed since the last lap (or start) and
    /// restarts the interval.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.start;
        self.start = now;
        d
    }
}

/// The algorithm phases the paper's time breakdown distinguishes
/// (Figure 8: REFINE / GRAPH RECONSTRUCTION per outer loop; FIND BEST
/// COMMUNITY / UPDATE COMMUNITY INFORMATION / STATE PROPAGATION per inner
/// loop).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Community state propagation (Algorithm 3).
    StatePropagation,
    /// Scanning the Out-Table for each vertex's best community.
    FindBestCommunity,
    /// Applying the thresholded moves and Σ_tot updates.
    UpdateCommunity,
    /// Σ_in / modularity computation.
    ComputeModularity,
    /// Whole inner loop (REFINE, Algorithm 4).
    Refine,
    /// Super-graph construction (Algorithm 5).
    Reconstruction,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 6] = [
        Phase::StatePropagation,
        Phase::FindBestCommunity,
        Phase::UpdateCommunity,
        Phase::ComputeModularity,
        Phase::Refine,
        Phase::Reconstruction,
    ];

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::StatePropagation => "state_propagation",
            Phase::FindBestCommunity => "find_best_community",
            Phase::UpdateCommunity => "update_community",
            Phase::ComputeModularity => "compute_modularity",
            Phase::Refine => "refine",
            Phase::Reconstruction => "reconstruction",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::StatePropagation => 0,
            Phase::FindBestCommunity => 1,
            Phase::UpdateCommunity => 2,
            Phase::ComputeModularity => 3,
            Phase::Refine => 4,
            Phase::Reconstruction => 5,
        }
    }
}

/// Accumulated per-phase durations.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimers {
    totals: [Duration; 6],
}

impl PhaseTimers {
    /// Empty timers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f` and charges the elapsed time to `phase`. Returns `f`'s
    /// output.
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.totals[phase.index()] += t0.elapsed();
        out
    }

    /// Adds `d` to `phase` (for externally measured intervals).
    pub fn add(&mut self, phase: Phase, d: Duration) {
        self.totals[phase.index()] += d;
    }

    /// Accumulated time for `phase`.
    #[must_use]
    pub fn get(&self, phase: Phase) -> Duration {
        self.totals[phase.index()]
    }

    /// Element-wise maximum with another timer set (critical-path
    /// aggregation across ranks).
    #[must_use]
    pub fn max(&self, other: &PhaseTimers) -> PhaseTimers {
        let mut out = PhaseTimers::new();
        for (i, t) in out.totals.iter_mut().enumerate() {
            *t = self.totals[i].max(other.totals[i]);
        }
        out
    }

    /// Element-wise sum.
    #[must_use]
    pub fn sum(&self, other: &PhaseTimers) -> PhaseTimers {
        let mut out = PhaseTimers::new();
        for (i, t) in out.totals.iter_mut().enumerate() {
            *t = self.totals[i] + other.totals[i];
        }
        out
    }
}

/// Per-phase message counts for one rank (communication volume companion
/// to the Figure 8 time breakdown).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommBreakdown {
    /// Messages sent during initial graph loading/distribution.
    pub loading: u64,
    /// Messages sent by STATE PROPAGATION phases.
    pub state_propagation: u64,
    /// Messages sent by UPDATE COMMUNITY INFORMATION (Σ_tot deltas).
    pub update: u64,
    /// Messages sent by the Σ_in/modularity accumulation.
    pub modularity: u64,
    /// Messages sent by GRAPH RECONSTRUCTION (including id compaction).
    pub reconstruction: u64,
}

impl CommBreakdown {
    /// Total messages across phases.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.loading + self.state_propagation + self.update + self.modularity + self.reconstruction
    }

    /// Element-wise sum (aggregation across ranks).
    #[must_use]
    pub fn sum(&self, other: &CommBreakdown) -> CommBreakdown {
        CommBreakdown {
            loading: self.loading + other.loading,
            state_propagation: self.state_propagation + other.state_propagation,
            update: self.update + other.update,
            modularity: self.modularity + other.modularity,
            reconstruction: self.reconstruction + other.reconstruction,
        }
    }
}

/// FIND BEST scan counters of the distributed solver, summed across
/// ranks, levels and inner iterations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Vertices scanned by FIND BEST COMMUNITY: every local vertex once
    /// per inner iteration (the paper's full scan).
    pub active_vertices: u64,
    /// Vertex scans skipped versus the full scan. Always 0 — nothing
    /// schedules scans away (DESIGN.md §13 records why) — and kept so
    /// readers of this counter get a defined value.
    pub skipped_scans: u64,
}

/// Per-phase **simulated-clock** deltas for one run, in BSP work units —
/// the deterministic counterpart of [`PhaseTimers`] and the basis of the
/// Fig. 8-style breakdown in `BENCH_louvain.json`.
///
/// Deltas are measured by reading the global simulated clock right after
/// the collective that closes each phase (no extra syncs are inserted, so
/// the cost model is unchanged). The clock only advances at globally
/// ordered syncs, so every rank observes identical deltas and the values
/// are bit-identical across runs and perturb seeds. Attribution caveats:
/// FIND BEST COMMUNITY performs no collective of its own — its compute
/// charge is accounted at the threshold reduction that follows it — and
/// in naive mode (no ε heuristic) that bucket is folded into `update`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimBreakdown {
    /// Initial graph loading / distribution supersteps.
    pub loading: f64,
    /// STATE PROPAGATION exchanges (both per-iteration propagations).
    pub state_propagation: f64,
    /// FIND BEST COMMUNITY scan plus the ε-threshold reductions.
    pub find_best: f64,
    /// UPDATE COMMUNITY INFORMATION (move application, Σ_tot deltas).
    pub update: f64,
    /// Σ_in accumulation / modularity reductions.
    pub modularity: f64,
    /// GRAPH RECONSTRUCTION all-to-all and id compaction.
    pub reconstruction: f64,
}

impl SimBreakdown {
    /// Total simulated units across phases.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.loading
            + self.state_propagation
            + self.find_best
            + self.update
            + self.modularity
            + self.reconstruction
    }

    /// Element-wise maximum (cross-rank fold; all ranks should agree, so
    /// this is a no-op fold that tolerates a rank reporting zero).
    #[must_use]
    pub fn max(&self, other: &SimBreakdown) -> SimBreakdown {
        SimBreakdown {
            loading: self.loading.max(other.loading),
            state_propagation: self.state_propagation.max(other.state_propagation),
            find_best: self.find_best.max(other.find_best),
            update: self.update.max(other.update),
            modularity: self.modularity.max(other.modularity),
            reconstruction: self.reconstruction.max(other.reconstruction),
        }
    }
}

/// Timing of a single inner iteration of the first outer loop
/// (Figure 8b).
#[derive(Clone, Copy, Debug, Default)]
pub struct InnerIterationTiming {
    /// FIND BEST COMMUNITY time.
    pub find_best: Duration,
    /// UPDATE COMMUNITY INFORMATION time.
    pub update: Duration,
    /// STATE PROPAGATION time (both propagations of the iteration).
    pub state_propagation: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accumulates() {
        let mut t = PhaseTimers::new();
        let out = t.time(Phase::Refine, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(out, 42);
        assert!(t.get(Phase::Refine) >= Duration::from_millis(5));
        assert_eq!(t.get(Phase::Reconstruction), Duration::ZERO);
    }

    #[test]
    fn max_and_sum_elementwise() {
        let mut a = PhaseTimers::new();
        a.add(Phase::Refine, Duration::from_millis(10));
        let mut b = PhaseTimers::new();
        b.add(Phase::Refine, Duration::from_millis(4));
        b.add(Phase::Reconstruction, Duration::from_millis(7));
        let m = a.max(&b);
        assert_eq!(m.get(Phase::Refine), Duration::from_millis(10));
        assert_eq!(m.get(Phase::Reconstruction), Duration::from_millis(7));
        let s = a.sum(&b);
        assert_eq!(s.get(Phase::Refine), Duration::from_millis(14));
    }

    #[test]
    fn comm_breakdown_totals() {
        let a = CommBreakdown {
            loading: 1,
            state_propagation: 10,
            update: 2,
            modularity: 3,
            reconstruction: 4,
        };
        assert_eq!(a.total(), 20);
        let b = a.sum(&a);
        assert_eq!(b.total(), 40);
        assert_eq!(b.state_propagation, 20);
    }

    #[test]
    fn phase_names_unique() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len());
    }
}
