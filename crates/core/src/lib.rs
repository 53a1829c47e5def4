#![warn(missing_docs)]
// F1's clippy-side complement: flags every float `==`/`!=`, including the
// variable-to-variable comparisons the token-based pass cannot see.
#![warn(clippy::float_cmp)]
// Tests assert exact expected values on purpose (integer-weight graphs
// make modularity sums exact); the production build keeps the warning.
#![cfg_attr(test, allow(clippy::float_cmp))]
#![warn(clippy::unwrap_used)]

//! The Louvain algorithms of Que et al. (IPDPS 2015).
//!
//! Three solvers over the same graph substrate:
//!
//! * [`seq`] — the sequential Louvain algorithm (Algorithm 1 of the paper;
//!   Blondel et al. 2008). The baseline for every quality comparison and
//!   the source of the vertex-migration traces that train the convergence
//!   heuristic (Figure 2).
//! * [`naive`] — a synchronous parallel variant *without* the heuristic:
//!   every vertex moves greedily on a stale snapshot. This is the
//!   "Parallel without Heuristic" line of Figure 4 that oscillates and
//!   fails to converge.
//! * [`parallel`] — the paper's contribution: the distributed-memory
//!   parallel Louvain built on hash-based In/Out tables
//!   (Algorithms 2–5), the exponential-decay move threshold
//!   ([`heuristic`], Equation 7), community state propagation,
//!   all-to-all graph reconstruction, and a per-level row store whose
//!   cached neighbour labels make each state-propagation delta one label
//!   overwrite.
//!
//! Shared pieces: the ΔQ kernel ([`dq`], Equation 4), hierarchy/result
//! types ([`result`]), and per-phase timers ([`timing`], Figure 8).

pub mod checkpoint;
pub mod coarsen;
pub mod dendrogram;
pub mod dq;
pub mod heuristic;
pub mod json;
pub mod labelprop;
pub mod naive;
pub mod parallel;
pub mod refine;
pub mod result;
pub mod seq;
pub mod smp;
pub mod timing;

pub use checkpoint::{ChaosCase, Checkpoint, CheckpointError, CheckpointStore};
pub use dendrogram::Dendrogram;
pub use heuristic::{EpsilonSchedule, ScheduleForm};
pub use json::Json;
pub use labelprop::{LabelPropConfig, LabelPropResult, LabelPropagation};
pub use naive::{NaiveConfig, NaiveParallelLouvain};
pub use parallel::{ParallelConfig, ParallelLouvain, ParallelResult};
pub use refine::{refine_partition, Refinement};
pub use result::{LevelInfo, LouvainResult};
pub use seq::{SeqConfig, SequentialLouvain};
pub use smp::{SmpConfig, SmpLouvain};
pub use timing::{Phase, PhaseTimers, ScanStats};
