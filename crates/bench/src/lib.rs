//! Experiment harness for the IPDPS'15 reproduction.
//!
//! One module per table/figure of the paper's evaluation (Section V);
//! the `louvain-bench` binary dispatches to them. Every experiment
//! prints a human-readable table to stdout and writes a CSV next to it
//! under `results/`.
//!
//! | Subcommand | Paper content |
//! |---|---|
//! | `table1` | Table I — graph inventory (stand-ins + realized stats) |
//! | `fig2` | Figure 2 — ε-heuristic regression on LFR migration traces |
//! | `fig4` | Figure 4 — modularity & evolution ratio per outer iteration |
//! | `fig5` | Figure 5 — community-size distributions |
//! | `table3` | Table III — NMI/F-measure/NVD/RI/ARI/JI vs sequential |
//! | `fig6` | Figure 6 — hash load balance & load-factor sweep |
//! | `fig7` | Figure 7 — speedup (BSP-simulated) |
//! | `fig8` | Figure 8 — time breakdown (outer & inner loops) |
//! | `table4` | Table IV — UK-2007 time/modularity vs literature |
//! | `fig9` | Figure 9 — weak & strong scaling TEPS |
//! | `ablate-epsilon` | ε-schedule parameter sweep (design ablation) |
//! | `ablate-coalesce` | coalescing-capacity sweep (design ablation) |
//! | `bench-snapshot` | `BENCH_louvain.json` perf snapshot (DESIGN.md §9) |
//! | `--fault-plan <file>` | replay a chaos CI artifact (DESIGN.md §14) |
//!
//! The reporting primitives are reusable:
//!
//! ```
//! use louvain_bench::Table;
//!
//! let mut t = Table::new(&["graph", "Q"]);
//! t.row(&["amazon".to_string(), "0.6532".to_string()]);
//! assert_eq!(t.len(), 1);
//! assert!(t.render().contains("amazon"));
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod report;
pub mod snapshot;

pub use report::{Csv, Table};

/// Default seed for every experiment (deterministic harness).
pub const SEED: u64 = 0x10_DDAD;

/// Nominal conversion of the BSP cost model: nanoseconds per work unit,
/// used to express simulated time in seconds. It is a fixed convention,
/// not a measurement — perfbench measures the host's actual wall ns per
/// unit (`parallel.r<p>.ns_per_unit`). See DESIGN.md §2.
pub const NS_PER_UNIT: f64 = 20.0;
