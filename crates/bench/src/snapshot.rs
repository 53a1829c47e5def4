//! `bench-snapshot` — the perf-snapshot pipeline behind `BENCH_louvain.json`.
//!
//! Runs fixed seeded workloads through the distributed solver and writes a
//! schema-versioned JSON snapshot at the repository root: TEPS under the
//! BSP cost model, a Figure 8-style per-phase breakdown in simulated work
//! units, communication volume, and hash-table probe behavior
//! (Section V-C1).  See DESIGN.md §9 for the field-by-field schema.
//!
//! **Determinism contract:** every value in the snapshot derives from the
//! simulated clock, solver counters, or a fixed-order microbench — never
//! from the wall clock (lint rule T1) — so two consecutive invocations of
//! `louvain-bench bench-snapshot` produce **bit-identical** files.  The
//! solver's own hash tables are deliberately *not* the source of probe
//! statistics: their insertion order depends on message arrival order, so
//! their probe counts are schedule-dependent.  Probe statistics come from
//! [`hash_microbench`], a sequential fill with a fixed key sequence.

use crate::experiments::{run_par, workload};
use crate::{NS_PER_UNIT, SEED};
use louvain_core::parallel::{ParallelConfig, ParallelLouvain, ParallelResult};
use louvain_core::timing::SimBreakdown;
use louvain_graph::gen::rmat::{generate_rmat, RmatConfig};
use louvain_graph::PartitionStrategy;
use louvain_hash::{pack_key, EdgeTable};
use louvain_runtime::FaultPlan;

/// The deterministic JSON value the snapshot is built from. Originally
/// defined here; now lives in `louvain_core::json` so the checkpoint
/// subsystem shares the same writer/parser (re-exported to keep the
/// `snapshot::Json` path working).
pub use louvain_core::json::Json;

/// Version of the `BENCH_louvain.json` schema. Bump on any field rename,
/// removal, or semantic change (additions are allowed within a version);
/// `xtask --json` republishes this number so report consumers can gate on
/// it.
///
/// v2: state propagation switched to delta mode — `messages`/`bytes_sent`
/// measure a different protocol than v1 (plus new `delta_messages`,
/// `dedup_hits`, `cache_invalidations` fields), so v1/v2 volumes must not
/// be compared as if like-for-like.
///
/// v3: the local-move phase is frontier-scheduled — `find_best` work units
/// charge `O(frontier)` instead of `O(n_local)` per iteration, so v2/v3
/// phase breakdowns are not like-for-like. New fields:
/// `frontier_active_vertices`, `frontier_reactivations`,
/// `frontier_skipped_scans` (summed counters, DESIGN.md §13), and
/// `frontier_occupancy` (first-level worklist size per inner iteration,
/// summed across ranks).
///
/// v4: checkpoint/restart instrumentation (DESIGN.md §14). New top-level
/// `chaos` object measuring the amazon workload under a level-1
/// checkpoint cadence with one injected rank crash: `checkpoints_taken`
/// and `checkpoint_bytes` (serialized slot volume across ranks),
/// `recovery_replays`, `recovery_replay_units` (simulated work units
/// re-executed by the recovery attempt), and `recovered_bit_identical`
/// (the recovered modularity matches the fault-free run bit for bit).
/// Workload entries are unchanged, so v3 consumers of `workloads` keep
/// working; the version still bumps because the document grew a
/// measured section whose absence v4 consumers must detect.
///
/// v5: pluggable partitioning (DESIGN.md §15). Each workload entry gains
/// the per-rank skew series — `arc_loads` (In-Table rows each rank held,
/// summed over levels), `imbalance` (max/mean of `arc_loads`), and
/// `work_units_per_rank` (each rank's *own* charged work per phase,
/// unlike `phase_units` which is the max-over-ranks simulated clock) —
/// and the document gains a top-level `partition` section comparing the
/// modulo and arc-balanced strategies on a skewed unpermuted R-MAT.
///
/// v6: one row store replaces the Out-Table patching and the frontier
/// scheduler (DESIGN.md §10, §13). FIND BEST is the full scan again and
/// modularity needs no messages, so phase units and volumes are not
/// like-for-like with v5. The four `frontier_*` fields are replaced by
/// `find_best_scans` (vertices scanned, summed over iterations and
/// ranks).
pub const SCHEMA_VERSION: u64 = 6;

/// Output path, relative to the working directory (the workspace root
/// under `cargo run`).
pub const SNAPSHOT_PATH: &str = "BENCH_louvain.json";

/// Ranks used for every snapshot workload (matches the e2e trace tests).
pub const RANKS: usize = 4;

/// Deterministic sequential-fill microbench for the probe statistics.
///
/// Inserts a fixed LCG-derived key sequence into a fresh [`EdgeTable`] in
/// a single thread, so the probe counters depend only on the hash
/// function and load factor — never on message schedules.
#[must_use]
pub fn hash_microbench(ops: usize) -> Json {
    let mut t = EdgeTable::new(1 << 12);
    let mut x: u64 = SEED;
    for _ in 0..ops {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let u = ((x >> 40) & 0xFFFF) as u32;
        let c = ((x >> 20) & 0x3FFF) as u32;
        t.accumulate(pack_key(u, c), 1.0);
    }
    let s = t.probe_stats();
    let occ = t.occupancy_stats(8);
    Json::Obj(vec![
        ("operations".into(), Json::UInt(s.operations)),
        ("probes".into(), Json::UInt(s.probes)),
        ("collisions".into(), Json::UInt(s.collisions)),
        ("max_probe_length".into(), Json::UInt(s.max_probe_length)),
        ("mean_probe_length".into(), Json::Num(s.mean_probe_length)),
        ("load_factor".into(), Json::Num(s.load_factor)),
        ("clusters".into(), Json::UInt(occ.clusters as u64)),
        (
            "avg_cluster_length".into(),
            Json::Num(occ.avg_cluster_length),
        ),
        (
            "max_cluster_length".into(),
            Json::UInt(occ.max_cluster_length as u64),
        ),
        ("slice_imbalance".into(), Json::Num(occ.slice_imbalance())),
    ])
}

fn workload_entry(name: &str, vertices: usize, r: &ParallelResult) -> Json {
    let b = r.sim_breakdown;
    let trace_events: u64 = r.traces.iter().map(|t| t.events.len() as u64).sum();
    Json::Obj(vec![
        ("name".into(), Json::Str(name.to_string())),
        ("ranks".into(), Json::UInt(RANKS as u64)),
        ("vertices".into(), Json::UInt(vertices as u64)),
        ("edges".into(), Json::UInt(r.input_edges as u64)),
        ("levels".into(), Json::UInt(r.result.num_levels() as u64)),
        ("modularity".into(), Json::Num(r.result.final_modularity)),
        (
            "teps_simulated".into(),
            Json::Num(r.teps_simulated(NS_PER_UNIT)),
        ),
        ("sim_total_units".into(), Json::Num(r.sim_total_units)),
        (
            "sim_first_level_units".into(),
            Json::Num(r.sim_first_level_units),
        ),
        (
            "phase_units".into(),
            Json::Obj(vec![
                ("loading".into(), Json::Num(b.loading)),
                ("state_propagation".into(), Json::Num(b.state_propagation)),
                ("find_best".into(), Json::Num(b.find_best)),
                ("update".into(), Json::Num(b.update)),
                ("modularity".into(), Json::Num(b.modularity)),
                ("reconstruction".into(), Json::Num(b.reconstruction)),
            ]),
        ),
        ("messages".into(), Json::UInt(r.comm.messages)),
        ("packets".into(), Json::UInt(r.comm.packets)),
        ("syncs".into(), Json::UInt(r.syncs)),
        ("bytes_sent".into(), Json::UInt(r.bytes_sent)),
        // Delta-mode volumes (schema v2): how much of the wire traffic is
        // state propagation, how many keyed sends the coalescing layer
        // absorbed, and how many per-level caches reconstruction retired.
        // `delta_messages` is the observable of the one `O(deltas)` site in
        // `results/cost_spec.json` (DESIGN.md §12); `dedup_hits` is the gap
        // between the raw keyed-send stream and that bound. The conformance
        // suite (cost_conformance.rs) checks the bound per run; this
        // snapshot tracks its trajectory across PRs.
        (
            "delta_messages".into(),
            Json::UInt(r.comm_breakdown.state_propagation),
        ),
        ("dedup_hits".into(), Json::UInt(r.comm.dedup_hits)),
        (
            "cache_invalidations".into(),
            Json::UInt(r.cache_invalidations),
        ),
        // FIND BEST scan volume (schema v6): every local vertex once per
        // inner iteration, the `O(n_local)` class of the cost spec.
        (
            "find_best_scans".into(),
            Json::UInt(r.frontier.active_vertices),
        ),
        // Partition-skew observables (schema v5, DESIGN.md §15): the
        // per-rank series expose the imbalance the max-over-ranks
        // clock can only hint at.
        ("imbalance".into(), Json::Num(r.imbalance)),
        (
            "arc_loads".into(),
            Json::Arr(r.arc_loads.iter().map(|&x| Json::UInt(x)).collect()),
        ),
        (
            "work_units_per_rank".into(),
            Json::Arr(
                r.per_rank_work_breakdown
                    .iter()
                    .map(breakdown_entry)
                    .collect(),
            ),
        ),
        ("trace_events".into(), Json::UInt(trace_events)),
    ])
}

fn breakdown_entry(b: &SimBreakdown) -> Json {
    Json::Obj(vec![
        ("loading".into(), Json::Num(b.loading)),
        ("state_propagation".into(), Json::Num(b.state_propagation)),
        ("find_best".into(), Json::Num(b.find_best)),
        ("update".into(), Json::Num(b.update)),
        ("modularity".into(), Json::Num(b.modularity)),
        ("reconstruction".into(), Json::Num(b.reconstruction)),
        ("total".into(), Json::Num(b.total())),
    ])
}

/// Ranks for the partition-comparison section: more ranks than the main
/// workloads so hub concentration shows up as skew.
const PARTITION_RANKS: usize = 8;

/// The skewed workload behind the v5 `partition` section: an unpermuted
/// R-MAT (hubs concentrated at low vertex ids by the recursive
/// construction) whose quadrant bias is turned up from the Graph500
/// reference. See EXPERIMENTS.md for the walkthrough.
#[must_use]
pub fn skewed_rmat() -> louvain_graph::EdgeList {
    generate_rmat(
        &RmatConfig {
            scale: 10,
            edge_factor: 8,
            a: 0.7,
            b: 0.12,
            c: 0.12,
            permute: false,
            clean: true,
        },
        SEED,
    )
}

/// The modulo vs arc-balanced comparison behind the v5 `partition`
/// section (DESIGN.md §15): one skewed R-MAT, both strategies, same
/// seed and rank count. Both runs are deterministic, so the section is
/// bit-stable like the rest of the snapshot.
fn partition_entry() -> Json {
    let edges = skewed_rmat();
    let run = |strategy: PartitionStrategy| {
        ParallelLouvain::new(ParallelConfig {
            partition: strategy,
            ..ParallelConfig::with_ranks(PARTITION_RANKS)
        })
        .run(&edges)
    };
    let modulo = run(PartitionStrategy::Modulo);
    let balanced = run(PartitionStrategy::ArcBalanced);
    let arc_loads =
        |r: &ParallelResult| Json::Arr(r.arc_loads.iter().map(|&x| Json::UInt(x)).collect());
    Json::Obj(vec![
        (
            "workload".into(),
            Json::Str("rmat scale=10 ef=8 a=0.7 unpermuted".to_string()),
        ),
        ("ranks".into(), Json::UInt(PARTITION_RANKS as u64)),
        ("modulo_imbalance".into(), Json::Num(modulo.imbalance)),
        ("modulo_arc_loads".into(), arc_loads(&modulo)),
        (
            "modulo_modularity".into(),
            Json::Num(modulo.result.final_modularity),
        ),
        ("balanced_imbalance".into(), Json::Num(balanced.imbalance)),
        ("balanced_arc_loads".into(), arc_loads(&balanced)),
        (
            "balanced_modularity".into(),
            Json::Num(balanced.result.final_modularity),
        ),
        (
            "imbalance_reduction".into(),
            Json::Num(modulo.imbalance / balanced.imbalance),
        ),
    ])
}

/// The checkpoint/recovery measurement behind the v4 `chaos` section
/// (DESIGN.md §14): run the amazon workload at a level-1 checkpoint
/// cadence, then crash one rank just past the first level boundary and
/// recover from the checkpoint store. Everything here derives from the
/// simulated clock and solver counters, so the section is bit-stable
/// like the rest of the snapshot.
fn chaos_entry() -> Json {
    let g = workload("amazon", SEED);
    let cfg = ParallelConfig {
        checkpoint_every_level: 1,
        ..ParallelConfig::with_ranks(RANKS)
    };
    let probe = ParallelLouvain::new(cfg.clone()).run(&g.edges);
    // Aim half a unit past the first level boundary: the crash fires at
    // the first sync of the next level, after that boundary's
    // checkpoint was written on every rank.
    let at_clock = probe.level_boundary_clocks.first().map_or(1.0, |c| c + 0.5);
    let recovered = ParallelLouvain::new(ParallelConfig {
        fault_plan: Some(FaultPlan::crash(1 % RANKS, at_clock)),
        ..cfg
    })
    .run(&g.edges);
    let identical = recovered.result.final_modularity.to_bits()
        == probe.result.final_modularity.to_bits()
        && recovered.result.final_partition.labels() == probe.result.final_partition.labels();
    Json::Obj(vec![
        ("workload".into(), Json::Str("amazon".to_string())),
        ("ranks".into(), Json::UInt(RANKS as u64)),
        ("checkpoint_every_level".into(), Json::UInt(1)),
        (
            "checkpoints_taken".into(),
            Json::UInt(probe.checkpoints_taken),
        ),
        (
            "checkpoint_bytes".into(),
            Json::UInt(probe.checkpoint_bytes),
        ),
        ("crash_at_clock".into(), Json::Num(at_clock)),
        (
            "recovery_replays".into(),
            Json::UInt(recovered.recovery_replays),
        ),
        (
            "recovery_replay_units".into(),
            Json::Num(recovered.sim_total_units),
        ),
        ("recovered_bit_identical".into(), Json::Bool(identical)),
    ])
}

/// Builds the snapshot document. `quick` trims the workload list.
#[must_use]
pub fn build(quick: bool) -> Json {
    let names: &[&str] = if quick {
        &["amazon"]
    } else {
        &["amazon", "dblp", "youtube"]
    };
    let mut entries = Vec::new();
    for &name in names {
        let g = workload(name, SEED);
        let r = run_par(&g.edges, RANKS);
        entries.push(workload_entry(name, g.edges.num_vertices(), &r));
    }
    Json::Obj(vec![
        ("schema_version".into(), Json::UInt(SCHEMA_VERSION)),
        (
            "generator".into(),
            Json::Str("louvain-bench bench-snapshot".to_string()),
        ),
        ("seed".into(), Json::UInt(SEED)),
        ("ns_per_unit".into(), Json::Num(NS_PER_UNIT)),
        ("quick".into(), Json::Bool(quick)),
        ("workloads".into(), Json::Arr(entries)),
        ("hash_table".into(), hash_microbench(100_000)),
        ("chaos".into(), chaos_entry()),
        ("partition".into(), partition_entry()),
    ])
}

/// `bench-snapshot --check`: regenerates the document in memory and
/// compares it byte-for-byte against the committed [`SNAPSHOT_PATH`],
/// without writing anything. Returns `true` when the snapshot is
/// current.
///
/// The committed file's `quick` and `schema_version` stamps are vetted
/// **before** diffing: comparing a `--quick` regeneration against a full
/// snapshot (or a snapshot from another schema) would report every
/// workload as drifted, burying the actual problem — the gate used to do
/// exactly that via a bare `git diff`. Each mismatch fails fast with a
/// named error instead.
#[must_use]
pub fn check(quick: bool) -> bool {
    let committed = match std::fs::read_to_string(SNAPSHOT_PATH) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("snapshot-check: cannot read {SNAPSHOT_PATH}: {e}");
            return false;
        }
    };
    let doc = match Json::parse(&committed) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("snapshot-check: {SNAPSHOT_PATH} is not valid JSON: {e}");
            return false;
        }
    };
    match doc.get("schema_version").and_then(Json::as_u64) {
        Some(SCHEMA_VERSION) => {}
        Some(found) => {
            eprintln!(
                "snapshot-check: schema mismatch: {SNAPSHOT_PATH} is v{found}, this build \
                 writes v{SCHEMA_VERSION} — regenerate with `louvain-bench bench-snapshot{}`",
                if quick { " --quick" } else { "" }
            );
            return false;
        }
        None => {
            eprintln!("snapshot-check: {SNAPSHOT_PATH} has no schema_version stamp");
            return false;
        }
    }
    let committed_quick = match doc.get("quick") {
        Some(&Json::Bool(b)) => b,
        _ => {
            eprintln!("snapshot-check: {SNAPSHOT_PATH} has no boolean `quick` stamp");
            return false;
        }
    };
    if committed_quick != quick {
        let (committed_mode, requested_mode) = if committed_quick {
            ("--quick", "full")
        } else {
            ("full", "--quick")
        };
        eprintln!(
            "snapshot-check: mode mismatch: {SNAPSHOT_PATH} was generated in {committed_mode} \
             mode but the check ran in {requested_mode} mode — the byte comparison would be \
             meaningless; rerun the check in {committed_mode} mode or regenerate the snapshot"
        );
        return false;
    }
    let fresh = build(quick).render();
    if fresh == committed {
        println!(
            "snapshot-check: {SNAPSHOT_PATH} is current ({} bytes, schema v{SCHEMA_VERSION})",
            committed.len()
        );
        true
    } else {
        let at = fresh
            .bytes()
            .zip(committed.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.len().min(committed.len()));
        eprintln!(
            "snapshot-check: {SNAPSHOT_PATH} drifted from a fresh regeneration (first \
             difference at byte {at}) — regenerate with `louvain-bench bench-snapshot{}` \
             and commit the result",
            if quick { " --quick" } else { "" }
        );
        false
    }
}

/// Runs the `bench-snapshot` experiment: builds the document, writes it
/// to [`SNAPSHOT_PATH`], and prints a one-line summary per workload.
pub fn run(quick: bool) {
    let doc = build(quick);
    let rendered = doc.render();
    if let Err(e) = std::fs::write(SNAPSHOT_PATH, &rendered) {
        eprintln!("warning: cannot write {SNAPSHOT_PATH}: {e}");
    }
    if let Some(workloads) = doc.get("workloads").and_then(Json::as_arr) {
        for w in workloads {
            let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
            let q = w.get("modularity").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let teps = w
                .get("teps_simulated")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            let syncs = w.get("syncs").and_then(Json::as_u64).unwrap_or(0);
            println!("{name}: Q={q:.4} TEPS_sim={:.3}M syncs={syncs}", teps / 1e6);
        }
    }
    println!(
        "wrote {SNAPSHOT_PATH} (schema v{SCHEMA_VERSION}, {} bytes)",
        rendered.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_microbench_is_deterministic() {
        let a = hash_microbench(10_000).render();
        let b = hash_microbench(10_000).render();
        assert_eq!(a, b);
        let doc = Json::parse(&a).expect("parse");
        assert!(doc.get("operations").and_then(Json::as_u64) == Some(10_000));
        let mean = doc
            .get("mean_probe_length")
            .and_then(|v| v.as_f64())
            .expect("mean");
        assert!(mean >= 1.0);
    }
}
