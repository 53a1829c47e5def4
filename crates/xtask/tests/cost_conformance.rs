//! Dynamic cost conformance: the committed symbolic cost spec
//! (`results/cost_spec.json`, DESIGN.md §12) declares a payload bound
//! and invocation multiplicity for every communication site; these tests
//! check the *observed* per-phase message counters against the concrete
//! bounds those classes imply, at 2/4/8 ranks and under every perturbed
//! delivery schedule — and prove the bounds have teeth by flipping the
//! solver to the v1 full-rebuild state propagation and watching the
//! check reject the regression that bench drift alone might miss.

use std::path::{Path, PathBuf};
use std::process::Command;

use louvain_core::parallel::{ParallelConfig, ParallelLouvain, ParallelResult};
use louvain_graph::edgelist::EdgeListBuilder;
use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
use louvain_graph::EdgeList;
use xtask::{extract_cost_spec, CostSpec};

/// Same seed battery as the race harness in
/// `crates/runtime/tests/schedule_perturbation.rs`.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xDEAD_BEEF, u64::MAX];

/// Each message is a 16-byte POD (`Msg { a: u32, b: u32, w: f64 }`) —
/// the spec's `O(1)` payload unit.
const MSG_BYTES: u64 = 16;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn test_graph() -> EdgeList {
    generate_planted(
        &PlantedConfig {
            communities: 6,
            community_size: 20,
            p_in: 0.35,
            p_out: 0.02,
        },
        42,
    )
    .0
}

fn spec() -> CostSpec {
    extract_cost_spec(&workspace_root()).expect("cost extraction succeeds on the tree")
}

/// Hard failure on a pegged counter: a saturated reading no longer
/// measures anything, so any bound comparison against it is meaningless
/// and must not silently pass (`louvain_trace::Counter::is_saturated`).
fn not_pegged(name: &str, v: u64) -> u64 {
    assert_ne!(
        v,
        u64::MAX,
        "trace counter `{name}` is saturated (pegged at u64::MAX); \
         refusing to check bounds against a meaningless reading"
    );
    v
}

/// Concrete per-phase message bounds implied by the committed cost
/// classes, evaluated against the observed `CommBreakdown` (summed over
/// ranks). Returns violations instead of asserting so the mutation test
/// can demand a *failure* from the same checker that passes the tree.
fn violations(r: &ParallelResult, ranks: u64, raw_edges: u64, distributed: bool) -> Vec<String> {
    let cb = &r.comm_breakdown;
    for (name, v) in [
        ("comm_breakdown.loading", cb.loading),
        ("comm_breakdown.state_propagation", cb.state_propagation),
        ("comm_breakdown.update", cb.update),
        ("comm_breakdown.modularity", cb.modularity),
        ("comm_breakdown.reconstruction", cb.reconstruction),
        ("comm.messages", r.comm.messages),
        ("comm.dedup_hits", r.comm.dedup_hits),
        ("bytes_sent", r.bytes_sent),
        ("frontier.active_vertices", r.frontier.active_vertices),
        ("frontier.skipped_scans", r.frontier.skipped_scans),
    ] {
        not_pegged(name, v);
    }

    // Arcs of the input graph: every level's tables only shrink from
    // here, so `arcs` upper-bounds every O(local_arcs) class.
    let arcs = 2 * raw_edges;
    // Recover the solver quantities the symbolic classes are expressed
    // in from the per-level result: total migrations (`deltas`), and the
    // per-iteration sums weighted by level size.
    let mut moves_total = 0u64;
    let mut recon_terms = 0u64;
    for lvl in &r.result.levels {
        let n = lvl.num_vertices as u64;
        for &f in &lvl.move_fractions {
            // `f` was computed as moves / n, so this recovers the exact
            // per-iteration global move count.
            moves_total += (f * lvl.num_vertices as f64).round() as u64;
        }
        // reconstruct, per level: one O(n_local) announcement of the
        // distinct community ids, one relabel round of at most
        // `num_communities × ranks` messages, one O(local_arcs) edge
        // re-key of the coarsened tables.
        recon_terms += 2 * n + lvl.num_communities as u64 * ranks + arcs;
    }

    let mut out = Vec::new();
    let mut check = |phase: &str, observed: u64, bound: u64, class: &str| {
        if observed > bound {
            out.push(format!(
                "{phase}: observed {observed} messages exceeds the {class} bound of {bound}"
            ));
        }
    };
    // loading — `build_initial_level_distributed` has three send sites,
    // each at most once per raw chunk edge: O(local_arcs) × per_run. The
    // replicated build path sends nothing.
    if distributed {
        check(
            "loading",
            cb.loading,
            3 * raw_edges,
            "O(local_arcs) per-run",
        );
    } else {
        check("loading", cb.loading, 0, "replicated-build zero-message");
    }
    // state propagation — `propagate_deltas` is O(deltas) × per_iteration
    // with keyed coalescing: each migrated vertex reaches at most `ranks`
    // distinct owners per iteration, never the per-arc rebuild volume.
    check(
        "state_propagation",
        cb.state_propagation,
        moves_total * ranks,
        "O(deltas) per-iteration",
    );
    // community update — two O(n_local) sites per inner iteration: the
    // sweep walks the local vertices, and each mover ships exactly two
    // Σ_tot messages (leave + join). `moves_total` is recovered exactly
    // from the move fractions, so this concrete bound is exact, and
    // anything that respects it trivially respects the O(n_local) class.
    check(
        "update",
        cb.update,
        2 * moves_total,
        "O(n_local) per-iteration (2 messages per move)",
    );
    // modularity — Σ_in is folded from the local row store, so the phase
    // is one message-free scalar allreduce per inner iteration.
    check("modularity", cb.modularity, 0, "message-free per-iteration");
    // reconstruction — per-level, see `recon_terms`.
    check(
        "reconstruction",
        cb.reconstruction,
        recon_terms,
        "per-level reconstruction",
    );
    // O(1) payload unit: wire bytes scale linearly with messages at the
    // fixed POD size — no hidden payload growth.
    check(
        "bytes_sent",
        r.bytes_sent,
        MSG_BYTES * r.comm.messages,
        "16-byte O(1) message",
    );
    out
}

/// The committed lockfile and a fresh extraction are byte-identical —
/// the in-repo equivalent of `xtask cost --check`.
#[test]
fn committed_spec_matches_fresh_extraction() {
    let committed = std::fs::read_to_string(workspace_root().join("results/cost_spec.json"))
        .expect("results/cost_spec.json is committed");
    assert_eq!(
        committed,
        spec().to_json(),
        "committed cost spec is stale; regenerate with `cargo run -p xtask -- cost`"
    );
}

/// Static invariants the rest of this suite leans on: the delta path is
/// classified as keyed O(deltas) per iteration, the v1 fallback as
/// O(local_arcs), and nothing in the tree ships an unbounded payload or
/// sits in a rank-tainted loop.
#[test]
fn spec_classifies_the_delta_path_and_bans_unbounded() {
    let s = spec();
    let keyed = s
        .sites
        .iter()
        .find(|c| c.site.ends_with("::propagate_deltas#0"))
        .expect("propagate_deltas site present");
    assert_eq!(keyed.op, "send_keyed");
    assert_eq!(keyed.payload, "O(deltas)");
    assert_eq!(keyed.multiplicity, "per_iteration");
    // The two Σ_tot announcements of the update sweep walk the local
    // vertex range (the full scan of DESIGN.md §13).
    for idx in 0..2 {
        let upd = s
            .sites
            .iter()
            .find(|c| c.site.ends_with(&format!("::refine#{idx}")))
            .expect("refine update site present");
        assert_eq!(upd.op, "send");
        assert_eq!(upd.payload, "O(n_local)");
        assert_eq!(upd.multiplicity, "per_iteration");
    }
    let v1 = s
        .sites
        .iter()
        .find(|c| c.site.ends_with("::send_full_rebuild#0"))
        .expect("v1 rebuild site present");
    assert_eq!(v1.op, "send");
    assert_eq!(v1.payload, "O(local_arcs)");
    assert_eq!(v1.multiplicity, "per_iteration");
    for c in &s.sites {
        assert_ne!(
            c.payload, "Unbounded",
            "{} ships an unbounded payload",
            c.site
        );
        assert_ne!(
            c.multiplicity, "rank_tainted_loop",
            "{} sits in a rank-tainted loop",
            c.site
        );
    }
}

/// The acceptance test: at 2/4/8 ranks, unperturbed and under every
/// perturbed schedule, the observed per-phase volumes respect the bounds
/// the committed classes imply.
#[test]
fn observed_volumes_respect_declared_bounds() {
    let edges = test_graph();
    let raw = edges.num_edges() as u64;
    for ranks in [2usize, 4, 8] {
        for seed in std::iter::once(None).chain(SEEDS.iter().map(|&s| Some(s))) {
            let r = ParallelLouvain::new(ParallelConfig {
                perturb_seed: seed,
                ..ParallelConfig::with_ranks(ranks)
            })
            .run(&edges);
            let v = violations(&r, ranks as u64, raw, false);
            assert!(
                v.is_empty(),
                "{ranks} ranks, seed {seed:?}: cost conformance violations:\n{}",
                v.join("\n")
            );
        }
    }
}

/// Distributed loading takes the spec's other initial arm
/// (`build_initial_level_distributed`, O(local_arcs) × per_run); its
/// observed volume must respect that bound too.
#[test]
fn distributed_build_volumes_respect_declared_bounds() {
    let el = test_graph();
    let raw = el.num_edges() as u64;
    let ranks = 2usize;
    let chunks: Vec<EdgeList> = (0..ranks)
        .map(|r| {
            let mut b = EdgeListBuilder::new(el.num_vertices());
            for (i, e) in el.edges().iter().enumerate() {
                if i % ranks == r {
                    b.add_edge(e.u, e.v, e.w);
                }
            }
            b.build()
        })
        .collect();
    let r = ParallelLouvain::new(ParallelConfig::with_ranks(ranks))
        .run_from_parts(el.num_vertices(), |rk| chunks[rk].clone());
    assert!(
        r.comm_breakdown.loading > 0,
        "distributed build should actually exchange edges"
    );
    let v = violations(&r, ranks as u64, raw, true);
    assert!(
        v.is_empty(),
        "distributed build: cost conformance violations:\n{}",
        v.join("\n")
    );
}

/// The seeded mutation: reverting state propagation to the v1 full
/// per-arc rebuild keeps the solver output bit-identical (so output
/// tests cannot catch it) but must blow through the O(deltas) bound —
/// the volume verifier, not bench drift, rejects the regression.
#[test]
fn v1_full_rebuild_is_rejected_by_the_volume_bounds() {
    let edges = test_graph();
    let raw = edges.num_edges() as u64;
    let delta = ParallelLouvain::new(ParallelConfig::with_ranks(2)).run(&edges);
    let v1 = ParallelLouvain::new(ParallelConfig {
        v1_state_rebuild: true,
        ..ParallelConfig::with_ranks(2)
    })
    .run(&edges);
    assert_eq!(
        v1.result.final_modularity.to_bits(),
        delta.result.final_modularity.to_bits(),
        "the v1 rebuild must be behavior-preserving (same modularity)"
    );
    assert_eq!(
        v1.result.final_partition.labels(),
        delta.result.final_partition.labels(),
        "the v1 rebuild must be behavior-preserving (same partition)"
    );
    assert!(
        v1.comm_breakdown.state_propagation > delta.comm_breakdown.state_propagation,
        "the v1 rebuild should ship strictly more state-propagation volume"
    );
    let v = violations(&v1, 2, raw, false);
    assert!(
        v.iter().any(|m| m.starts_with("state_propagation")),
        "the v1 per-arc rebuild must violate the O(deltas) state-propagation \
         bound; got violations: {v:?}"
    );
}

/// The CLI gate end to end: `cost --check` passes against the committed
/// lockfile and fails (with the exact regeneration hint) against a
/// seeded stale copy supplied via `--spec-path`.
#[test]
fn cost_check_cli_passes_on_tree_and_fails_on_seeded_mutation() {
    let ok = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["cost", "--check"])
        .output()
        .expect("xtask binary runs");
    assert!(
        ok.status.success(),
        "cost --check failed on the committed tree: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    let committed = std::fs::read_to_string(workspace_root().join("results/cost_spec.json"))
        .expect("committed spec readable");
    let mutated = committed.replacen("\"O(deltas)\"", "\"O(local_arcs)\"", 1);
    assert_ne!(committed, mutated, "mutation seed found nothing to change");
    let stale_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("stale_cost_spec.json");
    std::fs::write(&stale_path, mutated).expect("tmp spec written");

    let bad = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args([
            "cost",
            "--check",
            "--spec-path",
            stale_path.to_str().expect("utf-8 tmp path"),
        ])
        .output()
        .expect("xtask binary runs");
    assert!(
        !bad.status.success(),
        "cost --check accepted a mutated spec"
    );
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("stale") && stderr.contains("cargo run -p xtask -- cost"),
        "stale diagnostic must carry the regeneration hint: {stderr}"
    );
}
