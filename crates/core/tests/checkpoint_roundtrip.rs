//! Property tests for the checkpoint serialization layer (DESIGN.md
//! §14), driven by the PR 4 mixed-magnitude weight generators: weights
//! spanning nine orders of magnitude produce the f64 bit patterns where
//! any render→parse rounding loss becomes visible immediately.
//!
//! Three properties:
//!
//! * a `Checkpoint` whose float fields are folds of mixed-magnitude
//!   weights round-trips through render→parse **bit-exactly**;
//! * end to end, a crash-recovered run on a proptest-generated
//!   mixed-magnitude graph — recovery restores solver state through the
//!   full serialize→parse→validate path — matches the fault-free run
//!   bitwise;
//! * every strict prefix of a rendered checkpoint (torn-write
//!   corruption) is rejected with the named [`CheckpointError`], never
//!   restored from silently.

use louvain_core::checkpoint::{Checkpoint, CheckpointError, LevelSnapshot};
use louvain_core::parallel::{ParallelConfig, ParallelLouvain};
use louvain_graph::edgelist::{EdgeList, EdgeListBuilder};
use louvain_runtime::FaultPlan;
use proptest::prelude::*;

/// The PR 4 mixed-magnitude weight palette (1e8 / 0.1 / 0.3 and
/// friends): sums over these are inexact in every fold order, so a
/// round-trip that loses even one ulp fails the bitwise comparison.
const WEIGHTS: [f64; 6] = [1e8, 0.1, 0.3, 1e-9, 7.25, 0.333_333_333_333_333_3];

fn arb_mixed_graph(n_max: u32, m_max: usize) -> impl Strategy<Value = EdgeList> {
    (3..n_max).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 0..WEIGHTS.len()), n as usize..m_max).prop_map(
            move |edges| {
                let mut b = EdgeListBuilder::new(n as usize);
                for (u, v, w) in edges {
                    b.add_edge(u, v, WEIGHTS[w]);
                }
                b.build()
            },
        )
    })
}

/// A structurally valid checkpoint whose every float field is a fold of
/// mixed-magnitude weights (bit patterns a real solver run produces).
fn checkpoint_of(picks: &[usize], labels: &[u8]) -> Checkpoint {
    let n = labels.len();
    let fold = |skip: usize| -> u64 {
        picks
            .iter()
            .skip(skip)
            .fold(0.0f64, |acc, &i| acc + WEIGHTS[i % WEIGHTS.len()])
            .to_bits()
    };
    Checkpoint {
        rank: 0,
        ranks: 2,
        next_level: 1,
        s_bits: fold(0),
        input_edges: picks.len() as u64,
        q_prev_level_bits: fold(1),
        cache_invalidations: 3,
        n: n as u64,
        in_keys: (0..n as u64).collect(),
        in_w_bits: (0..n).map(fold).collect(),
        k_bits: (0..n).map(|i| fold(i + 1)).collect(),
        label: labels.iter().map(|&l| u32::from(l)).collect(),
        tot_bits: (0..n).map(|i| fold(i / 2)).collect(),
        size: vec![1; n],
        orig_comm: (0..n as u32).collect(),
        orig_vertices: (0..n as u32).collect(),
        part_kind: "modulo".into(),
        part_owners: vec![],
        levels: vec![LevelSnapshot {
            num_vertices: n as u64,
            num_communities: n as u64 / 2 + 1,
            modularity_bits: fold(2),
            inner_iterations: 2,
            move_fraction_bits: vec![fold(0), fold(3)],
            q_trace_bits: vec![fold(2)],
        }],
        level_orig_comms: vec![(0..n as u32).collect()],
        protocol_log: vec!["ReduceF64".into(), "SimSync".into()],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// render → parse is the identity on bit patterns, for every fold
    /// of mixed-magnitude weights.
    #[test]
    fn checkpoint_round_trips_mixed_magnitude_folds(
        picks in proptest::collection::vec(0usize..WEIGHTS.len(), 4..40),
        labels in proptest::collection::vec(0u8..6, 3..24),
    ) {
        let cp = checkpoint_of(&picks, &labels);
        let back = Checkpoint::parse(&cp.to_json().render()).expect("valid checkpoint restores");
        prop_assert_eq!(back, cp); // PartialEq compares stored bits
    }

    /// A torn checkpoint write — any strict prefix of the rendered text
    /// — is rejected with the named error, never half-restored.
    #[test]
    fn truncated_checkpoints_are_rejected_with_named_error(
        picks in proptest::collection::vec(0usize..WEIGHTS.len(), 4..20),
        labels in proptest::collection::vec(0u8..6, 3..12),
        cut in 0.0f64..1.0,
    ) {
        let rendered = checkpoint_of(&picks, &labels).to_json().render();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let at = ((rendered.len() - 1) as f64 * cut) as usize;
        // Cut on a char boundary (the render is ASCII, but stay safe).
        let at = (0..=at).rev().find(|&i| rendered.is_char_boundary(i)).unwrap_or(0);
        let err = Checkpoint::parse(&rendered[..at]).expect_err("prefix must not validate");
        prop_assert!(
            matches!(err, CheckpointError::Malformed(_) | CheckpointError::Missing(_)),
            "unexpected rejection: {err}"
        );
    }
}

proptest! {
    // The end-to-end case runs three full solves per input; keep the
    // case count modest so the suite stays in PR-gate budget.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash recovery on arbitrary mixed-magnitude graphs: the restore
    /// path (serialize → parse → validate → resume) must reproduce the
    /// fault-free run bit for bit.
    #[test]
    fn recovery_round_trip_is_bit_exact_on_mixed_magnitude_graphs(
        el in arb_mixed_graph(24, 60),
        seed_raw in 0u64..1000,
    ) {
        let seed = (seed_raw != 0).then_some(seed_raw); // 0 = unperturbed
        let cfg = || ParallelConfig {
            perturb_seed: seed,
            record_protocol: true,
            checkpoint_every_level: 1,
            ..ParallelConfig::with_ranks(2)
        };
        let baseline = ParallelLouvain::new(cfg()).run(&el);
        // Aim past the first level boundary when one exists (restore
        // from a real checkpoint), else pre-checkpoint (restart from
        // scratch) — both go through the serialization layer's hands.
        let at_clock = baseline
            .level_boundary_clocks
            .first()
            .map_or(1.0, |c| c + 0.5);
        let recovered = ParallelLouvain::new(ParallelConfig {
            fault_plan: Some(FaultPlan::crash(1, at_clock)),
            ..cfg()
        })
        .run(&el);
        prop_assert_eq!(recovered.faults.crashes, 1);
        prop_assert_eq!(recovered.recovery_replays, 1);
        prop_assert_eq!(
            recovered.result.final_modularity.to_bits(),
            baseline.result.final_modularity.to_bits()
        );
        prop_assert_eq!(
            recovered.result.final_partition.labels(),
            baseline.result.final_partition.labels()
        );
        prop_assert_eq!(&recovered.protocol_logs, &baseline.protocol_logs);
    }
}
