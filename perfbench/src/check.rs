//! Output checks computed apart from the solvers.
//!
//! Nothing here calls `louvain_metrics`: modularity is recomputed from the
//! edge list and the labels alone, so a fault shared by a solver and the
//! metrics crate cannot hide itself.

use louvain_core::LouvainResult;
use louvain_graph::EdgeList;

/// Largest accepted gap between a solver's reported modularity and the
/// recomputed one.
pub const Q_TOLERANCE: f64 = 1e-9;

/// Newman modularity of `labels` on `edges`:
/// `Q = Σ_c [ in_c / 2m − (tot_c / 2m)² ]`, where an internal edge adds
/// `2w` to `in_c` (a self-loop too, since `A_uu = 2w`) and every edge adds
/// `w` to the total of each endpoint's community.
#[must_use]
pub fn modularity(edges: &EdgeList, labels: &[u32]) -> f64 {
    let k = labels.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut inside = vec![0.0f64; k];
    let mut total = vec![0.0f64; k];
    let mut two_m = 0.0f64;
    for e in edges.edges() {
        let (cu, cv) = (labels[e.u as usize] as usize, labels[e.v as usize] as usize);
        total[cu] += e.w;
        total[cv] += e.w;
        if cu == cv {
            inside[cu] += 2.0 * e.w;
        }
        two_m += 2.0 * e.w;
    }
    if two_m <= 0.0 {
        return 0.0;
    }
    inside
        .iter()
        .zip(&total)
        .map(|(i, t)| i / two_m - (t / two_m) * (t / two_m))
        .sum()
}

/// Number of distinct labels.
fn distinct(labels: &[u32]) -> usize {
    let mut seen: Vec<u32> = labels.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// `true` when `fine` refines `coarse`: every `fine` community lies inside
/// one `coarse` community.
fn refines(fine: &[u32], coarse: &[u32]) -> bool {
    if fine.len() != coarse.len() {
        return false;
    }
    let k = fine.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut image: Vec<Option<u32>> = vec![None; k];
    fine.iter()
        .zip(coarse)
        .all(|(&f, &c)| match image[f as usize] {
            Some(seen) => seen == c,
            None => {
                image[f as usize] = Some(c);
                true
            }
        })
}

/// Checks one solver result against `edges`: one label per input vertex,
/// the reported modularity (recomputed here), and the hierarchy: each
/// level partition refines the next, and the final partition is one of
/// them (the last for the sequential solvers; the distributed solver
/// reports its best level), with that level's community count.
///
/// # Errors
/// Names the first property that does not hold.
pub fn solve(edges: &EdgeList, res: &LouvainResult) -> Result<(), String> {
    let labels = res.final_partition.labels();
    let n = edges.num_vertices();
    if labels.len() != n {
        return Err(format!("{} labels for {n} vertices", labels.len()));
    }
    let q = modularity(edges, labels);
    if !q.is_finite() || (q - res.final_modularity).abs() > Q_TOLERANCE {
        return Err(format!(
            "modularity {q} recomputed, {} reported",
            res.final_modularity
        ));
    }
    if res.level_partitions.len() != res.levels.len() {
        return Err(format!(
            "{} level partitions for {} levels",
            res.level_partitions.len(),
            res.levels.len()
        ));
    }
    for (i, pair) in res.level_partitions.windows(2).enumerate() {
        if !refines(pair[0].labels(), pair[1].labels()) {
            return Err(format!("level {i} does not project onto level {}", i + 1));
        }
    }
    let communities = distinct(labels);
    let Some(level) = res
        .level_partitions
        .iter()
        .rposition(|p| p.labels() == labels)
    else {
        return if res.levels.is_empty() && communities == n {
            Ok(())
        } else {
            Err("the final partition is none of the level partitions".into())
        };
    };
    let reported = res.levels[level].num_communities;
    if communities != reported || res.final_partition.num_communities() != reported {
        return Err(format!(
            "{communities} distinct labels, level {level} reports {reported} communities"
        ));
    }
    Ok(())
}

/// Checks that `res` repeats `first` bit for bit: labels, modularity
/// and level count.
///
/// # Errors
/// Names the first difference.
pub fn same(first: &LouvainResult, res: &LouvainResult) -> Result<(), String> {
    if res.final_modularity.to_bits() != first.final_modularity.to_bits() {
        return Err(format!(
            "modularity {} differs from {}",
            res.final_modularity, first.final_modularity
        ));
    }
    if res.num_levels() != first.num_levels() {
        return Err(format!(
            "{} levels differ from {}",
            res.num_levels(),
            first.num_levels()
        ));
    }
    if res.final_partition.labels() != first.final_partition.labels() {
        return Err("labels differ".into());
    }
    Ok(())
}

/// Checks that `parsed` holds exactly the edges of `generated`.
///
/// # Errors
/// Names the first difference.
pub fn parsed(generated: &EdgeList, parsed: &EdgeList) -> Result<(), String> {
    if parsed.num_vertices() != generated.num_vertices() {
        return Err(format!(
            "{} vertices parsed, {} generated",
            parsed.num_vertices(),
            generated.num_vertices()
        ));
    }
    if parsed.edges() != generated.edges() {
        return Err("parsed edges differ from the generated ones".into());
    }
    Ok(())
}

/// Self-test of the checker, run before anything is timed: the hand
/// computation on two 4-cliques joined by one edge, and the rejection of
/// a solver result with one label corrupted.
///
/// # Errors
/// Names the self-test that failed.
pub fn self_test(edges: &EdgeList, res: &LouvainResult) -> Result<(), String> {
    let cliques = two_cliques();
    // m = 13 edges; each clique has 6 internal edges and total degree 13.
    let expected = 2.0 * (12.0 / 26.0 - 0.25);
    let q = modularity(&cliques, &[0, 0, 0, 0, 1, 1, 1, 1]);
    if (q - expected).abs() > 1e-15 {
        return Err(format!("two 4-cliques: Q = {q}, expected {expected}"));
    }
    solve(edges, res).map_err(|e| format!("uncorrupted result rejected: {e}"))?;
    match solve(edges, &corrupt_one_label(res)) {
        Err(_) => Ok(()),
        Ok(()) => Err("a result with one corrupted label passed the checks".into()),
    }
}

/// Two 4-cliques `{0..3}` and `{4..7}` joined by the edge `3–4`.
fn two_cliques() -> EdgeList {
    let mut b = louvain_graph::edgelist::EdgeListBuilder::new(8);
    for base in [0u32, 4] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(base + i, base + j, 1.0);
            }
        }
    }
    b.add_edge(3, 4, 1.0);
    b.build()
}

/// `res` with vertex 0 moved into the community of the first vertex
/// outside its own (or into a fresh one), everything else kept.
fn corrupt_one_label(res: &LouvainResult) -> LouvainResult {
    let mut labels = res.final_partition.labels().to_vec();
    let own = labels[0];
    labels[0] = labels
        .iter()
        .copied()
        .find(|&c| c != own)
        .unwrap_or(own + 1);
    let mut bad = res.clone();
    bad.final_partition = louvain_metrics::Partition::from_labels(&labels);
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_core::{SeqConfig, SequentialLouvain};

    #[test]
    fn two_cliques_match_the_hand_computed_value() {
        let q = modularity(&two_cliques(), &[0, 0, 0, 0, 1, 1, 1, 1]);
        assert!((q - 0.423_076_923_076_923_1).abs() < 1e-15, "{q}");
    }

    #[test]
    fn one_corrupted_label_is_a_failed_check() {
        let el = two_cliques();
        let res = SequentialLouvain::new(SeqConfig::default()).run(&el.to_csr());
        assert!(solve(&el, &res).is_ok());
        assert!(solve(&el, &corrupt_one_label(&res)).is_err());
        assert!(self_test(&el, &res).is_ok());
    }

    #[test]
    fn refinement_is_directional() {
        assert!(refines(&[0, 1, 2, 2], &[0, 0, 1, 1]));
        assert!(!refines(&[0, 0, 1, 1], &[0, 1, 1, 1]));
    }

    #[test]
    fn repeat_check_sees_a_changed_label() {
        let el = two_cliques();
        let res = SequentialLouvain::new(SeqConfig::default()).run(&el.to_csr());
        assert!(same(&res, &res).is_ok());
        assert!(same(&res, &corrupt_one_label(&res)).is_err());
    }
}
