//! The benchmark's workloads, generated from the seed alone.

use louvain_graph::gen::rmat::{generate_rmat, RmatConfig};
use louvain_graph::{io, registry, EdgeList};

/// Seed shared with `BENCH_louvain.json`; also the seed of the
/// malformed-input copies, which must not depend on `--seed`.
pub const DEFAULT_SEED: u64 = 1_105_325;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The registry `amazon` stand-in (LFR, μ = 0.30).
    LfrAmazon,
    /// The same graph, with checkpoints and one crash per distributed
    /// solve.
    LfrAmazonCkpt,
    /// Graph500 R-MAT at scale 14.
    Rmat14,
    /// The registry `dblp` stand-in (LFR, μ = 0.35), with checkpoints and
    /// one crash per distributed solve.
    LfrDblpCkpt,
}

/// A generated workload: the edges, their rendered text (the input the
/// load path parses) and the planted partition when there is one.
pub struct Input {
    pub edges: EdgeList,
    pub text: Vec<u8>,
    pub planted: Option<Vec<u32>>,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LfrAmazon,
        Workload::LfrAmazonCkpt,
        Workload::Rmat14,
        Workload::LfrDblpCkpt,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::LfrAmazon => "lfr-amazon",
            Workload::LfrAmazonCkpt => "lfr-amazon-ckpt",
            Workload::Rmat14 => "rmat-14",
            Workload::LfrDblpCkpt => "lfr-dblp-ckpt",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distributed solves checkpoint at every level boundary and recover
    /// from one crash.
    #[must_use]
    pub fn checkpoints(self) -> bool {
        matches!(self, Workload::LfrAmazonCkpt | Workload::LfrDblpCkpt)
    }

    /// Each round also parses the malformed copies of [`malformed`].
    #[must_use]
    pub fn parses_malformed(self) -> bool {
        self == Workload::LfrAmazon
    }

    /// Generates the workload from `seed`.
    ///
    /// # Panics
    /// If the registry lacks the stand-in (a build of the wrong tree).
    #[must_use]
    pub fn generate(self, seed: u64) -> Input {
        let (edges, planted) = match self {
            Workload::LfrAmazon | Workload::LfrAmazonCkpt | Workload::LfrDblpCkpt => {
                let name = if self == Workload::LfrDblpCkpt {
                    "dblp"
                } else {
                    "amazon"
                };
                let g = registry::by_name(name)
                    .unwrap_or_else(|| panic!("registry has no `{name}` stand-in"))
                    .generate(seed);
                (g.edges, g.ground_truth)
            }
            Workload::Rmat14 => (generate_rmat(&RmatConfig::graph500(14), seed), None),
        };
        let text = render(&edges);
        Input {
            edges,
            text,
            planted,
        }
    }
}

/// The edge-list text the `louvain` CLI would read for `edges`.
fn render(edges: &EdgeList) -> Vec<u8> {
    let mut text = Vec::new();
    // Writing into a Vec cannot fail.
    let _ = io::write_edge_list(edges, &mut text);
    text
}

/// Four one-line-corrupted copies of the `lfr-amazon` edge list of the
/// default seed, each of which `read_edge_list` should refuse: a NaN
/// weight, a negative weight, a vertex id of `u32::MAX` (in place of the
/// `# n` header, so that the vertex count comes from the ids), and an id
/// at the declared `# n`. The copies do not depend on `--seed`.
#[must_use]
pub fn malformed() -> Vec<(&'static str, Vec<u8>)> {
    let base =
        String::from_utf8(Workload::LfrAmazon.generate(DEFAULT_SEED).text).unwrap_or_default();
    let lines: Vec<&str> = base.lines().collect();
    let n = lines
        .iter()
        .find_map(|l| l.strip_prefix("# n "))
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let header = 0;
    let last = lines.len().saturating_sub(1);
    let bad_lines: [(&'static str, usize, String); 4] = [
        ("nan_weight", last, "0 1 NaN".into()),
        ("negative_weight", last, "0 1 -1".into()),
        ("id_u32_max", header, format!("{} 1", u32::MAX)),
        ("id_at_declared_n", last, format!("{n} 1")),
    ];
    bad_lines
        .into_iter()
        .map(|(what, at, bad)| {
            let mut copy = lines.clone();
            copy[at] = &bad;
            let mut text = copy.join("\n");
            text.push('\n');
            (what, text.into_bytes())
        })
        .collect()
}
