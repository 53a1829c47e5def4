//! Static communication-cost analysis: the symbolic volume verifier
//! behind rules `M1`/`A1` and the `xtask cost` subcommand.
//!
//! PR 5's phase graph proves the *order* of collectives; this module
//! proves their *volume*. The paper's scalability argument (Fig. 8)
//! rests on per-phase message counts — loading is O(|E|) once,
//! refinement traffic is O(n_local) per iteration, and PR 4's delta
//! compression cut state propagation from O(local_arcs) per iteration
//! to O(deltas). Nothing but a bench-drift snapshot guarded that last
//! property until now. Here an abstract interpretation over the same
//! stripped token stream assigns every collective/exchange call site a
//! symbolic cost class:
//!
//! * **payload bound** — the lattice `O(1) ≤ O(deltas) ≤ O(n_local) ≤
//!   O(local_arcs) ≤ Unbounded`, derived from the provenance of the
//!   buffer (for vector collectives), the coalescing key (for
//!   `send_keyed`: dedup bounds a phase's volume by distinct keys), or
//!   the enclosing data-bounded loops (for plain `send`);
//! * **invocation multiplicity** — `per_run`, `per_level` (inside the
//!   `max_levels` driver loop), `per_iteration` (inside the
//!   `max_inner_iterations` loop), or `rank_tainted_loop` (a loop whose
//!   trip count is rank-local — already an R5 finding, surfaced here so
//!   the spec never understates such a site).
//!
//! Buffer provenance is a deliberately *optimistic* heuristic, like the
//! taint analysis in `phasegraph`: an expression's class is the join of
//! its *recognized* components (a seed table of solver quantities,
//! function parameters, numeric literals, and a per-function assignment
//! fixpoint); unrecognized identifiers are ignored so that slice
//! plumbing such as `cache.out_srcs[off[li]..off[li + 1]]` still
//! classifies as `O(local_arcs)` via the `out_srcs` seed. Only an
//! expression in which *nothing* is recognized becomes `Unbounded` —
//! which is exactly when rule **M1** fires. Rule **A1** is a lexical
//! companion: a `Vec::new()`/`vec![]` grown with `push`/`extend` inside
//! a loop of an `Event::Enter`/`Event::Exit`-bracketed (traced) phase
//! region is a per-iteration allocation on the hot path.
//!
//! The interprocedural walk starts at the solver entry point
//! ([`crate::phasegraph::PROTOCOL_ENTRY_FN`] in
//! [`crate::phasegraph::PROTOCOL_ENTRY_FILE`]) and descends through
//! `crates/core/src` only: callees outside the solver crate are opaque
//! (their communication surface is the builtin collective API, which is
//! classified at the caller's call site). The result is emitted as the
//! schema-versioned lockfile `results/cost_spec.json` (`xtask cost`,
//! `--check`/`--update` like `xtask protocol`); the dynamic half of the
//! contract lives in `crates/xtask/tests/cost_conformance.rs`, which
//! maps each class to the PR 3/4 trace counters and rejects a seeded
//! reversion to the v1 per-arc rebuild volume.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::lint::{
    block_end, code_stream_masked, is_ident_char, keyword_at, matches_at, scan_lines, skip_ws,
    test_region_mask, walk, Rule,
};
use crate::phasegraph::{
    collect_assignments, expr_tainted, extract_fns, idents_in, is_keyword, match_paren,
    prev_is_ident, read_word, taint_set, FnDef, ProtocolFinding, Stream, PROTOCOL_ENTRY_FILE,
    PROTOCOL_ENTRY_FN,
};

/// Schema version of `results/cost_spec.json`. Bump when the class
/// lattice, the site grammar, or the JSON layout changes.
///
/// v2: the lattice gained `O(frontier)` between `O(deltas)` and
/// `O(n_local)` — the active-vertex worklist of the frontier-scheduled
/// local-move phase.
///
/// v3: `O(frontier)` left the lattice again with the frontier scheduler
/// (DESIGN.md §13).
pub const COST_SPEC_SCHEMA_VERSION: u32 = 3;

/// Directories scanned for cost sites. Only the solver crate: runtime
/// internals implement the collectives and would otherwise contribute
/// their channel plumbing as bogus sites.
const COST_DIRS: [&str; 1] = ["crates/core/src"];

// ---------------------------------------------------------------------------
// The cost lattice.
// ---------------------------------------------------------------------------

/// Symbolic payload bound of one site, per phase (for point-to-point
/// sends: messages per exchange phase; for collectives: buffer length
/// per invocation, joined with any enclosing data-bounded loops).
/// Declaration order is lattice order, so `Ord::max` is the join.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PayloadClass {
    /// Constant (scalars, rank counts, fixed histogram bins).
    O1,
    /// Bounded by the migration deltas of the iteration (vertices that
    /// changed community).
    ODeltas,
    /// Bounded by the rank's vertex count at the current level.
    ONLocal,
    /// Bounded by the rank's arc (In-/Out-Table entry) count.
    OLocalArcs,
    /// No recognized bound — always a defect (rule `M1`).
    Unbounded,
}

impl PayloadClass {
    /// Spec spelling; also the vocabulary of the conformance tests.
    pub fn as_str(self) -> &'static str {
        match self {
            PayloadClass::O1 => "O(1)",
            PayloadClass::ODeltas => "O(deltas)",
            PayloadClass::ONLocal => "O(n_local)",
            PayloadClass::OLocalArcs => "O(local_arcs)",
            PayloadClass::Unbounded => "Unbounded",
        }
    }
}

/// How often a site runs, relative to the solver driver loops.
/// Declaration order is lattice order (more often = higher).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Multiplicity {
    /// Outside every driver loop.
    PerRun,
    /// Inside the `max_levels` loop (Algorithm 2's outer loop).
    PerLevel,
    /// Inside the `max_inner_iterations` loop (Algorithm 3).
    PerIteration,
    /// Inside a loop with a rank-local trip count (an R5 hazard; the
    /// spec records it so the bound is never silently understated).
    RankTainted,
}

impl Multiplicity {
    /// Stable string form used in `cost_spec.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Multiplicity::PerRun => "per_run",
            Multiplicity::PerLevel => "per_level",
            Multiplicity::PerIteration => "per_iteration",
            Multiplicity::RankTainted => "rank_tainted_loop",
        }
    }
}

/// Abstract class of an expression: an optional ground bound joined
/// with the (still-unbound) function parameters it derives from. A
/// value with neither is *unknown* — nothing about it was recognized.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct AbsClass {
    base: Option<PayloadClass>,
    params: BTreeSet<String>,
}

impl AbsClass {
    fn known(c: PayloadClass) -> Self {
        AbsClass {
            base: Some(c),
            params: BTreeSet::new(),
        }
    }

    /// Nothing recognized: no ground bound, no parameter provenance.
    fn is_unknown(&self) -> bool {
        self.base.is_none() && self.params.is_empty()
    }

    fn join(&mut self, other: &AbsClass) {
        self.base = match (self.base, other.base) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.params.extend(other.params.iter().cloned());
    }
}

/// Ground class of a recognized solver quantity. The table is the
/// analyzer's domain knowledge: it names the buffers and counts the
/// solver actually ships (DESIGN.md §12 documents the heuristic). An
/// identifier absent here is either bound through a parameter or an
/// assignment, or contributes nothing to its expression's class.
fn seed_class(w: &str) -> Option<PayloadClass> {
    Some(match w {
        // Migration deltas: the PR 4 steady-state currency.
        "migrated" | "deltas" | "moved" => PayloadClass::ODeltas,
        // Arc-shaped collections (In-/Out-Table rows, edge chunks).
        "in_table" | "out_table" | "chunk" | "edges" | "triples" | "pairs" | "out_srcs"
        | "arcs" => PayloadClass::OLocalArcs,
        // Vertex-shaped collections and counts. `loads` is the
        // per-vertex arc-load vector the balanced partition builder
        // allreduces once per level boundary (DESIGN.md §15).
        "local_n" | "label" | "labels" | "labels_f64" | "owned" | "distinct" | "local" | "best"
        | "orig_comm" | "srcs" | "tot" | "size_local" | "size_snap" | "internal" | "m_u" | "k"
        | "size" | "loads" => PayloadClass::ONLocal,
        // Constants: rank counts, fixed histogram geometry, scalars.
        "hist" | "bins" | "histogram_bins" | "p" | "ranks" | "num_ranks" | "counts" | "offsets"
        | "dest" | "rank" => PayloadClass::O1,
        _ => return None,
    })
}

/// Class of the expression `stream[s..e]`: the join of every
/// *recognized* component (seeds, environment entries, numeric
/// literals); unrecognized identifiers are skipped. Unknown only when
/// nothing at all is recognized.
fn expr_class(stream: &Stream, s: usize, e: usize, env: &BTreeMap<String, AbsClass>) -> AbsClass {
    let mut acc = AbsClass::default();
    let mut i = s;
    while i < e.min(stream.len()) {
        let c = stream[i].0;
        if is_ident_char(c) && !prev_is_ident(stream, i) {
            let w = read_word(stream, i);
            let len = w.len().max(1);
            if w.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                acc.join(&AbsClass::known(PayloadClass::O1));
            } else if !is_keyword(&w) && w != "_" {
                if let Some(cl) = seed_class(&w) {
                    acc.join(&AbsClass::known(cl));
                } else if let Some(a) = env.get(&w) {
                    acc.join(&a.clone());
                }
            }
            i += len;
        } else {
            i += 1;
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Per-function cost summaries.
// ---------------------------------------------------------------------------

/// Why a loop matters to the cost of the sites it encloses.
#[derive(Clone, Debug)]
enum LoopMark {
    /// The `max_levels` driver loop: multiplicity becomes `per_level`.
    Level,
    /// The `max_inner_iterations` loop: `per_iteration`.
    Iteration,
    /// Rank-local trip count: `rank_tainted_loop`.
    Tainted,
    /// Data-bounded loop: its class joins enclosed payload bounds.
    Data(AbsClass),
}

/// One node of a function's cost summary. Branches are flattened — a
/// site on any arm is a site; only loops and calls shape the cost.
#[derive(Clone, Debug)]
enum CNode {
    Site {
        /// Source-order index within the enclosing function — the
        /// stable spec identity (line numbers would churn the lockfile
        /// on every unrelated edit).
        ordinal: usize,
        op: String,
        /// For `send`: `O(1)` (volume comes from the loop marks). For
        /// `send_keyed`: the coalescing key's class. For vector
        /// collectives: the buffer argument's class.
        payload: AbsClass,
        keyed: bool,
        line: usize,
    },
    Call {
        name: String,
        method: bool,
        args: Vec<AbsClass>,
    },
    Loop {
        mark: LoopMark,
        body: Vec<CNode>,
    },
}

/// The collective surface classified at call sites (the
/// `phasegraph::BUILTIN_EFFECTS` names minus the structural
/// `exchange`/`finish` pair, plus the point-to-point sends). Each entry
/// carries whether its first argument is a payload buffer.
const SITE_OPS: [(&str, bool); 16] = [
    ("barrier", false),
    ("allreduce_sum", false),
    ("allreduce_max", false),
    ("allreduce_min", false),
    ("allreduce_sum_u64", false),
    ("allreduce_max_u64", false),
    ("allreduce_sum_vec", true),
    ("allgather_f64", true),
    ("gather_f64", true),
    ("broadcast_f64", true),
    ("exscan_sum_u64", false),
    ("scan_sum_u64", false),
    ("sim_sync", false),
    ("sim_time_units", false),
    ("send", false),
    ("send_keyed", false),
];

fn site_op(w: &str) -> Option<bool> {
    SITE_OPS
        .iter()
        .find(|&&(name, _)| name == w)
        .map(|&(_, vec_payload)| vec_payload)
}

/// Split a call's argument span `[s, e)` at top-level commas.
fn split_args(stream: &Stream, s: usize, e: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = skip_ws(stream, s);
    if start >= e {
        return out;
    }
    let mut i = start;
    while i < e {
        let c = stream[i].0;
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                out.push((start, i));
                start = skip_ws(stream, i + 1);
            }
            _ => {}
        }
        i += 1;
    }
    if start < e {
        out.push((start, e));
    }
    out
}

/// Does the argument span hold an array literal (`&[..]`/`[..]`)? Those
/// are fixed-arity buffers — `O(1)` regardless of element provenance
/// (e.g. `&[owned.len() as f64]`).
fn is_array_literal(stream: &Stream, s: usize, e: usize) -> bool {
    let mut i = skip_ws(stream, s);
    if i < e && stream[i].0 == '&' {
        i = skip_ws(stream, i + 1);
    }
    i < e && stream[i].0 == '['
}

/// Parameter names of a function, one `Vec` per position (a tuple
/// pattern binds several names to one position). The `self` receiver is
/// skipped so positions align with method-call arguments.
fn param_names(stream: &Stream, f: &FnDef) -> Vec<Vec<String>> {
    let s = f.params_open + 1;
    let e = f.params_end.saturating_sub(1);
    let mut chunks = Vec::new();
    let mut depth = 0i32;
    let mut start = s;
    let mut i = s;
    while i < e {
        let c = stream[i].0;
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '<' => depth += 1,
            '>' if stream[i - 1].0 != '-' && stream[i - 1].0 != '=' => depth -= 1,
            ',' if depth == 0 => {
                chunks.push((start, i));
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < e {
        chunks.push((start, e));
    }
    let mut out = Vec::new();
    for &(cs, ce) in &chunks {
        // Name pattern ends at the top-level `:` (not `::`).
        let mut depth = 0i32;
        let mut colon = ce;
        let mut j = cs;
        while j < ce {
            let c = stream[j].0;
            match c {
                '(' | '[' | '<' => depth += 1,
                ')' | ']' | '>' => depth -= 1,
                ':' if depth == 0 => {
                    if stream.get(j + 1).map(|&(c, _)| c) == Some(':') {
                        j += 2;
                        continue;
                    }
                    colon = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let names = idents_in(stream, cs, colon);
        if colon == ce && names.is_empty() {
            // Receiver chunk (`&mut self`): no argument position.
            continue;
        }
        out.push(names);
    }
    out
}

/// Mark for one loop header: driver-loop identifiers first, then the
/// R5 taint heuristic, then the data class.
fn loop_mark(
    stream: &Stream,
    s: usize,
    e: usize,
    env: &BTreeMap<String, AbsClass>,
    taints: &BTreeSet<String>,
) -> LoopMark {
    let ids = idents_in(stream, s, e);
    if ids.iter().any(|w| w == "max_levels") {
        return LoopMark::Level;
    }
    if ids.iter().any(|w| w == "max_inner_iterations") {
        return LoopMark::Iteration;
    }
    if expr_tainted(stream, s, e, taints) {
        return LoopMark::Tainted;
    }
    LoopMark::Data(expr_class(stream, s, e, env))
}

/// Find the first `{` at paren/bracket nesting depth 0 in `[s, e)`.
fn brace_at_depth0(stream: &Stream, s: usize, e: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = s;
    while i < e {
        match stream[i].0 {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '{' if depth == 0 => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Build the cost summary of `stream[s..e)`. Linear walk: branches
/// flatten, loops recurse, `emit_with` argument spans are skipped
/// entirely (tracing closures never run in a production build), call
/// sites are recorded with their argument classes and then walked
/// *through* so nested calls and sites are still seen.
fn walk_cost(
    stream: &Stream,
    s: usize,
    e: usize,
    env: &BTreeMap<String, AbsClass>,
    taints: &BTreeSet<String>,
    ordinal: &mut usize,
) -> Vec<CNode> {
    let mut out = Vec::new();
    let mut i = s;
    while i < e {
        if keyword_at(stream, i, "for") {
            // `for <pat> in <header> {`
            let mut j = i + 3;
            let mut depth = 0i32;
            let mut in_at = None;
            while j < e {
                match stream[j].0 {
                    '(' | '[' => depth += 1,
                    ')' | ']' => depth -= 1,
                    '{' if depth == 0 => break,
                    _ => {}
                }
                if depth == 0 && keyword_at(stream, j, "in") {
                    in_at = Some(j);
                    break;
                }
                j += 1;
            }
            let (hdr_s, open) = match in_at {
                Some(at) => match brace_at_depth0(stream, at + 2, e) {
                    Some(open) => (at + 2, open),
                    None => {
                        i += 3;
                        continue;
                    }
                },
                None => {
                    i += 3;
                    continue;
                }
            };
            let mark = loop_mark(stream, hdr_s, open, env, taints);
            let end = block_end(stream, open);
            let body = walk_cost(
                stream,
                open + 1,
                end.saturating_sub(1),
                env,
                taints,
                ordinal,
            );
            out.push(CNode::Loop { mark, body });
            i = end;
            continue;
        }
        if keyword_at(stream, i, "while") {
            let Some(open) = brace_at_depth0(stream, i + 5, e) else {
                i += 5;
                continue;
            };
            // A `while` trip count is opaque to the quantity seeds:
            // tainted conditions are an R5-class hazard, everything
            // else is conservatively unknown-bounded.
            let mark = if expr_tainted(stream, i + 5, open, taints) {
                LoopMark::Tainted
            } else {
                LoopMark::Data(AbsClass::default())
            };
            let end = block_end(stream, open);
            let body = walk_cost(
                stream,
                open + 1,
                end.saturating_sub(1),
                env,
                taints,
                ordinal,
            );
            out.push(CNode::Loop { mark, body });
            i = end;
            continue;
        }
        if keyword_at(stream, i, "loop") {
            let open = skip_ws(stream, i + 4);
            if stream.get(open).map(|&(c, _)| c) == Some('{') {
                let end = block_end(stream, open);
                let body = walk_cost(
                    stream,
                    open + 1,
                    end.saturating_sub(1),
                    env,
                    taints,
                    ordinal,
                );
                out.push(CNode::Loop {
                    mark: LoopMark::Data(AbsClass::default()),
                    body,
                });
                i = end;
                continue;
            }
            i = open;
            continue;
        }
        let c = stream[i].0;
        if is_ident_char(c) && !prev_is_ident(stream, i) {
            let w = read_word(stream, i);
            let after = skip_ws(stream, i + w.len());
            let open = (stream.get(after).map(|&(c, _)| c) == Some('(')).then_some(after);
            if w == "emit_with" {
                if let Some(open) = open {
                    i = match_paren(stream, open);
                    continue;
                }
            }
            if let (Some(open), false) = (open, is_keyword(&w)) {
                let method = i > 0 && stream[i - 1].0 == '.';
                let close = match_paren(stream, open);
                let args = split_args(stream, open + 1, close.saturating_sub(1));
                if let (Some(vec_payload), true) = (site_op(&w), method) {
                    let line = stream[i].1;
                    let (payload, keyed) = if w == "send_keyed" {
                        // Coalescing bounds a phase's volume by the
                        // distinct keys, overriding the loop structure.
                        let key = args
                            .get(1)
                            .map(|&(s, e)| expr_class(stream, s, e, env))
                            .unwrap_or_default();
                        (key, true)
                    } else if w == "send" {
                        (AbsClass::known(PayloadClass::O1), false)
                    } else if vec_payload {
                        let buf = match args.first() {
                            Some(&(s, e)) if is_array_literal(stream, s, e) => {
                                AbsClass::known(PayloadClass::O1)
                            }
                            Some(&(s, e)) => expr_class(stream, s, e, env),
                            None => AbsClass::default(),
                        };
                        (buf, false)
                    } else {
                        (AbsClass::known(PayloadClass::O1), false)
                    };
                    out.push(CNode::Site {
                        ordinal: *ordinal,
                        op: w,
                        payload,
                        keyed,
                        line,
                    });
                    *ordinal += 1;
                    i = close;
                    continue;
                }
                let arg_classes = args
                    .iter()
                    .map(|&(s, e)| expr_class(stream, s, e, env))
                    .collect();
                out.push(CNode::Call {
                    name: w.clone(),
                    method,
                    args: arg_classes,
                });
                // Walk *into* the argument span so nested calls/sites
                // are still summarized in caller context.
                i = open + 1;
                continue;
            }
            i += w.len().max(1);
            continue;
        }
        i += 1;
    }
    out
}

/// One analyzed function: its summary tree plus the environments the
/// site classes were computed under.
struct CFn {
    def: FnDef,
    params: Vec<Vec<String>>,
    tree: Vec<CNode>,
}

struct CFile {
    path: String,
    fns: Vec<CFn>,
}

/// Build the per-function environment: parameters are parametric (with
/// a seed bound when their name is a recognized quantity), then the
/// assignment fixpoint propagates classes through `let`/`for` patterns
/// and compound assignments. Seeds are immutable.
fn build_env(stream: &Stream, f: &FnDef, params: &[Vec<String>]) -> BTreeMap<String, AbsClass> {
    let mut env: BTreeMap<String, AbsClass> = BTreeMap::new();
    for names in params {
        for n in names {
            let mut a = AbsClass {
                base: seed_class(n),
                params: BTreeSet::new(),
            };
            a.params.insert(n.clone());
            env.insert(n.clone(), a);
        }
    }
    let body = (f.body_open + 1, f.body_end.saturating_sub(1));
    let assigns = collect_assignments(stream, body.0, body.1);
    for _ in 0..16 {
        let mut changed = false;
        for a in &assigns {
            let cls = expr_class(stream, a.rhs.0, a.rhs.1, &env);
            if cls.is_unknown() {
                continue;
            }
            for l in &a.lhs {
                if seed_class(l).is_some() {
                    continue;
                }
                let entry = env.entry(l.clone()).or_default();
                let before = entry.clone();
                entry.join(&cls);
                changed |= *entry != before;
            }
        }
        if !changed {
            break;
        }
    }
    env
}

fn analyze_cost_stream(path: &str, stream: &Stream) -> CFile {
    let fns = extract_fns(stream);
    let mut out = Vec::new();
    for f in fns {
        let params = param_names(stream, &f);
        let env = build_env(stream, &f, &params);
        let taints = taint_set(stream, f.body_open + 1, f.body_end.saturating_sub(1));
        let mut ordinal = 0usize;
        let tree = walk_cost(
            stream,
            f.body_open + 1,
            f.body_end.saturating_sub(1),
            &env,
            &taints,
            &mut ordinal,
        );
        out.push(CFn {
            def: f,
            params,
            tree,
        });
    }
    CFile {
        path: path.to_string(),
        fns: out,
    }
}

// ---------------------------------------------------------------------------
// Site resolution (shared by the spec walk and rule M1).
// ---------------------------------------------------------------------------

/// Resolve an abstract class against a caller binding: the ground base
/// joined with every *bound* parameter; `None` when nothing resolves.
fn resolve_abs(a: &AbsClass, binding: &BTreeMap<String, PayloadClass>) -> Option<PayloadClass> {
    let mut acc = a.base;
    for p in &a.params {
        if let Some(&c) = binding.get(p) {
            acc = Some(acc.map_or(c, |x| x.max(c)));
        }
    }
    acc
}

/// Is this site's payload `Unbounded` under the optimistic rule? Unbound
/// parameters are assumed caller-bounded; only a fully unknown
/// component (no base, no parameter provenance) is a defect.
fn site_unbounded(payload: &AbsClass, keyed: bool, data_marks: &[AbsClass]) -> bool {
    let data_unknown = data_marks.iter().any(AbsClass::is_unknown);
    if keyed {
        // A recognized key bounds the phase regardless of the loops.
        payload.is_unknown() && data_unknown
    } else {
        payload.is_unknown() || data_unknown
    }
}

// ---------------------------------------------------------------------------
// Lint rules M1 / A1 (single-file mode).
// ---------------------------------------------------------------------------

fn m1_walk(nodes: &[CNode], data: &mut Vec<AbsClass>, out: &mut Vec<ProtocolFinding>) {
    for n in nodes {
        match n {
            CNode::Site {
                op,
                payload,
                keyed,
                line,
                ..
            } => {
                if site_unbounded(payload, *keyed, data) {
                    out.push(ProtocolFinding {
                        line: *line,
                        rule: Rule::M1,
                        message: format!(
                            "collective payload classified `Unbounded`: this `{op}` ships a \
                             volume derived from no recognized solver quantity (bound the \
                             buffer or loop by a seeded/parametric quantity, or extend the \
                             seed table in crates/xtask/src/costgraph.rs)"
                        ),
                    });
                }
            }
            CNode::Loop { mark, body } => {
                if let LoopMark::Data(a) = mark {
                    data.push(a.clone());
                    m1_walk(body, data, out);
                    data.pop();
                } else {
                    m1_walk(body, data, out);
                }
            }
            CNode::Call { .. } => {}
        }
    }
}

/// Locate every `emit_with(..)` argument span and classify it:
/// `Some(true)` for `Event::Enter`, `Some(false)` for `Event::Exit`,
/// `None` for counters and other events. Shared by the A1 and X1
/// passes, which both reason about `Enter`-to-`Exit` traced regions.
fn emit_spans(stream: &Stream) -> Vec<(usize, usize, Option<bool>)> {
    let mut spans: Vec<(usize, usize, Option<bool>)> = Vec::new(); // (open, close, enter?)
    let mut i = 0usize;
    while i < stream.len() {
        if is_ident_char(stream[i].0) && !prev_is_ident(stream, i) {
            let w = read_word(stream, i);
            if w == "emit_with" {
                let after = skip_ws(stream, i + w.len());
                if stream.get(after).map(|&(c, _)| c) == Some('(') {
                    let close = match_paren(stream, after);
                    let mut kind = None;
                    let mut j = after;
                    while j + 1 < close {
                        if stream[j].0 == ':' && stream[j + 1].0 == ':' {
                            let name = read_word(stream, skip_ws(stream, j + 2));
                            if name == "Enter" {
                                kind = Some(true);
                                break;
                            }
                            if name == "Exit" {
                                kind = Some(false);
                                break;
                            }
                        }
                        j += 1;
                    }
                    spans.push((after, close, kind));
                    i = close;
                    continue;
                }
            }
            i += w.len().max(1);
            continue;
        }
        i += 1;
    }
    spans
}

/// Rule A1: per-iteration allocation inside a traced phase region.
/// Lexical pass: regions are `emit_with(.. Event::Enter ..)` to the
/// next `emit_with(.. Event::Exit ..)`; inside, any loop body that
/// binds `Vec::new()`/`vec![]` and grows it with `push`/`extend`
/// without an intervening `reserve` is a hot-path allocation.
fn check_a1(stream: &Stream) -> Vec<ProtocolFinding> {
    let spans = emit_spans(stream);
    let in_emit_span = |pos: usize| spans.iter().any(|&(s, e, _)| pos >= s && pos < e);
    let mut out = Vec::new();
    for (ei, &(_, enter_end, kind)) in spans.iter().enumerate() {
        if kind != Some(true) {
            continue;
        }
        let Some(&(exit_start, _, _)) = spans[ei + 1..].iter().find(|&&(_, _, k)| k == Some(false))
        else {
            continue;
        };
        // Scan the bracketed region for loops.
        let mut i = enter_end;
        while i < exit_start {
            let is_loop = keyword_at(stream, i, "for")
                || keyword_at(stream, i, "while")
                || keyword_at(stream, i, "loop");
            if !is_loop {
                i += 1;
                continue;
            }
            let Some(open) = brace_at_depth0(stream, i + 3, exit_start) else {
                i += 3;
                continue;
            };
            let end = block_end(stream, open).min(exit_start);
            check_a1_loop_body(
                stream,
                open + 1,
                end.saturating_sub(1),
                &in_emit_span,
                &mut out,
            );
            // Step inside: nested loops get their own scan.
            i = open + 1;
        }
    }
    out
}

fn check_a1_loop_body(
    stream: &Stream,
    s: usize,
    e: usize,
    in_emit_span: &dyn Fn(usize) -> bool,
    out: &mut Vec<ProtocolFinding>,
) {
    let mut i = s;
    while i < e {
        if !keyword_at(stream, i, "let") || in_emit_span(i) {
            i += 1;
            continue;
        }
        // `let <pat> = Vec::new()` / `= vec![]` (empty literal only).
        let mut j = i + 3;
        let mut depth = 0i32;
        let mut eq = None;
        while j < e {
            match stream[j].0 {
                '(' | '[' | '<' => depth += 1,
                ')' | ']' => depth -= 1,
                '>' if stream[j - 1].0 != '-' && stream[j - 1].0 != '=' => depth -= 1,
                '=' if depth == 0 && stream.get(j + 1).map(|&(c, _)| c) != Some('=') => {
                    eq = Some(j);
                    break;
                }
                ';' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(eq) = eq else {
            i += 3;
            continue;
        };
        let names = idents_in(stream, i + 3, eq);
        let Some(name) = names.first() else {
            i = eq + 1;
            continue;
        };
        let r = skip_ws(stream, eq + 1);
        let empty_vec_new = matches_at(stream, r, "Vec")
            && matches_at(stream, skip_ws(stream, r + 3), "::")
            && matches_at(stream, skip_ws(stream, skip_ws(stream, r + 3) + 2), "new");
        let vec_macro_at = matches_at(stream, r, "vec")
            && stream.get(skip_ws(stream, r + 3)).map(|&(c, _)| c) == Some('!');
        let empty_vec_macro = vec_macro_at && {
            let bang = skip_ws(stream, r + 3);
            let open = skip_ws(stream, bang + 1);
            stream.get(open).map(|&(c, _)| c) == Some('[')
                && stream.get(skip_ws(stream, open + 1)).map(|&(c, _)| c) == Some(']')
        };
        if !empty_vec_new && !empty_vec_macro {
            i = eq + 1;
            continue;
        }
        // Growth without a dominating reserve, outside tracing spans.
        let stmt_end = expr_stmt_end(stream, eq + 1, e);
        let mut grown = None;
        let mut k = stmt_end;
        while k < e {
            if let Some(m) = method_on(stream, k, name) {
                if (m == "push" || m == "extend") && !in_emit_span(k) {
                    grown = Some(k);
                    break;
                }
                if m == "reserve" || m == "reserve_exact" {
                    break;
                }
            }
            k += 1;
        }
        if grown.is_some() {
            out.push(ProtocolFinding {
                line: stream[i].1,
                rule: Rule::A1,
                message: format!(
                    "`{name}` is allocated with `Vec::new`/`vec![]` and grown inside a loop \
                     of a traced phase region: this allocates every iteration on the hot \
                     path (hoist the buffer out of the loop, or size it up front with \
                     `with_capacity`/`reserve`)"
                ),
            });
        }
        i = stmt_end;
    }
}

/// The call names rule X1 treats as checkpoint I/O: the
/// `CheckpointStore` slot surface plus the solver's serialization
/// helpers. `checkpoint_due` is deliberately absent — the cadence
/// predicate is pure arithmetic and is *expected* inside the driver
/// loop.
const X1_CHECKPOINT_IO: [&str; 4] = [
    "save_slot",
    "read_slot",
    "write_level_checkpoint",
    "take_resume_state",
];

/// Rule X1: no checkpoint I/O inside a traced phase region. Regions
/// are the same `Event::Enter`-to-`Event::Exit` brackets the A1 pass
/// scans; inside one, any call to the checkpoint surface
/// ([`X1_CHECKPOINT_IO`]) serializes rank state on the measured hot
/// path and skews the per-phase clock attribution (Figure 8). The
/// solver takes checkpoints at level boundaries, after the
/// reconstruction `Exit` — this rule keeps it that way.
fn check_x1(stream: &Stream) -> Vec<ProtocolFinding> {
    let spans = emit_spans(stream);
    let mut out = Vec::new();
    for (ei, &(_, enter_end, kind)) in spans.iter().enumerate() {
        if kind != Some(true) {
            continue;
        }
        let Some(&(exit_start, _, _)) = spans[ei + 1..].iter().find(|&&(_, _, k)| k == Some(false))
        else {
            continue;
        };
        let mut i = enter_end;
        while i < exit_start {
            if !is_ident_char(stream[i].0) || prev_is_ident(stream, i) {
                i += 1;
                continue;
            }
            let w = read_word(stream, i);
            let after = skip_ws(stream, i + w.len());
            let is_call = stream.get(after).map(|&(c, _)| c) == Some('(');
            if is_call && X1_CHECKPOINT_IO.contains(&w.as_str()) {
                out.push(ProtocolFinding {
                    line: stream[i].1,
                    rule: Rule::X1,
                    message: format!(
                        "checkpoint I/O `{w}(..)` inside a traced phase region: \
                         serializing rank state between `Event::Enter` and \
                         `Event::Exit` charges bookkeeping to the phase clock and \
                         distorts the per-phase breakdown (move the call to the \
                         level boundary, outside every traced bracket)"
                    ),
                });
            }
            i += w.len().max(1);
        }
    }
    out
}

/// First `;` at depth 0 after `s` (statement end), capped at `e`.
fn expr_stmt_end(stream: &Stream, s: usize, e: usize) -> usize {
    let mut depth = 0i32;
    let mut i = s;
    while i < e {
        match stream[i].0 {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ';' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    e
}

/// If `stream[i..]` is `<name>.<method>(`, return the method name.
fn method_on(stream: &Stream, i: usize, name: &str) -> Option<String> {
    if !matches_at(stream, i, name) || prev_is_ident(stream, i) {
        return None;
    }
    let after = i + name.len();
    if stream.get(after).map(|&(c, _)| c) != Some('.') {
        return None;
    }
    let m = read_word(stream, after + 1);
    if m.is_empty() {
        return None;
    }
    let paren = skip_ws(stream, after + 1 + m.len());
    if stream.get(paren).map(|&(c, _)| c) == Some('(') {
        Some(m)
    } else {
        None
    }
}

/// Run the cost checks (M1 payload classification, A1 hot-loop
/// allocation, X1 checkpoint placement) over one file's stripped
/// stream. Same-file scope only — the interprocedural mode is the spec
/// extraction.
pub(crate) fn check_stream_cost(stream: &Stream) -> Vec<ProtocolFinding> {
    let file = analyze_cost_stream("", stream);
    let mut out = Vec::new();
    for f in &file.fns {
        m1_walk(&f.tree, &mut Vec::new(), &mut out);
    }
    out.extend(check_a1(stream));
    out.extend(check_x1(stream));
    out.sort_by_key(|a| (a.line, a.rule));
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    out
}

// ---------------------------------------------------------------------------
// The workspace cost spec.
// ---------------------------------------------------------------------------

/// One classified communication site of the committed spec. Fields are
/// public so the conformance tests can build seeded mutations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostSite {
    /// Stable identity: `<file>::<fn>#<source-order ordinal>`.
    pub site: String,
    /// The collective/exchange method classified at this site.
    pub op: String,
    /// Payload bound (a [`PayloadClass`] spelling).
    pub payload: String,
    /// Invocation multiplicity (a [`Multiplicity`] spelling).
    pub multiplicity: String,
}

/// The schema-versioned communication-cost spec, the `xtask cost`
/// lockfile (`results/cost_spec.json`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostSpec {
    /// `file::fn` of the analysis entry point.
    pub entry: String,
    /// Every reachable communication site, sorted by (file, fn, ordinal).
    pub sites: Vec<CostSite>,
}

impl CostSpec {
    /// Byte-stable serialization: fixed field order, 2-space indent,
    /// trailing newline — the committed artifact `xtask cost --check`
    /// byte-compares.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"schema_version\": {COST_SPEC_SCHEMA_VERSION},\n"
        ));
        s.push_str(&format!("  \"entry\": \"{}\",\n", self.entry));
        s.push_str("  \"sites\": [\n");
        for (i, site) in self.sites.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"site\": \"{}\",\n", site.site));
            s.push_str(&format!("      \"op\": \"{}\",\n", site.op));
            s.push_str(&format!("      \"payload\": \"{}\",\n", site.payload));
            s.push_str(&format!(
                "      \"multiplicity\": \"{}\"\n",
                site.multiplicity
            ));
            s.push_str(if i + 1 == self.sites.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// Aggregated classification of one site across all call paths.
struct SiteAgg {
    op: String,
    payload: PayloadClass,
    mult: Multiplicity,
}

struct CostAnalysis {
    files: Vec<CFile>,
}

impl CostAnalysis {
    /// Resolve a callee: same-file definitions win, then the workspace;
    /// receiver-ness prefers matching `self`-ness; ambiguity (several
    /// remaining candidates) makes the callee opaque rather than
    /// guessing.
    fn resolve(&self, fi: usize, name: &str, method: bool) -> Option<(usize, usize)> {
        let pick = |cands: Vec<(usize, usize)>| -> Option<(usize, usize)> {
            let (with_self, without): (Vec<_>, Vec<_>) = cands
                .into_iter()
                .partition(|&(f, g)| self.files[f].fns[g].def.has_self);
            let (preferred, fallback) = if method {
                (with_self, without)
            } else {
                (without, with_self)
            };
            let cands = if preferred.is_empty() {
                fallback
            } else {
                preferred
            };
            match cands.len() {
                1 => Some(cands[0]),
                _ => None,
            }
        };
        let same: Vec<(usize, usize)> = (0..self.files[fi].fns.len())
            .filter(|&g| self.files[fi].fns[g].def.name == name)
            .map(|g| (fi, g))
            .collect();
        if !same.is_empty() {
            return pick(same);
        }
        let global: Vec<(usize, usize)> = (0..self.files.len())
            .flat_map(|f| {
                (0..self.files[f].fns.len())
                    .filter(move |&g| self.files[f].fns[g].def.name == name)
                    .map(move |g| (f, g))
            })
            .collect();
        pick(global)
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_nodes(
        &self,
        fi: usize,
        gi: usize,
        nodes: &[CNode],
        binding: &BTreeMap<String, PayloadClass>,
        data: &mut Vec<AbsClass>,
        inherited: &[PayloadClass],
        mult: Multiplicity,
        stack: &mut Vec<(usize, usize)>,
        out: &mut BTreeMap<(String, String, usize), SiteAgg>,
    ) {
        for n in nodes {
            match n {
                CNode::Site {
                    ordinal,
                    op,
                    payload,
                    keyed,
                    ..
                } => {
                    let data_join = |acc: PayloadClass| {
                        let mut p = acc;
                        for d in data.iter() {
                            p = p.max(resolve_abs(d, binding).unwrap_or(PayloadClass::Unbounded));
                        }
                        p
                    };
                    let mut p = if *keyed {
                        match resolve_abs(payload, binding) {
                            Some(c) => c,
                            None => data_join(PayloadClass::O1),
                        }
                    } else {
                        data_join(resolve_abs(payload, binding).unwrap_or(PayloadClass::Unbounded))
                    };
                    for &c in inherited {
                        p = p.max(c);
                    }
                    let file = &self.files[fi];
                    let key = (file.path.clone(), file.fns[gi].def.name.clone(), *ordinal);
                    let agg = out.entry(key).or_insert_with(|| SiteAgg {
                        op: op.clone(),
                        payload: PayloadClass::O1,
                        mult: Multiplicity::PerRun,
                    });
                    agg.payload = agg.payload.max(p);
                    agg.mult = agg.mult.max(mult);
                }
                CNode::Loop { mark, body } => match mark {
                    LoopMark::Level => self.walk_nodes(
                        fi,
                        gi,
                        body,
                        binding,
                        data,
                        inherited,
                        mult.max(Multiplicity::PerLevel),
                        stack,
                        out,
                    ),
                    LoopMark::Iteration => self.walk_nodes(
                        fi,
                        gi,
                        body,
                        binding,
                        data,
                        inherited,
                        mult.max(Multiplicity::PerIteration),
                        stack,
                        out,
                    ),
                    LoopMark::Tainted => self.walk_nodes(
                        fi,
                        gi,
                        body,
                        binding,
                        data,
                        inherited,
                        Multiplicity::RankTainted,
                        stack,
                        out,
                    ),
                    LoopMark::Data(a) => {
                        data.push(a.clone());
                        self.walk_nodes(fi, gi, body, binding, data, inherited, mult, stack, out);
                        data.pop();
                    }
                },
                CNode::Call {
                    name, method, args, ..
                } => {
                    let Some((cfi, cgi)) = self.resolve(fi, name, *method) else {
                        continue;
                    };
                    if stack.contains(&(cfi, cgi)) {
                        continue;
                    }
                    let callee = &self.files[cfi].fns[cgi];
                    let mut child_binding = BTreeMap::new();
                    for (pos, names) in callee.params.iter().enumerate() {
                        if let Some(arg) = args.get(pos) {
                            if let Some(c) = resolve_abs(arg, binding) {
                                for n in names {
                                    child_binding.insert(n.clone(), c);
                                }
                            }
                        }
                    }
                    // Data loops around the call keep multiplying the
                    // callee's volume: pass them down resolved.
                    let mut child_inherited = inherited.to_vec();
                    for d in data.iter() {
                        child_inherited
                            .push(resolve_abs(d, binding).unwrap_or(PayloadClass::Unbounded));
                    }
                    stack.push((cfi, cgi));
                    self.walk_nodes(
                        cfi,
                        cgi,
                        &self.files[cfi].fns[cgi].tree.clone(),
                        &child_binding,
                        &mut Vec::new(),
                        &child_inherited,
                        mult,
                        stack,
                        out,
                    );
                    stack.pop();
                }
            }
        }
    }
}

/// Extract the workspace cost spec: classify every communication site
/// reachable from the solver entry point, joined over all call paths.
///
/// # Errors
/// I/O failures or a missing entry point abort the extraction.
pub fn extract_cost_spec(root: &Path) -> Result<CostSpec, String> {
    let mut files = Vec::new();
    for dir in COST_DIRS {
        let abs = root.join(dir);
        if !abs.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        walk(&abs, &mut paths).map_err(|e| format!("walking {dir}: {e}"))?;
        for p in paths {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&p).map_err(|e| format!("reading {rel}: {e}"))?;
            let lines = scan_lines(&src);
            let mask = test_region_mask(&lines);
            let stream = code_stream_masked(&lines, &mask);
            files.push(analyze_cost_stream(&rel, &stream));
        }
    }
    let an = CostAnalysis { files };
    let fi = an
        .files
        .iter()
        .position(|f| f.path == PROTOCOL_ENTRY_FILE)
        .ok_or_else(|| format!("entry file `{PROTOCOL_ENTRY_FILE}` not found"))?;
    let gi = an.files[fi]
        .fns
        .iter()
        .position(|g| g.def.name == PROTOCOL_ENTRY_FN)
        .ok_or_else(|| {
            format!("entry `{PROTOCOL_ENTRY_FN}` not found in `{PROTOCOL_ENTRY_FILE}`")
        })?;
    let mut out = BTreeMap::new();
    let mut stack = vec![(fi, gi)];
    an.walk_nodes(
        fi,
        gi,
        &an.files[fi].fns[gi].tree.clone(),
        &BTreeMap::new(),
        &mut Vec::new(),
        &[],
        Multiplicity::PerRun,
        &mut stack,
        &mut out,
    );
    let sites = out
        .into_iter()
        .map(|((file, fn_name, ordinal), agg)| CostSite {
            site: format!("{file}::{fn_name}#{ordinal}"),
            op: agg.op,
            payload: agg.payload.as_str().to_string(),
            multiplicity: agg.mult.as_str().to_string(),
        })
        .collect();
    Ok(CostSpec {
        entry: format!("{PROTOCOL_ENTRY_FILE}::{PROTOCOL_ENTRY_FN}"),
        sites,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{code_stream_masked, scan_lines, test_region_mask};

    fn stream_of(src: &str) -> Vec<(char, usize)> {
        let lines = scan_lines(src);
        let mask = test_region_mask(&lines);
        code_stream_masked(&lines, &mask)
    }

    fn findings_of(src: &str) -> Vec<(usize, Rule)> {
        check_stream_cost(&stream_of(src))
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect()
    }

    #[test]
    fn payload_lattice_order_matches_volume_order() {
        assert!(PayloadClass::O1 < PayloadClass::ODeltas);
        assert!(PayloadClass::ODeltas < PayloadClass::ONLocal);
        assert!(PayloadClass::ONLocal < PayloadClass::OLocalArcs);
        assert!(PayloadClass::OLocalArcs < PayloadClass::Unbounded);
        assert!(Multiplicity::PerRun < Multiplicity::PerLevel);
        assert!(Multiplicity::PerLevel < Multiplicity::PerIteration);
        assert!(Multiplicity::PerIteration < Multiplicity::RankTainted);
    }

    #[test]
    fn send_in_seeded_loop_is_bounded_and_clean() {
        let src = r"
fn f(ctx: &mut Ctx, out_table: &Table) {
    let mut ex = ctx.exchange();
    for (key, w) in out_table.iter() {
        ex.send(0, key);
    }
    ex.finish(|_| {});
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn send_in_unrecognized_loop_fires_m1() {
        let src = r"
fn f(ctx: &mut Ctx) {
    let mut ex = ctx.exchange();
    for x in mystery_frontier.iter() {
        ex.send(0, x);
    }
    ex.finish(|_| {});
}
";
        assert_eq!(findings_of(src), vec![(5, Rule::M1)]);
    }

    #[test]
    fn keyed_send_with_recognized_key_overrides_loop_class() {
        // The keyed site rides in an O(local_arcs) loop but dedups by a
        // delta-derived key: bounded, no M1.
        let src = r"
fn f(ctx: &mut Ctx, migrated: &[(u32, u32)], out_srcs: &[u32]) {
    let mut ex = ctx.exchange();
    for &(u, c) in migrated {
        for &s in out_srcs.iter() {
            ex.send_keyed(0, u64::from(u), c);
        }
    }
    ex.finish(|_| {});
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn vec_collective_with_unrecognized_buffer_fires_m1() {
        let src = r"
fn f(ctx: &mut Ctx) {
    let gathered = ctx.allgather_f64(&scratchpad);
}
";
        assert_eq!(findings_of(src), vec![(3, Rule::M1)]);
    }

    #[test]
    fn array_literal_buffer_is_o1() {
        let src = r"
fn f(ctx: &mut Ctx, owned: &[u32]) {
    let counts = ctx.allgather_f64(&[owned.len() as f64]);
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn unbound_parameter_is_optimistically_clean() {
        // `buffer` is not a seed, but it is a parameter: the caller is
        // assumed to pass something bounded (M1 stays quiet, like the
        // call-results-are-replicated fiat in the taint analysis).
        let src = r"
fn gather(ctx: &mut Ctx, buffer: &[f64]) -> Vec<f64> {
    ctx.allgather_f64(buffer)
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn alloc_grown_in_traced_loop_fires_a1() {
        let src = r#"
fn f(ctx: &mut Ctx, edges: &[u32]) {
    louvain_trace::emit_with(|| Event::Enter { phase: "refine", clock: 0 });
    for e in edges.iter() {
        let mut acc = Vec::new();
        acc.push(e);
        consume(acc);
    }
    louvain_trace::emit_with(|| Event::Exit { phase: "refine", clock: 0 });
}
"#;
        assert_eq!(findings_of(src), vec![(5, Rule::A1)]);
    }

    #[test]
    fn reserve_before_growth_suppresses_a1() {
        let src = r#"
fn f(ctx: &mut Ctx, edges: &[u32]) {
    louvain_trace::emit_with(|| Event::Enter { phase: "refine", clock: 0 });
    for e in edges.iter() {
        let mut acc = Vec::new();
        acc.reserve(8);
        acc.push(e);
        consume(acc);
    }
    louvain_trace::emit_with(|| Event::Exit { phase: "refine", clock: 0 });
}
"#;
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn alloc_outside_traced_region_is_not_a1() {
        let src = r"
fn f(edges: &[u32]) {
    for e in edges.iter() {
        let mut acc = Vec::new();
        acc.push(e);
        consume(acc);
    }
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn emit_with_closure_allocations_are_skipped() {
        // Allocations inside tracing closures never run in production
        // builds: neither M1 nor A1 may fire on them.
        let src = r#"
fn f(ctx: &mut Ctx, edges: &[u32]) {
    louvain_trace::emit_with(|| Event::Enter { phase: "x", clock: 0 });
    for e in edges.iter() {
        louvain_trace::emit_with(|| {
            let mut dbg = Vec::new();
            dbg.push(e);
            Event::Count { name: "n", value: dbg.len() as u64 }
        });
        work(e);
    }
    louvain_trace::emit_with(|| Event::Exit { phase: "x", clock: 0 });
}
"#;
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn labeled_break_does_not_confuse_the_walker() {
        let src = r"
fn f(ctx: &mut Ctx, edges: &[u32]) {
    let mut ex = ctx.exchange();
    'outer: for e in edges.iter() {
        for d in edges.iter() {
            if d == e {
                break 'outer;
            }
            ex.send(0, d);
        }
    }
    ex.finish(|_| {});
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn while_loop_with_send_is_unbounded() {
        let src = r"
fn f(ctx: &mut Ctx) {
    let mut ex = ctx.exchange();
    while has_work() {
        ex.send(0, 1);
    }
    ex.finish(|_| {});
}
";
        assert_eq!(findings_of(src), vec![(5, Rule::M1)]);
    }

    #[test]
    fn assignment_fixpoint_propagates_classes() {
        // `snapshot` inherits O(n_local) from `labels` through a `let`,
        // so the allgather is bounded.
        let src = r"
fn f(ctx: &mut Ctx, labels: &[f64]) {
    let snapshot = labels.to_vec();
    let gathered = ctx.allgather_f64(&snapshot);
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn checkpoint_io_inside_traced_region_fires_x1() {
        let src = r#"
fn f(ctx: &mut Ctx, store: &CheckpointStore) {
    louvain_trace::emit_with(|| Event::Enter { phase: "refine", clock: 0 });
    let bytes = store.save_slot(&cp);
    louvain_trace::emit_with(|| Event::Exit { phase: "refine", clock: 0 });
}
"#;
        assert_eq!(findings_of(src), vec![(4, Rule::X1)]);
    }

    #[test]
    fn checkpoint_helper_call_inside_traced_region_fires_x1() {
        let src = r#"
fn f(ctx: &mut Ctx, store: &CheckpointStore) {
    louvain_trace::emit_with(|| Event::Enter { phase: "reconstruction", clock: 0 });
    let bytes = write_level_checkpoint(store, ctx);
    louvain_trace::emit_with(|| Event::Exit { phase: "reconstruction", clock: 0 });
}
"#;
        assert_eq!(findings_of(src), vec![(4, Rule::X1)]);
    }

    #[test]
    fn checkpoint_io_outside_traced_region_is_clean() {
        // The sanctioned placement: cadence predicate inside the loop,
        // I/O after the phase Exit — exactly the level-boundary hook.
        let src = r#"
fn f(ctx: &mut Ctx, store: &CheckpointStore) {
    louvain_trace::emit_with(|| Event::Enter { phase: "refine", clock: 0 });
    work(ctx);
    louvain_trace::emit_with(|| Event::Exit { phase: "refine", clock: 0 });
    if checkpoint_due(cfg, level_idx) {
        let bytes = write_level_checkpoint(store, ctx);
    }
}
"#;
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn spec_json_is_byte_stable_and_versioned() {
        let spec = CostSpec {
            entry: "a.rs::main".to_string(),
            sites: vec![
                CostSite {
                    site: "a.rs::main#0".to_string(),
                    op: "send".to_string(),
                    payload: "O(local_arcs)".to_string(),
                    multiplicity: "per_run".to_string(),
                },
                CostSite {
                    site: "a.rs::main#1".to_string(),
                    op: "allreduce_sum".to_string(),
                    payload: "O(1)".to_string(),
                    multiplicity: "per_level".to_string(),
                },
            ],
        };
        let j = spec.to_json();
        assert_eq!(j, spec.to_json());
        assert!(j.starts_with("{\n  \"schema_version\": 3,\n"));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"site\": \"a.rs::main#0\""));
        assert!(j.contains("\"payload\": \"O(local_arcs)\""));
        assert!(j.contains("\"multiplicity\": \"per_level\""));
    }
}
