//! Per-layer probes of the traced run: each times calls into one
//! layer's public functions from outside the program, on the workload's
//! own arc stream, and checks what the calls return.

use louvain_graph::EdgeList;
use louvain_hash::{pack_key, EdgeTable, ProbeStats};
use std::time::Instant;

/// Ranks of the runtime probes (the host's core count).
pub const PROBE_RANKS: usize = 2;

/// Collective calls per allreduce probe.
const ALLREDUCE_CALLS: u32 = 4000;

/// `EdgeTable` probe: nanoseconds per `accumulate` and per `get`, and the
/// probe statistics after loading every arc.
pub struct TableProbe {
    pub accumulate_ns: f64,
    pub get_ns: f64,
    pub stats: ProbeStats,
}

/// Both directions of every edge, as `(pack_key(src, dst), w)`.
#[must_use]
pub fn arc_keys(edges: &EdgeList) -> Vec<(u64, f64)> {
    let mut arcs = Vec::with_capacity(2 * edges.num_edges());
    for e in edges.edges() {
        arcs.push((pack_key(e.u, e.v), e.w));
        if e.u != e.v {
            arcs.push((pack_key(e.v, e.u), e.w));
        }
    }
    arcs
}

/// Loads `arcs` into a fresh table sized for them, then looks every key
/// up again.
///
/// # Errors
/// If a lookup misses or returns another weight than was stored.
pub fn hashtable(arcs: &[(u64, f64)]) -> Result<TableProbe, String> {
    let ops = arcs.len().max(1) as f64;
    let mut table: EdgeTable = EdgeTable::new(arcs.len());
    let t = Instant::now();
    for &(key, w) in arcs {
        table.accumulate(key, w);
    }
    let accumulate_ns = t.elapsed().as_secs_f64() * 1e9 / ops;
    let t = Instant::now();
    let mut sum = 0.0f64;
    let mut misses = 0usize;
    for &(key, _) in arcs {
        match table.get(key) {
            Some(w) => sum += w,
            None => misses += 1,
        }
    }
    let get_ns = t.elapsed().as_secs_f64() * 1e9 / ops;
    let expected: f64 = arcs.iter().map(|a| a.1).sum();
    if misses > 0 || table.len() != arcs.len() || (sum - expected).abs() > 1e-6 * expected {
        return Err(format!(
            "edge table: {misses} misses, {} of {} keys, weight {sum} of {expected}",
            table.len(),
            arcs.len()
        ));
    }
    Ok(TableProbe {
        accumulate_ns,
        get_ns,
        stats: table.probe_stats(),
    })
}

/// Sends every arc from rank `i % 2` (edge `i`) to the modulo owner of
/// its destination through one `Exchange` phase at [`PROBE_RANKS`]
/// ranks. Returns nanoseconds per arc message, from outside the
/// runtime's `run` call.
///
/// # Errors
/// If the ranks do not receive every arc exactly once.
pub fn exchange(edges: &EdgeList) -> Result<f64, String> {
    let list = edges.edges();
    let arcs = list
        .iter()
        .map(|e| if e.u == e.v { 1 } else { 2 })
        .sum::<u64>();
    let t = Instant::now();
    let received = louvain_runtime::run::<(u32, u32), _, _>(PROBE_RANKS, |ctx| {
        let me = ctx.rank();
        let p = ctx.num_ranks();
        let mut got = 0u64;
        let mut ex = ctx.exchange();
        for e in list.iter().skip(me).step_by(p) {
            ex.send(e.v as usize % p, (e.u, e.v));
            if e.u != e.v {
                ex.send(e.u as usize % p, (e.v, e.u));
            }
        }
        let mut misrouted = 0u64;
        ex.finish(|(_, dst)| {
            got += 1;
            misrouted += u64::from(dst as usize % p != me);
        });
        (got, misrouted)
    });
    let elapsed = t.elapsed().as_secs_f64();
    let got: u64 = received.iter().map(|r| r.0).sum();
    let misrouted: u64 = received.iter().map(|r| r.1).sum();
    if got != arcs || misrouted > 0 {
        return Err(format!(
            "exchange: {got} of {arcs} arcs delivered, {misrouted} to the wrong rank"
        ));
    }
    Ok(elapsed * 1e9 / arcs.max(1) as f64)
}

/// Nanoseconds per `allreduce_sum` at [`PROBE_RANKS`] ranks.
///
/// # Errors
/// If a reduction returns a wrong sum.
pub fn allreduce() -> Result<f64, String> {
    let t = Instant::now();
    let wrong = louvain_runtime::run::<(), _, _>(PROBE_RANKS, |ctx| {
        let me = ctx.rank() as f64;
        let p = ctx.num_ranks() as f64;
        let mut wrong = 0u32;
        for i in 0..ALLREDUCE_CALLS {
            let x = f64::from(i);
            let sum = ctx.allreduce_sum(x + me);
            let expected = p * x + p * (p - 1.0) / 2.0;
            wrong += u32::from((sum - expected).abs() > 0.5);
        }
        wrong
    });
    let elapsed = t.elapsed().as_secs_f64();
    if wrong.iter().any(|&w| w > 0) {
        return Err(format!("allreduce: wrong sums {wrong:?}"));
    }
    Ok(elapsed * 1e9 / f64::from(ALLREDUCE_CALLS))
}
