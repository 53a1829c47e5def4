//! `perfbench` — wall-clock benchmark of the sequential, SMP and
//! distributed Louvain solvers. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <lfr-amazon|lfr-amazon-ckpt|rmat-14|lfr-dblp-ckpt> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run generates the workload from the seed, then repeats whole
//! rounds until the time budget is spent. A round times the load path
//! and every solver once, in an order that rotates from round to round,
//! and checks every output. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics, which are the
//! end-to-end ones with `--trace 0` and the per-layer ones with
//! `--trace 1`.

mod check;
mod layers;
mod workload;

use louvain_core::{
    LouvainResult, ParallelConfig, ParallelLouvain, ParallelResult, Phase, SeqConfig,
    SequentialLouvain, SmpConfig, SmpLouvain,
};
use louvain_graph::{io, CsrGraph, EdgeList};
use louvain_metrics::{nmi, Partition};
use louvain_runtime::FaultPlan;
use std::panic::AssertUnwindSafe;
use std::time::Instant;
use workload::{Input, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: perfbench --workload <lfr-amazon|lfr-amazon-ckpt|rmat-14|lfr-dblp-ckpt> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Rounds made however short the time budget.
const MIN_ROUNDS: usize = 3;

/// Rank counts of the distributed solves.
const RANKS: [usize; 2] = [1, 2];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0f64;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run_bench(&args);
    println!("{}", report.json());
}

/// Operation counts and the verdict on the outputs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    /// Counts one checked operation. A failure is a wrong output.
    fn op(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.correct = false;
            eprintln!("perfbench: {what} FAILED: {e}");
        }
    }

    /// Counts one parse of a malformed input: it succeeds only if the
    /// parser refuses the input. Accepting it, or panicking, is a known
    /// input-validation fault of the parser; it counts as failed without
    /// making the run's outputs wrong.
    fn malformed(&mut self, refused: bool) {
        self.attempted += 1;
        if !refused {
            self.failed += 1;
        }
    }

    /// A check outside the counted operations (set-up, self-test).
    fn guard(&mut self, what: &str, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.correct = false;
            eprintln!("perfbench: {what} FAILED: {e}");
        }
    }
}

/// Metrics in output order.
struct Report {
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.tally
                .guard(&name, Err(format!("non-finite value {value}")));
        }
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.correct,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (mean of the middle two for an even count).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Wall-clock phase seconds of one distributed solve, in the order of
/// [`PHASES`].
type PhaseSecs = [f64; 6];

const PHASES: [&str; 6] = [
    "state_propagation_s",
    "find_best_s",
    "update_s",
    "modularity_s",
    "reconstruction_s",
    "other_s",
];

fn phase_secs(r: &ParallelResult) -> PhaseSecs {
    let t = |p: Phase| r.timers.get(p).as_secs_f64();
    let other = r.total_time.as_secs_f64() - t(Phase::Refine) - t(Phase::Reconstruction);
    [
        t(Phase::StatePropagation),
        t(Phase::FindBestCommunity),
        t(Phase::UpdateCommunity),
        t(Phase::ComputeModularity),
        t(Phase::Reconstruction),
        other,
    ]
}

/// One solver's samples over the rounds of a run.
#[derive(Default)]
struct Solves {
    secs: Vec<f64>,
    q: Vec<f64>,
    /// The first result (the reference for repeat determinism).
    first: Option<LouvainResult>,
}

impl Solves {
    fn record(&mut self, secs: f64, res: &LouvainResult) {
        self.secs.push(secs);
        self.q.push(res.final_modularity);
        if self.first.is_none() {
            self.first = Some(res.clone());
        }
    }
}

/// One distributed configuration: its config, the fault-free reference
/// a recovered solve must repeat, and its samples.
struct Dist {
    ranks: usize,
    cfg: ParallelConfig,
    /// Fault-free checkpointing solve that aimed the crash; `None` when
    /// the configuration neither checkpoints nor crashes.
    aim: Option<LouvainResult>,
    solves: Solves,
    phases: Vec<PhaseSecs>,
    ns_per_unit: Vec<f64>,
    first: Option<ParallelResult>,
}

/// The configuration that checkpoints at every level boundary and loses
/// rank `ranks − 1` once just past the first one, with the fault-free
/// checkpointing solve that aimed the crash.
fn crash_config(edges: &EdgeList, ranks: usize) -> (ParallelConfig, ParallelResult) {
    let ckpt = ParallelConfig {
        checkpoint_every_level: 1,
        ..ParallelConfig::with_ranks(ranks)
    };
    let probe = ParallelLouvain::new(ckpt.clone()).run(edges);
    let at_clock = probe.level_boundary_clocks.first().map_or(1.0, |c| c + 0.5);
    let cfg = ParallelConfig {
        fault_plan: Some(FaultPlan::crash(ranks - 1, at_clock)),
        ..ckpt
    };
    (cfg, probe)
}

impl Dist {
    fn new(edges: &EdgeList, ranks: usize, crash: bool, tally: &mut Tally) -> Self {
        let (cfg, aim) = if crash {
            let (cfg, probe) = crash_config(edges, ranks);
            tally.guard(
                &format!("fault-free checkpointing solve at {ranks} ranks"),
                check::solve(edges, &probe.result),
            );
            (cfg, Some(probe.result))
        } else {
            (ParallelConfig::with_ranks(ranks), None)
        };
        Dist {
            ranks,
            cfg,
            aim,
            solves: Solves::default(),
            phases: Vec::new(),
            ns_per_unit: Vec::new(),
            first: None,
        }
    }

    /// Times one solve and checks it. Returns the wall seconds.
    fn solve(&mut self, edges: &EdgeList, tally: &mut Tally) -> f64 {
        let solver = ParallelLouvain::new(self.cfg.clone());
        let t = Instant::now();
        let r = solver.run(edges);
        let secs = t.elapsed().as_secs_f64();
        let verdict = check::solve(edges, &r.result).and_then(|()| self.repeat(&r));
        tally.op(
            &format!("distributed solve at {} ranks", self.ranks),
            verdict,
        );
        self.solves.record(secs, &r.result);
        self.phases.push(phase_secs(&r));
        self.ns_per_unit
            .push(r.total_time.as_secs_f64() * 1e9 / r.sim_total_units);
        if self.first.is_none() {
            // The event traces are large and nothing reads them here.
            self.first = Some(ParallelResult {
                traces: Vec::new(),
                ..r
            });
        }
        secs
    }

    /// A recovered solve replays once and repeats the fault-free
    /// checkpointing solve bit for bit; any other solve repeats the first.
    fn repeat(&self, r: &ParallelResult) -> Result<(), String> {
        match &self.aim {
            Some(aim) => {
                if r.recovery_replays != 1 {
                    return Err(format!(
                        "{} recovery replays, expected 1",
                        r.recovery_replays
                    ));
                }
                check::same(aim, &r.result)
            }
            None => self
                .solves
                .first
                .as_ref()
                .map_or(Ok(()), |f| check::same(f, &r.result)),
        }
    }
}

/// Everything one run measures.
struct Bench<'a> {
    wl: Workload,
    input: &'a Input,
    csr: CsrGraph,
    trace: bool,
    tally: Tally,
    setup: Vec<f64>,
    read: Vec<f64>,
    to_csr: Vec<f64>,
    seq: Solves,
    smp: Solves,
    dist: [Dist; 2],
    malformed: Vec<(&'static str, Vec<u8>)>,
    /// Traced run only: the 2-rank solve the timed path does not make on
    /// this workload (the crash-recovering one where the timed path is
    /// plain, and the plain one on the checkpointing workloads).
    other_r2: Option<Dist>,
    ckpt_overhead: Vec<f64>,
    table: Vec<layers::TableProbe>,
    exchange_ns: Vec<f64>,
    allreduce_ns: Vec<f64>,
    arcs: Vec<(u64, f64)>,
}

#[derive(Clone, Copy)]
enum Op {
    Setup,
    Seq,
    Smp,
    Dist(usize),
}

/// One round: each distributed configuration once, and the cheap calls
/// (the load path, the shared-memory solvers) several times, spread
/// between the distributed solves. Each round starts one place further
/// down this list than the last, so slow drift of the host's speed
/// within a run reaches every metric alike.
const ROUND: [Op; 15] = [
    Op::Setup,
    Op::Seq,
    Op::Smp,
    Op::Seq,
    Op::Dist(0),
    Op::Setup,
    Op::Seq,
    Op::Smp,
    Op::Seq,
    Op::Dist(1),
    Op::Setup,
    Op::Seq,
    Op::Smp,
    Op::Seq,
    Op::Setup,
];

impl Bench<'_> {
    fn round(&mut self, k: usize) {
        let mut r2_secs = 0.0;
        for i in 0..ROUND.len() {
            match ROUND[(i + k) % ROUND.len()] {
                Op::Setup => self.setup_once(),
                Op::Seq => self.seq_once(),
                Op::Smp => self.smp_once(),
                Op::Dist(d) => {
                    let secs = self.dist[d].solve(&self.input.edges, &mut self.tally);
                    if d == 1 {
                        r2_secs = secs;
                    }
                }
            }
            release_free_memory();
        }
        for (what, text) in &self.malformed {
            let outcome = parse_malformed(text);
            if outcome != "refused" && k == 0 {
                eprintln!("perfbench: read_edge_list {outcome} a malformed input ({what})");
            }
            self.tally.malformed(outcome == "refused");
        }
        if self.trace {
            self.layer_probes();
            if let Some(other) = self.other_r2.as_mut() {
                let secs = other.solve(&self.input.edges, &mut self.tally);
                let overhead = if self.wl.checkpoints() {
                    r2_secs - secs
                } else {
                    secs - r2_secs
                };
                self.ckpt_overhead.push(overhead);
            }
            release_free_memory();
        }
    }

    /// The `louvain` CLI's load path: parse the text, build the CSR.
    fn setup_once(&mut self) {
        let t0 = Instant::now();
        let parsed = io::read_edge_list(&self.input.text[..]);
        let t1 = Instant::now();
        let csr = parsed.as_ref().ok().map(EdgeList::to_csr);
        let t2 = Instant::now();
        self.setup.push((t2 - t0).as_secs_f64());
        self.read.push((t1 - t0).as_secs_f64());
        self.to_csr.push((t2 - t1).as_secs_f64());
        let verdict = match (&parsed, &csr) {
            (Ok(el), Some(g)) => check::parsed(&self.input.edges, el).and_then(|()| {
                let two_m = 2.0 * el.total_weight();
                if g.num_vertices() == el.num_vertices()
                    && (g.total_arc_weight() - two_m).abs() <= 1e-9 * two_m
                {
                    Ok(())
                } else {
                    Err(format!(
                        "CSR has {} vertices and arc weight {}, expected {} and {two_m}",
                        g.num_vertices(),
                        g.total_arc_weight(),
                        el.num_vertices()
                    ))
                }
            }),
            (Err(e), _) => Err(e.to_string()),
            (Ok(_), None) => Err("no CSR".into()),
        };
        self.tally.op("load path", verdict);
    }

    fn seq_once(&mut self) {
        let solver = SequentialLouvain::new(SeqConfig::default());
        let t = Instant::now();
        let r = solver.run(&self.csr);
        let secs = t.elapsed().as_secs_f64();
        let verdict = check::solve(&self.input.edges, &r).and_then(|()| {
            self.seq
                .first
                .as_ref()
                .map_or(Ok(()), |f| check::same(f, &r))
        });
        self.tally.op("sequential solve", verdict);
        self.seq.record(secs, &r);
    }

    fn smp_once(&mut self) {
        let solver = SmpLouvain::new(SmpConfig::default());
        let t = Instant::now();
        let r = solver.run(&self.csr);
        let secs = t.elapsed().as_secs_f64();
        self.tally
            .op("SMP solve", check::solve(&self.input.edges, &r));
        self.smp.record(secs, &r);
    }

    fn layer_probes(&mut self) {
        match layers::hashtable(&self.arcs) {
            Ok(p) => self.table.push(p),
            Err(e) => self.tally.guard("hash-table probe", Err(e)),
        }
        match layers::exchange(&self.input.edges) {
            Ok(ns) => self.exchange_ns.push(ns),
            Err(e) => self.tally.guard("exchange probe", Err(e)),
        }
        match layers::allreduce() {
            Ok(ns) => self.allreduce_ns.push(ns),
            Err(e) => self.tally.guard("allreduce probe", Err(e)),
        }
    }
}

/// What `read_edge_list` does with `text`: `"refused"` (returns `Err`),
/// `"accepted"` or `"panicked on"`.
fn parse_malformed(text: &[u8]) -> &'static str {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| io::read_edge_list(text).is_err()));
    std::panic::set_hook(hook);
    match outcome {
        Ok(true) => "refused",
        Ok(false) => "accepted",
        Err(_) => "panicked on",
    }
}

/// Hands the memory freed by the last call back to the operating system,
/// so that every call starts from the same heap as a fresh `louvain`
/// process would, and the peak resident set is the largest single call's
/// and not an accident of which allocator arena kept what.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // returns free heap pages to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs,
    /// the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the C
    // layout, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.longs[0] as f64 / 1024.0
    } else {
        f64::NAN
    }
}

fn run_bench(args: &Args) -> Report {
    let wl = args.workload;
    let input = wl.generate(args.seed);
    let edges = &input.edges;
    let mut tally = Tally {
        correct: true,
        ..Tally::default()
    };
    let csr = edges.to_csr();
    eprintln!(
        "perfbench: {} seed {}: {} vertices, {} edges, {} bytes of text",
        wl.name(),
        args.seed,
        edges.num_vertices(),
        edges.num_edges(),
        input.text.len()
    );
    let probe = SequentialLouvain::new(SeqConfig::default()).run(&csr);
    tally.guard("checker self-test", check::self_test(edges, &probe));
    let dist = RANKS.map(|r| Dist::new(edges, r, wl.checkpoints(), &mut tally));
    let other_r2 = args
        .trace
        .then(|| Dist::new(edges, 2, !wl.checkpoints(), &mut tally));
    let mut b = Bench {
        wl,
        input: &input,
        csr,
        trace: args.trace,
        tally,
        setup: Vec::new(),
        read: Vec::new(),
        to_csr: Vec::new(),
        seq: Solves::default(),
        smp: Solves::default(),
        dist,
        malformed: if wl.parses_malformed() {
            workload::malformed()
        } else {
            Vec::new()
        },
        other_r2,
        ckpt_overhead: Vec::new(),
        table: Vec::new(),
        exchange_ns: Vec::new(),
        allreduce_ns: Vec::new(),
        arcs: if args.trace {
            layers::arc_keys(edges)
        } else {
            Vec::new()
        },
    };

    let start = Instant::now();
    let mut rounds = 0;
    loop {
        b.round(rounds);
        rounds += 1;
        let spent = start.elapsed().as_secs_f64();
        if rounds >= MIN_ROUNDS && spent * (rounds + 1) as f64 / rounds as f64 > args.seconds {
            break;
        }
    }
    eprintln!(
        "perfbench: {rounds} rounds in {:.2} s",
        start.elapsed().as_secs_f64()
    );
    references(&b);

    let mut report = Report {
        tally: std::mem::take(&mut b.tally),
        metrics: Vec::new(),
    };
    if args.trace {
        per_layer(&b, &mut report);
    } else {
        end_to_end(&b, &mut report);
    }
    report
}

/// Agreement between two results, by NMI.
fn agreement(x: &Solves, y: &Solves) -> f64 {
    match (&x.first, &y.first) {
        (Some(a), Some(b)) => nmi(&a.final_partition, &b.final_partition),
        _ => f64::NAN,
    }
}

/// Figures the README quotes but nothing gates, on standard error.
fn references(b: &Bench<'_>) {
    for (name, xs) in [
        ("setup_s", &b.setup),
        ("seq_s", &b.seq.secs),
        ("smp_s", &b.smp.secs),
        ("dist_r1_s", &b.dist[0].solves.secs),
        ("dist_r2_s", &b.dist[1].solves.secs),
    ] {
        let mut v = xs.clone();
        v.sort_by(f64::total_cmp);
        let q = |f: f64| v[((v.len() - 1) as f64 * f).round() as usize];
        eprintln!(
            "perfbench: {name}: {} calls, min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
            v.len(),
            q(0.0),
            q(0.25),
            median(&v),
            q(0.75),
            q(1.0)
        );
    }
    let work = |name: &str, r: Option<&LouvainResult>| {
        if let Some(r) = r {
            eprintln!(
                "perfbench: {name}: {} levels, {} inner iterations, Q {:.4}",
                r.num_levels(),
                inner_iterations(r),
                r.final_modularity
            );
        }
    };
    work("seq", b.seq.first.as_ref());
    work("smp", b.smp.first.as_ref());
    for d in &b.dist {
        work(&format!("r{}", d.ranks), d.solves.first.as_ref());
    }
    let seq = median(&b.seq.secs);
    eprintln!(
        "perfbench: COST dist_r1_s/seq_s = {:.2}, dist_r2_s/seq_s = {:.2}",
        median(&b.dist[0].solves.secs) / seq,
        median(&b.dist[1].solves.secs) / seq
    );
    if let Some(planted) = &b.input.planted {
        let truth = Partition::from_labels(planted);
        let to_truth = |s: &Solves| {
            s.first
                .as_ref()
                .map_or(f64::NAN, |r| nmi(&r.final_partition, &truth))
        };
        eprintln!(
            "perfbench: planted partition Q = {:.4}; NMI to it: seq {:.4}, smp {:.4}, r1 {:.4}, r2 {:.4}",
            check::modularity(&b.input.edges, planted),
            to_truth(&b.seq),
            to_truth(&b.smp),
            to_truth(&b.dist[0].solves),
            to_truth(&b.dist[1].solves)
        );
    }
}

fn end_to_end(b: &Bench<'_>, report: &mut Report) {
    report.push("setup_s", median(&b.setup), "s");
    report.push("seq_s", median(&b.seq.secs), "s");
    report.push("smp_s", median(&b.smp.secs), "s");
    report.push("dist_r1_s", median(&b.dist[0].solves.secs), "s");
    report.push("dist_r2_s", median(&b.dist[1].solves.secs), "s");
    report.push("q_seq", median(&b.seq.q), "modularity");
    report.push("q_smp", median(&b.smp.q), "modularity");
    report.push("q_r1", median(&b.dist[0].solves.q), "modularity");
    report.push("q_r2", median(&b.dist[1].solves.q), "modularity");
    report.push("nmi_seq_r2", agreement(&b.seq, &b.dist[1].solves), "NMI");
    report.push("peak_rss_mb", peak_rss_mib(), "MiB");
}

fn inner_iterations(r: &LouvainResult) -> f64 {
    r.levels.iter().map(|l| l.inner_iterations as f64).sum()
}

fn per_layer(b: &Bench<'_>, report: &mut Report) {
    report.push("graph.read_edge_list_s", median(&b.read), "s");
    report.push("graph.to_csr_s", median(&b.to_csr), "s");

    let table =
        |f: fn(&layers::TableProbe) -> f64| median(&b.table.iter().map(f).collect::<Vec<_>>());
    report.push("hashtable.accumulate_ns", table(|p| p.accumulate_ns), "ns");
    report.push("hashtable.get_ns", table(|p| p.get_ns), "ns");
    report.push(
        "hashtable.mean_probe",
        table(|p| p.stats.mean_probe_length),
        "slots",
    );
    report.push(
        "hashtable.max_probe",
        table(|p| p.stats.max_probe_length as f64),
        "slots",
    );

    report.push("runtime.exchange_ns_per_msg", median(&b.exchange_ns), "ns");
    report.push("runtime.allreduce_ns", median(&b.allreduce_ns), "ns");
    if let Some(r2) = &b.dist[1].first {
        report.push("runtime.r2.messages", r2.comm.messages as f64, "count");
        report.push("runtime.r2.bytes", r2.bytes_sent as f64, "B");
        report.push("runtime.r2.syncs", r2.syncs as f64, "count");
    }

    for d in &b.dist {
        let Some(r) = &d.first else { continue };
        let p = format!("parallel.r{}", d.ranks);
        for (i, name) in PHASES.iter().enumerate() {
            let col: Vec<f64> = d.phases.iter().map(|s| s[i]).collect();
            report.push(format!("{p}.{name}"), median(&col), "s");
        }
        report.push(format!("{p}.sim_units"), r.sim_total_units, "units");
        report.push(format!("{p}.levels"), r.result.num_levels() as f64, "count");
        report.push(
            format!("{p}.inner_iterations"),
            inner_iterations(&r.result),
            "count",
        );
        report.push(
            format!("{p}.scans"),
            r.frontier.active_vertices as f64,
            "count",
        );
        report.push(
            format!("{p}.skipped_scans"),
            r.frontier.skipped_scans as f64,
            "count",
        );
        if d.ranks == 2 {
            report.push(
                format!("{p}.delta_messages"),
                r.comm_breakdown.state_propagation as f64,
                "count",
            );
            report.push(
                format!("{p}.modularity_messages"),
                r.comm_breakdown.modularity as f64,
                "count",
            );
        }
        report.push(
            format!("{p}.ns_per_unit"),
            median(&d.ns_per_unit),
            "ns/unit",
        );
        let moves: f64 = r
            .result
            .levels
            .iter()
            .map(|l| {
                l.move_fractions
                    .iter()
                    .map(|f| (f * l.num_vertices as f64).round())
                    .sum::<f64>()
            })
            .sum();
        report.push(
            format!("{p}.move_yield"),
            moves / r.frontier.active_vertices.max(1) as f64,
            "ratio",
        );
    }

    for (name, s) in [("seq", &b.seq), ("smp", &b.smp)] {
        if let Some(r) = &s.first {
            report.push(format!("{name}.levels"), r.num_levels() as f64, "count");
            report.push(
                format!("{name}.inner_iterations"),
                inner_iterations(r),
                "count",
            );
        }
    }

    let ckpt = if b.wl.checkpoints() {
        Some(&b.dist[1])
    } else {
        b.other_r2.as_ref()
    };
    if let Some(r) = ckpt.and_then(|d| d.first.as_ref()) {
        report.push("checkpoint.r2.bytes", r.checkpoint_bytes as f64, "B");
        report.push("checkpoint.r2.taken", r.checkpoints_taken as f64, "count");
        report.push("checkpoint.r2.replays", r.recovery_replays as f64, "count");
        report.push("checkpoint.r2.overhead_s", median(&b.ckpt_overhead), "s");
    }

    report.push("trace.setup_s", median(&b.setup), "s");
    report.push("trace.seq_s", median(&b.seq.secs), "s");
    report.push("trace.smp_s", median(&b.smp.secs), "s");
    report.push("trace.dist_r1_s", median(&b.dist[0].solves.secs), "s");
    report.push("trace.dist_r2_s", median(&b.dist[1].solves.secs), "s");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-15);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-15);
    }

    #[test]
    fn args_need_a_known_workload() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--seed 3").is_err());
        assert!(parse("--workload nope").is_err());
        let a = parse("--workload rmat-14 --seed 7 --seconds 2 --trace 1").expect("valid args");
        assert_eq!((a.workload, a.seed, a.trace), (Workload::Rmat14, 7, true));
    }

    #[test]
    fn every_malformed_copy_is_one_line_off() {
        let base = Workload::LfrAmazon.generate(DEFAULT_SEED).text;
        let base = String::from_utf8(base).expect("utf-8");
        for (what, text) in workload::malformed() {
            let copy = String::from_utf8(text).expect("utf-8");
            let differ = base
                .lines()
                .zip(copy.lines())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(differ, 1, "{what}");
            assert_eq!(base.lines().count(), copy.lines().count(), "{what}");
        }
    }

    #[test]
    fn only_the_u32_max_copy_loses_the_vertex_count_header() {
        for (what, text) in workload::malformed() {
            let copy = String::from_utf8(text).expect("utf-8");
            let header = copy.lines().any(|l| l.starts_with("# n "));
            assert_eq!(header, what != "id_u32_max", "{what}");
        }
    }
}
