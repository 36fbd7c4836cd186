//! What the five workloads share: their sizes, the closed-loop driver
//! that times ops and checks replies, and the traced replay.
//!
//! Every workload is a closed loop with one caller: the next op starts
//! when the previous reply is in hand, which is how `Client` and
//! `Prepared::execute_with` are used. The product runs with its defaults
//! (no `AGGPROV_*` variable is set or read here).

use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// One workload's name, reason and load. Table sizes and op counts are
/// constants: the counts were sized to roughly 20 s of timed work at the
/// commit that added the benchmark, on a 2-CPU host.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Timed ops in a fixed-count run (`--seconds` replaces this by a
    /// deadline and replays the same op stream cyclically).
    pub ops: usize,
    /// Untimed ops before timing: they fill the plan cache and let lazy
    /// set-up finish.
    pub warmup: usize,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "wire_point",
        why: "tiny result over the wire: server transport, framing and session dispatch are nearly all of the time, core and algebra almost none",
        ops: 240,
        warmup: 20,
    },
    Spec {
        name: "wire_report",
        why: "same server, 20-30 KB symbolic result: JSON encode/parse and annotation rendering dominate; wire_point must not move with them",
        ops: 110,
        warmup: 5,
    },
    Spec {
        name: "embed_scan_join",
        why: "in-process, 100k ground rows, tiny output: Relation-to-Chunk conversion and typed filter/join kernels do the work, server none",
        ops: 300,
        warmup: 10,
    },
    Spec {
        name: "embed_agg_prov",
        why: "in-process GROUP BY/HAVING then delete_tokens: tensor sums, delta and comparison tokens make algebra and group_by dominate",
        ops: 160,
        warmup: 5,
    },
    Spec {
        name: "embed_churn",
        why: "inserts and token deletions beside two maintained views: view delta maintenance, epoch copy-on-write and plan-cache stamps pay",
        ops: 140,
        warmup: 3,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// Ops replayed by the traced pass.
pub const TRACED_OPS: usize = 20;

/// Set-ups per run: as many as fit the budget, within limits.
pub const SETUP_MIN: usize = 3;
pub const SETUP_MAX: usize = 200;
pub const SETUP_BUDGET_S: f64 = 2.0;

/// When the timed loop ends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stop {
    /// After the workload's fixed op count.
    Ops,
    /// After this many seconds of wall time, checks included.
    Seconds(f64),
}

#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub seed: u64,
    /// Divisor applied to table sizes and op counts (1 = full size).
    pub scale: usize,
    pub stop: Stop,
    /// Whether the traced replay follows the timed loop.
    pub traced: bool,
}

impl Cfg {
    pub fn rows(&self, full: usize) -> usize {
        (full / self.scale).max(1)
    }

    pub fn ops(&self, spec: &Spec) -> usize {
        (spec.ops / self.scale).max(1)
    }

    pub fn warmup(&self, spec: &Spec) -> usize {
        (spec.warmup / self.scale).max(1)
    }

    pub fn traced_ops(&self, spec: &Spec) -> usize {
        (TRACED_OPS / self.scale).clamp(1, self.ops(spec))
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// The first failure, verbatim.
    pub failure: Option<String>,
    /// Digest of every distinct expected result, in op order.
    pub digest: String,
    pub setup_s: Vec<f64>,
    /// Per-op wall time of the timed ops, in run order: whole cycles.
    pub lat_ms: Vec<f64>,
    /// After how many ops the mix of parameters repeats.
    pub cycle: usize,
    /// `VmHWM` when the timed loop ended: what the traced replay builds
    /// after it (the tables under two more semirings) is not the product's.
    pub peak_rss_mb: f64,
    pub spans: Vec<Span>,
    /// Exact counts and per-unit figures the traced pass took, by metric.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Metrics that could not be taken, with the product's own error.
    pub not_available: BTreeMap<&'static str, String>,
}

impl Outcome {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failure.get_or_insert(e);
        }
    }

    /// Adds one sample of a count or per-unit metric.
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }
}

/// The product's errors, as the harness carries them.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One workload's op stream. Position `i` runs over `0..warmup + cycle`:
/// the warm-up ops, then one cycle that the loops replay; the same
/// position always means the same op on the same state.
pub trait Ops {
    type Reply;

    /// The timed part: issue op `i` and return with the reply in hand.
    /// With the tracer on, the calls it makes are recorded as spans.
    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<Self::Reply, String>;

    /// The untimed part: compare the reply with the expected result.
    fn check(&mut self, i: usize, reply: &Self::Reply) -> Result<(), String>;

    /// After how many consecutive ops the stream repeats: the parameter
    /// rotation's length, or how long a mutating workload lets its state
    /// drift before restoring it.
    fn cycle(&self) -> usize;

    /// Called once, after the warm-up ops and before the first timed one.
    fn warmed(&mut self) {}

    /// Restores the state [`Ops::warmed`] saw, before each replay of the
    /// cycle. Read-only workloads have nothing to restore.
    fn rewind(&mut self) {}

    /// Called once before the traced replay: build what the probes need.
    /// Not earlier, so that the timed loop's peak memory is the product's.
    fn start_probes(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Traced replay only: time the calls into each layer on op `i`'s
    /// inputs.
    fn probe(&mut self, i: usize, t: &mut Tracer, out: &mut Outcome) -> Result<(), String>;

    /// Traced replay only: the probes a run takes once, after the ops.
    fn probe_once(&mut self, t: &mut Tracer) -> Result<(), String>;
}

fn run_checked<O: Ops>(o: &mut O, i: usize, t: &mut Tracer) -> (f64, Result<(), String>) {
    let start = Instant::now();
    let reply = o.op(i, t);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (ms, reply.and_then(|r| o.check(i, &r)))
}

/// One run: the warm-up ops, the timed loop and, if `cfg` asks for it,
/// the traced replay with every span kept in the outcome.
pub fn run_pass<O: Ops>(
    o: &mut O,
    cfg: &Cfg,
    spec: &Spec,
    out: &mut Outcome,
) -> Result<(), String> {
    for i in 0..cfg.warmup(spec) {
        let (_, result) = run_checked(o, i, &mut Tracer::off());
        out.record(result);
    }
    o.warmed();
    timed_loop(o, cfg, spec, out);
    out.peak_rss_mb = crate::stats::peak_rss_mb();
    if cfg.traced {
        o.rewind();
        o.start_probes()?;
        let mut t = Tracer::on();
        traced_loop(o, cfg, spec, &mut t, out);
        t.enter("once");
        o.probe_once(&mut t)?;
        t.exit();
        out.spans = t.spans;
    }
    Ok(())
}

/// The timed closed loop: per op only the start and end instants are
/// taken and the latency lands in a pre-allocated vector; the reply is
/// checked after the clock stops.
fn timed_loop<O: Ops>(o: &mut O, cfg: &Cfg, spec: &Spec, out: &mut Outcome) {
    let (warmup, ops, cycle) = (cfg.warmup(spec), cfg.ops(spec), o.cycle());
    let mut off = Tracer::off();
    out.lat_ms = Vec::with_capacity(1 << 16);
    let begun = Instant::now();
    for n in 0.. {
        let done = match cfg.stop {
            Stop::Ops => n >= ops,
            Stop::Seconds(s) => n > 0 && begun.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        if n > 0 && n % cycle == 0 {
            o.rewind();
        }
        let (ms, result) = run_checked(o, warmup + n % cycle, &mut off);
        out.lat_ms.push(ms);
        out.record(result);
    }
    // Statistics are taken over whole cycles, so that a run that ends
    // mid-cycle reports the same mix of cheap and dear ops as one that
    // does not.
    out.cycle = cycle;
    let whole = out.lat_ms.len() / cycle * cycle;
    if whole > 0 {
        out.lat_ms.truncate(whole);
    }
}

/// The traced replay of the first ops: each op runs under a root span
/// with the tracer on, is checked after the span closes, and is followed
/// by the per-layer probes on its inputs.
fn traced_loop<O: Ops>(o: &mut O, cfg: &Cfg, spec: &Spec, t: &mut Tracer, out: &mut Outcome) {
    let (warmup, cycle) = (cfg.warmup(spec), o.cycle());
    for n in 0..cfg.traced_ops(spec) {
        if n > 0 && n % cycle == 0 {
            o.rewind();
        }
        let i = warmup + n % cycle;
        t.set_op(n);
        t.enter("op");
        let reply = o.op(i, t);
        t.exit();
        let checked = reply.and_then(|r| o.check(i, &r));
        t.enter("probes");
        let probed = o.probe(i, t, out);
        t.exit();
        out.record(checked.and(probed));
    }
}

/// Builds the system under test as often as fits [`SETUP_BUDGET_S`]
/// (tearing down included, scaled like the sizes; between [`SETUP_MIN`]
/// and [`SETUP_MAX`] times), discarding all but the last product, and
/// returns it with the seconds each build took.
/// `setup_s` is their median: a cheap set-up is noisy, so it is repeated
/// more often.
pub fn setups<T>(
    cfg: &Cfg,
    mut build: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let begun = Instant::now();
    let budget = SETUP_BUDGET_S / cfg.scale as f64;
    let mut seconds = Vec::new();
    loop {
        let start = Instant::now();
        let built = build()?;
        seconds.push(start.elapsed().as_secs_f64());
        let enough = seconds.len() >= SETUP_MIN && begun.elapsed().as_secs_f64() >= budget;
        if enough || seconds.len() == SETUP_MAX {
            return Ok((built, seconds));
        }
        discard(built);
    }
}
