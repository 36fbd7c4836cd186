//! `e2e` — the repository's benchmark: SQL text in, wire bytes out, timed
//! end to end and layer by layer. See `README.md` beside this file.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload
//! e2e --seed <n> --out <file> [--seconds <s>]                    every workload
//! e2e --smoke                                                    every workload at 1/50 size
//! e2e compare <a.json> <b.json> [<BENCHMARK.json>]               two --out files
//! ```
//!
//! The first form is the one `BENCHMARK.json`'s command runs; its last
//! line of output is the result object. A run is set-ups, warm-up and the
//! timed loop; `--trace 1` adds the traced replay and reports the metrics
//! without a bound in place of the bounded ones. The second form runs each
//! workload (with the replay) in a child process of its own, so peak
//! memory and allocator state are per workload, and exits non-zero on any
//! incorrect result.

mod churn;
mod compare;
mod embed;
mod gen;
mod oracle;
mod probes;
mod report;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod wire;
mod workloads;

use aggprov_core::ExecOptions;
use report::Report;
use std::process::{Command, ExitCode};
use workloads::{Cfg, Outcome, Spec, Stop, SPECS};

const USAGE: &str = "usage:
  e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <file>]
  e2e --seed <n> --out <file> [--seconds <s>]
  e2e --smoke [--seed <n>]
  e2e compare <a.json> <b.json> [<BENCHMARK.json>]";

/// The size divisor of `--smoke`.
const SMOKE_SCALE: usize = 50;

fn run_workload(spec: &Spec, cfg: &Cfg) -> Result<Outcome, String> {
    match spec.name {
        "wire_point" => wire::run(cfg, spec, wire::Statement::Point),
        "wire_report" => wire::run(cfg, spec, wire::Statement::Report),
        "embed_scan_join" => embed::scan_join(cfg, spec),
        "embed_agg_prov" => embed::agg_prov(cfg, spec),
        "embed_churn" => churn::run(cfg, spec),
        other => Err(format!("no workload `{other}`")),
    }
}

/// Runs one workload and prints every metric it took.
fn one_run(spec: &Spec, cfg: &Cfg) -> Result<(Outcome, Report), String> {
    let out = run_workload(spec, cfg)?;
    let report = Report::of(&out);
    println!("-- {}: {}", spec.name, spec.why);
    print!("{}", report.table(spec.name, &out, cfg.traced));
    Ok((out, report))
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    record: Option<String>,
    out: Option<String>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--record" => parsed.record = Some(value.clone()),
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// One workload: the form the benchmark contract runs.
fn single(args: &Args, name: &str) -> Result<bool, String> {
    let spec = workloads::spec(name).ok_or_else(|| format!("no workload `{name}`"))?;
    let cfg = Cfg {
        seed: args.seed,
        scale: 1,
        stop: args.seconds.map_or(Stop::Ops, Stop::Seconds),
        traced: args.traced,
    };
    let (out, report) = one_run(&spec, &cfg)?;
    if let Some(path) = &args.record {
        write(path, &report.record(&out, cfg.traced))?;
        write(
            &format!("{path}.trace.json"),
            &trace::render(spec.name, &out.spans),
        )?;
    }
    println!("{}", report.result_line(&out, cfg.traced));
    Ok(out.failed == 0)
}

/// Every workload, each in a child process, merged into `out_path` (and
/// the spans into `<out_path>.trace.json`).
fn all(args: &Args, out_path: &str) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let (mut runs, mut traces) = (Vec::new(), Vec::new());
    for spec in &SPECS {
        let record = format!("{out_path}.{}.tmp", spec.name);
        let spans = format!("{record}.trace.json");
        let mut child = Command::new(&exe);
        child
            .args(["--workload", spec.name, "--trace", "1"])
            .args(["--record", &record])
            .args(["--seed", &args.seed.to_string()]);
        if let Some(s) = args.seconds {
            child.args(["--seconds", &s.to_string()]);
        }
        let status = child.status().map_err(|e| e.to_string())?;
        ok &= status.success();
        for (path, into) in [(&record, &mut runs), (&spans, &mut traces)] {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("{} left no record: {e}", spec.name))?;
            into.push(text.trim_end().to_string());
            let _ = std::fs::remove_file(path);
        }
        if let Some(run) = runs.last_mut() {
            *run = format!("\"{}\": {run}", spec.name);
        }
    }
    let threads = ExecOptions::from_env()
        .map_err(|e| e.to_string())?
        .threads();
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    write(
        out_path,
        &format!(
            "{{\"seed\": {}, \"host_cpus\": {host_cpus}, \"exec_threads\": {threads}, \
             \"workloads\": {{\n{}\n}}}}\n",
            args.seed,
            runs.join(",\n")
        ),
    )?;
    write(
        &format!("{out_path}.trace.json"),
        &format!("[\n{}\n]\n", traces.join(",\n")),
    )?;
    println!(
        "host_cpus {host_cpus}, exec threads {threads}; wrote {out_path} and {out_path}.trace.json"
    );
    Ok(ok)
}

/// Every workload at 1/50 size, traced replay included, in this process.
fn smoke(seed: u64) -> Result<bool, String> {
    let mut ok = true;
    for spec in &SPECS {
        let cfg = Cfg {
            seed,
            scale: SMOKE_SCALE,
            stop: Stop::Ops,
            traced: true,
        };
        ok &= one_run(spec, &cfg)?.0.failed == 0;
    }
    Ok(ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare::run(a, b, "BENCHMARK.json"),
            [a, b, bench] => compare::run(a, b, bench),
            _ => Err("compare takes two --out files".into()),
        };
    }
    let args = parse(args)?;
    match (&args.workload, &args.out) {
        _ if args.smoke => smoke(args.seed),
        (Some(name), None) => single(&args, name),
        (None, Some(out)) => all(&args, out),
        _ => Err("give either --workload or --out".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
