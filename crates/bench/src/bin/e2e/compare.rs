//! `e2e compare <a.json> <b.json>`: two `--out` files, metric by metric
//! and workload by workload, against the bounds `BENCHMARK.json` fixes.
//!
//! `a` is the baseline. A bounded metric **regressed** when `b` is worse
//! than `a` by more than its bound; it is **unresolved**, not unchanged,
//! when either input's own spread exceeds that bound. `failed_ops_pct`
//! regressed on any increase. When the seeds are equal, result digests
//! and every exact count must be too. The other metrics have no bound:
//! their times are printed for reading. The informational end-to-end
//! ones are read against the bound the issue gave them, which names the
//! pairs of metric and workload that do resolve on a host (`wire_point`'s
//! latency does everywhere) — as a reading aid: it never fails the
//! comparison, because a run's own spread does not see the host's drift
//! between two runs.

use aggprov_server::Json;
use std::collections::BTreeMap;

fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Int(n) => Some(*n as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

/// `name → (better, bound)` of the end-to-end metrics.
fn bounds(bench: &Json) -> Result<BTreeMap<String, (String, f64)>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            match (
                field("name"),
                field("better"),
                m.get("bound").and_then(number),
            ) {
                (Some(name), Some(better), Some(bound)) => Ok((name, (better, bound))),
                _ => Err(format!("malformed end_to_end entry: {m}")),
            }
        })
        .collect()
}

/// A field (`value`, `spread`) of one reading in a workload's record.
fn reading(run: &Json, set: &str, name: &str, field: &str) -> Option<f64> {
    run.get(set)?.get(name)?.get(field).and_then(number)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// The verdict on one end-to-end metric.
pub fn verdict(a: f64, b: f64, spread: f64, better: &str, bound: f64) -> &'static str {
    if spread > bound {
        "unresolved"
    } else if worsening(a, b, better) > bound {
        "REGRESSED"
    } else {
        "ok"
    }
}

/// The end-to-end metrics that carry no bound (see `report::PER_LAYER`),
/// with their better direction and the bound the issue gave them.
const INFORMATIONAL: [(&str, &str, f64); 3] = [
    ("latency_p50_ms", "lower", 0.10),
    ("latency_p90_ms", "lower", 0.15),
    ("ops_per_s", "higher", 0.10),
];

/// Units whose readings are exact counts: equal inputs give equal values.
fn is_count(unit: &str) -> bool {
    matches!(
        unit,
        "rows" | "bytes" | "count" | "terms" | "degree" | "nodes"
    )
}

/// Prints the comparison; `Ok(true)` when nothing regressed or differed.
pub fn run(a_path: &str, b_path: &str, bench_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(&load(bench_path)?)?;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{a_path}: no workloads"))?;
    let same_seed = a.get("seed") == b.get("seed");
    let mut clean = true;
    for (name, run_a) in workloads {
        let Some(run_b) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("== {name}: missing from {b_path}");
            clean = false;
            continue;
        };
        println!("== {name}");
        for (label, run) in [(a_path, run_a), (b_path, run_b)] {
            let failed = run.get("failed").and_then(Json::as_int);
            if failed != Some(0) {
                println!("   {label}: failed ops ({failed:?})");
                clean = false;
            }
        }
        let digest = |r: &Json| r.get("result_digest").cloned();
        if same_seed && digest(run_a) != digest(run_b) {
            println!(
                "   result_digest differs: {:?} vs {:?}",
                digest(run_a),
                digest(run_b)
            );
            clean = false;
        }
        for (m, (better, bound)) in &bounds {
            let read = |run: &Json, field: &str| reading(run, "end_to_end", m, field);
            let (Some(va), Some(vb)) = (read(run_a, "value"), read(run_b, "value")) else {
                println!("   {m:<34} missing");
                clean = false;
                continue;
            };
            let spread = read(run_a, "spread")
                .unwrap_or(0.0)
                .max(read(run_b, "spread").unwrap_or(0.0));
            let v = verdict(va, vb, spread, better, *bound);
            clean &= v != "REGRESSED";
            println!(
                "   {m:<34} {va:>12.4} -> {vb:>12.4}  {:>+7.1}% worse (bound {:.0}%, spread {:.1}%)  {v}",
                worsening(va, vb, better) * 100.0,
                bound * 100.0,
                spread * 100.0
            );
        }
        let layers = run_a.get("per_layer").and_then(Json::as_obj);
        for (m, in_a) in layers.into_iter().flatten() {
            let unit = in_a.get("unit").and_then(Json::as_str).unwrap_or("");
            let (Some(va), Some(vb)) = (
                in_a.get("value").and_then(number),
                reading(run_b, "per_layer", m, "value"),
            ) else {
                continue;
            };
            if m == "failed_ops_pct" {
                let v = if vb > va { "REGRESSED" } else { "ok" };
                clean &= vb <= va;
                println!("   {m:<34} {va:>12.4} -> {vb:>12.4}  (bound: any increase)  {v}");
            } else if is_count(unit) {
                if same_seed && va != vb {
                    println!("   {m:<34} {va:>12.4} -> {vb:>12.4}  exact count differs");
                    clean = false;
                }
            } else if let Some((_, better, bound)) = INFORMATIONAL.iter().find(|i| i.0 == m) {
                let spread = reading(run_a, "per_layer", m, "spread")
                    .unwrap_or(0.0)
                    .max(reading(run_b, "per_layer", m, "spread").unwrap_or(0.0));
                println!(
                    "   {m:<34} {va:>12.4} -> {vb:>12.4}  {:>+7.1}% worse (no bound; issue's {:.0}%, spread {:.1}%)  {} (informational)",
                    worsening(va, vb, better) * 100.0,
                    bound * 100.0,
                    spread * 100.0,
                    verdict(va, vb, spread, better, *bound)
                );
            } else {
                println!(
                    "   {m:<34} {va:>12.4} -> {vb:>12.4}  {:>+7.1}% {unit}",
                    worsening(va, vb, "lower") * 100.0
                );
            }
        }
    }
    Ok(clean)
}
