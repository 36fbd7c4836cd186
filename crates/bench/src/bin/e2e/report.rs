//! The metric tables, how each metric is computed from a run's outcome,
//! and the output forms: the one-line result the benchmark contract asks
//! for, the per-workload record `--out` collects, and the terminal's table.

use crate::stats::{median, percentile, quartile_spread, samples_beyond};
use crate::trace::durations;
use crate::workloads::Outcome;
use std::collections::BTreeMap;
use std::fmt::Write;

/// A reported number with its unit and, for end-to-end metrics, the
/// spread seen inside the run (quartile distance over median, across
/// five consecutive blocks of ops or across the set-ups; 0 elsewhere).
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub unit: &'static str,
    pub spread: f64,
}

/// Name, unit, better direction.
pub type Decl = (&'static str, &'static str, &'static str);

/// Metric name and reading, in declaration order.
pub type Readings = Vec<(&'static str, Reading)>;

/// The end-to-end metrics that carry a bound in `BENCHMARK.json`. The
/// other four the issue names — `failed_ops_pct`, `latency_p50_ms`,
/// `latency_p90_ms`, `ops_per_s` — lead [`PER_LAYER`]: see there.
pub const END_TO_END: [Decl; 2] = [("setup_s", "s", "lower"), ("peak_rss_mb", "MiB", "lower")];

/// How a metric without a bound is read off a run.
#[derive(Clone, Copy)]
pub enum From {
    /// A statistic of the timed ops' latencies in ms, over the whole run.
    Timed(fn(&[f64]) -> f64),
    /// Median duration of the spans with this name, in the unit given by
    /// nanoseconds per unit.
    Span(&'static str, f64),
    /// Median of the samples recorded under the metric's own name.
    Sample,
    /// Computed from other per-layer metrics; absent when one of them is.
    Derived(fn(&BTreeMap<&'static str, f64>) -> Option<f64>),
    /// Failed ops ÷ attempted ops × 100.
    FailedPct,
}

const MS: f64 = 1e6;
const US: f64 = 1e3;

fn get(m: &BTreeMap<&'static str, f64>, k: &str) -> Option<f64> {
    m.get(k).copied()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The metrics `BENCHMARK.json` declares without a bound.
///
/// First the end-to-end metrics that are **informational**. The issue's
/// rule is that an end-to-end metric which does not repeat within a tenth
/// on some workload is demoted, not given a wider bound, and on the host
/// this was written on none of the three timing metrics does: two runs of
/// one seed a minute apart read `latency_p50_ms` 41.2 and 50.8 on
/// `embed_scan_join` (README, *About the bounds*). `failed_ops_pct` reads
/// 0, and the benchmark contract compares a bounded metric with a share of
/// its parent's median; its bound — any increase — is enforced by
/// `e2e compare` and by the exit code.
///
/// Then the per-layer metrics, layer prefix = crate name. A workload's
/// traced replay takes those whose calls its op makes (see `probes`); the
/// others are absent there.
pub const PER_LAYER: [(Decl, From); 56] = [
    (("failed_ops_pct", "%", "lower"), From::FailedPct),
    (
        ("latency_p50_ms", "ms", "lower"),
        From::Timed(|ops| percentile(&sorted(ops), 0.5)),
    ),
    (
        ("latency_p90_ms", "ms", "lower"),
        From::Timed(|ops| percentile(&sorted(ops), 0.9)),
    ),
    (("ops_per_s", "1/s", "higher"), From::Timed(ops_per_s)),
    (
        ("server.ping_ms", "ms", "lower"),
        From::Span("server.ping", MS),
    ),
    (
        ("server.roundtrip_ms", "ms", "lower"),
        From::Span("server.roundtrip", MS),
    ),
    (
        ("server.session_ms", "ms", "lower"),
        From::Span("server.session", MS),
    ),
    (
        ("server.json_encode_ms", "ms", "lower"),
        From::Span("server.json_encode", MS),
    ),
    (
        ("server.json_parse_ms", "ms", "lower"),
        From::Span("server.json_parse", MS),
    ),
    (
        ("server.wire_self_ms", "ms", "lower"),
        From::Derived(|m| {
            Some(
                get(m, "server.roundtrip_ms")?
                    - get(m, "server.session_ms")?
                    - get(m, "server.json_encode_ms")?
                    - get(m, "server.json_parse_ms")?,
            )
        }),
    ),
    (("server.resp_bytes", "bytes", "lower"), From::Sample),
    (
        ("server.json_parse_ns_per_byte", "ns/byte", "lower"),
        From::Derived(|m| {
            Some(ratio(
                get(m, "server.json_parse_ms")? * 1e6,
                get(m, "server.resp_bytes")?,
            ))
        }),
    ),
    (
        ("engine.lex_us", "us", "lower"),
        From::Span("engine.lex", US),
    ),
    (
        ("engine.parse_us", "us", "lower"),
        From::Span("engine.parse", US),
    ),
    (
        ("engine.optimize_us", "us", "lower"),
        From::Span("engine.optimize", US),
    ),
    (
        ("engine.prepare_miss_us", "us", "lower"),
        From::Span("engine.prepare_miss", US),
    ),
    (
        ("engine.prepare_hit_us", "us", "lower"),
        From::Span("engine.prepare_hit", US),
    ),
    (
        ("engine.execute_ms", "ms", "lower"),
        From::Span("engine.execute", MS),
    ),
    (
        ("engine.execute_t1_ms", "ms", "lower"),
        From::Span("engine.execute_t1", MS),
    ),
    (
        ("engine.execute_nat_ms", "ms", "lower"),
        From::Span("engine.execute_nat", MS),
    ),
    (
        ("engine.prov_overhead_x", "x", "lower"),
        From::Derived(|m| {
            Some(ratio(
                get(m, "engine.execute_ms")?,
                get(m, "engine.execute_nat_ms")?,
            ))
        }),
    ),
    (("engine.result_rows", "rows", "lower"), From::Sample),
    (
        ("engine.render_ms", "ms", "lower"),
        From::Span("engine.render", MS),
    ),
    (
        ("engine.delete_tokens_ms", "ms", "lower"),
        From::Span("engine.delete_tokens", MS),
    ),
    (
        ("engine.valuate_ms", "ms", "lower"),
        From::Span("engine.valuate", MS),
    ),
    (
        ("engine.view_insert_ms", "ms", "lower"),
        From::Span("engine.view_insert", MS),
    ),
    (
        ("engine.view_delete_ms", "ms", "lower"),
        From::Span("engine.view_delete", MS),
    ),
    (
        ("engine.view_read_us", "us", "lower"),
        From::Span("engine.view_read", US),
    ),
    (
        ("engine.snapshot_us", "us", "lower"),
        From::Span("engine.snapshot", US),
    ),
    (
        ("engine.materialize_ms", "ms", "lower"),
        From::Span("engine.materialize", MS),
    ),
    (
        ("engine.reexecute_ms", "ms", "lower"),
        From::Span("engine.reexecute", MS),
    ),
    (
        ("engine.unattributed_ms", "ms", "lower"),
        From::Derived(|m| Some(get(m, "engine.execute_ms")? - get(m, "core.replay_ms")?)),
    ),
    (
        ("krel.ground_batch_ms", "ms", "lower"),
        From::Span("krel.ground_batch", MS),
    ),
    (
        ("krel.into_relation_ms", "ms", "lower"),
        From::Span("krel.into_relation", MS),
    ),
    (
        ("krel.ground_batch_ns_per_row", "ns/row", "lower"),
        From::Derived(|m| {
            Some(ratio(
                get(m, "krel.ground_batch_ms")? * 1e6,
                get(m, "core.ground_rows")? + get(m, "core.fringe_rows")?,
            ))
        }),
    ),
    (
        ("core.chunk_from_relation_ms", "ms", "lower"),
        From::Span("core.chunk_from_relation", MS),
    ),
    (
        ("core.chunk_into_relation_ms", "ms", "lower"),
        From::Span("core.chunk_into_relation", MS),
    ),
    (
        ("core.filter_ms", "ms", "lower"),
        From::Span("core.filter", MS),
    ),
    (
        ("core.hash_join_ms", "ms", "lower"),
        From::Span("core.hash_join", MS),
    ),
    (
        ("core.group_by_ms", "ms", "lower"),
        From::Span("core.group_by", MS),
    ),
    (
        ("core.replay_ms", "ms", "lower"),
        From::Span("core.replay", MS),
    ),
    (("core.ground_rows", "rows", "lower"), From::Sample),
    (("core.fringe_rows", "rows", "lower"), From::Sample),
    (("core.selected_rows", "rows", "lower"), From::Sample),
    (("algebra.poly_add_ns", "ns", "lower"), From::Sample),
    (("algebra.poly_mul_ns", "ns", "lower"), From::Sample),
    (
        ("algebra.drop_vars_us", "us", "lower"),
        From::Span("algebra.drop_vars", US),
    ),
    (("algebra.polys", "count", "lower"), From::Sample),
    (("algebra.terms_mean", "terms", "lower"), From::Sample),
    (("algebra.terms_max", "terms", "lower"), From::Sample),
    (("algebra.degree_max", "degree", "lower"), From::Sample),
    (("algebra.distinct_tokens", "count", "lower"), From::Sample),
    (("algebra.size_mean", "nodes", "lower"), From::Sample),
    (
        ("algebra.annotation_bytes_mean", "bytes", "lower"),
        From::Sample,
    ),
    (("trace.op_ms", "ms", "lower"), From::Span("op", MS)),
    (("trace.probes_ms", "ms", "lower"), From::Span("probes", MS)),
];

/// Reported by the record and the README only: `𝔹` cannot run every
/// statement, so this is not a number on every workload.
pub const EXECUTE_BOOL: (Decl, From) = (
    ("engine.execute_bool_ms", "ms", "lower"),
    From::Span("engine.execute_bool", MS),
);

/// Consecutive blocks a run's timed ops, or its set-ups, are cut into for
/// the spread reported beside a reading.
const BLOCKS: usize = 5;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn ops_per_s(lat_ms: &[f64]) -> f64 {
    ratio(lat_ms.len() as f64, lat_ms.iter().sum::<f64>() / 1e3)
}

/// How steady a run was: `f` over [`BLOCKS`] consecutive blocks of
/// `values` (whole multiples of `unit` items each), quartile distance over
/// median. It decides nothing here; `e2e compare` calls a metric
/// unresolved when it is too wide.
fn block_spread(values: &[f64], unit: usize, f: fn(&[f64]) -> f64) -> f64 {
    let per_block = (values.len() / unit / BLOCKS).max(1) * unit;
    let per_block: Vec<f64> = values.chunks_exact(per_block).map(f).collect();
    quartile_spread(&per_block)
}

/// The bounded readings of a run, in `END_TO_END` order.
pub fn end_to_end(out: &Outcome) -> Readings {
    let values = [
        (median(&out.setup_s), block_spread(&out.setup_s, 1, median)),
        (out.peak_rss_mb, 0.0),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _), (value, spread))| {
            let reading = Reading {
                value,
                unit,
                spread,
            };
            (*name, reading)
        })
        .collect()
}

/// A latency statistic over **all** timed ops of the run (`samples_beyond`
/// in the record counts that same population), and its spread over blocks
/// of whole parameter cycles.
fn timed(out: &Outcome, f: fn(&[f64]) -> f64) -> (f64, f64) {
    (
        f(&out.lat_ms),
        block_spread(&out.lat_ms, out.cycle.max(1), f),
    )
}

fn failed_ops_pct(out: &Outcome) -> f64 {
    ratio(out.failed as f64 * 100.0, out.attempted as f64)
}

/// The readings without a bound, in `PER_LAYER` order, then
/// `engine.execute_bool_ms` where the statement runs under `𝔹`. A metric
/// whose calls the workload's op does not make has no reading, and
/// without the traced replay only the informational end-to-end ones do.
pub fn per_layer(out: &Outcome) -> Readings {
    let spans = durations(&out.spans);
    // Measured metrics first: derived ones may name any of them.
    let mut values: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    let all = || PER_LAYER.iter().chain([&EXECUTE_BOOL]);
    for ((name, _, _), from) in all() {
        let value = match from {
            From::Timed(f) => Some(timed(out, *f)),
            From::Span(span, per_unit) => spans.get(span).map(|ns| (median(ns) / per_unit, 0.0)),
            From::Sample => out.samples.get(name).map(|s| (median(s), 0.0)),
            From::FailedPct => Some((failed_ops_pct(out), 0.0)),
            From::Derived(_) => None,
        };
        if let Some(value) = value {
            values.insert(name, value);
        }
    }
    let measured: BTreeMap<&'static str, f64> = values.iter().map(|(k, v)| (*k, v.0)).collect();
    for ((name, _, _), from) in all() {
        if let From::Derived(f) = from {
            if let Some(value) = f(&measured) {
                values.insert(name, (value, 0.0));
            }
        }
    }
    all()
        .filter(|((name, _, _), _)| !out.not_available.contains_key(name))
        .filter_map(|((name, unit, _), _)| {
            let (value, spread) = *values.get(name)?;
            let reading = Reading {
                value,
                unit,
                spread,
            };
            Some((*name, reading))
        })
        .collect()
}

/// The declared per-layer metrics `readings` lacks.
fn absent(readings: &Readings) -> impl Iterator<Item = &'static str> + '_ {
    PER_LAYER
        .iter()
        .map(|((name, _, _), _)| *name)
        .filter(|name| !readings.iter().any(|(n, _)| n == name))
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits (`{}` on `f64` round-trips); the
/// non-finite values JSON cannot carry read 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_object(readings: &Readings, with_spread: bool) -> String {
    let fields: Vec<String> = readings
        .iter()
        .map(|(name, r)| {
            let spread = if with_spread {
                format!(", \"spread\": {}", json_number(r.spread))
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{spread}}}",
                json_string(name),
                json_number(r.value),
                json_string(r.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Both sets of readings of one run.
pub struct Report {
    pub end_to_end: Readings,
    pub per_layer: Readings,
}

impl Report {
    pub fn of(out: &Outcome) -> Report {
        Report {
            end_to_end: end_to_end(out),
            per_layer: per_layer(out),
        }
    }

    /// The contract's result: one JSON object, the last line of stdout,
    /// with exactly the metrics `BENCHMARK.json` declares for `--trace`:
    /// the bounded ones for 0, all the others for 1. The contract wants
    /// each of those on every workload: one the workload's op spends no
    /// time in reads 0 here (the table and the record say `absent`).
    pub fn result_line(&self, out: &Outcome, traced: bool) -> String {
        let declared: Readings = if traced {
            PER_LAYER
                .iter()
                .map(|((name, unit, _), _)| {
                    let reading = self.per_layer.iter().find(|(n, _)| n == name);
                    let value = reading.map_or(0.0, |(_, r)| r.value);
                    let reading = Reading {
                        value,
                        unit,
                        spread: 0.0,
                    };
                    (*name, reading)
                })
                .collect()
        } else {
            self.end_to_end.clone()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            out.failed == 0,
            out.attempted.max(1),
            out.failed,
            metrics_object(&declared, false)
        )
    }

    /// One workload's run, as `--record` writes it and `--out` merges.
    pub fn record(&self, out: &Outcome, traced: bool) -> String {
        let not_available: Vec<String> = out
            .not_available
            .iter()
            .map(|(k, why)| format!("{}: {}", json_string(k), json_string(why)))
            .collect();
        let absent: Vec<String> = if traced {
            absent(&self.per_layer).map(json_string).collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"failure\": {}, \"result_digest\": {}, \
             \"timed_ops\": {}, \"p90_samples_beyond\": {}, \"not_available\": {{{}}}, \
             \"absent\": [{}], \"end_to_end\": {}, \"per_layer\": {}}}",
            out.attempted,
            out.failed,
            out.failure.as_deref().map_or("null".into(), json_string),
            json_string(&out.digest),
            out.lat_ms.len(),
            samples_beyond(out.lat_ms.len(), 0.9),
            not_available.join(", "),
            absent.join(", "),
            metrics_object(&self.end_to_end, true),
            metrics_object(&self.per_layer, true)
        )
    }

    /// Every metric by name with its unit, for the terminal.
    pub fn table(&self, workload: &str, out: &Outcome, traced: bool) -> String {
        let beyond = samples_beyond(out.lat_ms.len(), 0.9);
        let mut text = format!(
            "== {workload}: {} ops attempted, {} failed, result_digest {}\n   \
             {} timed ops; {beyond} samples beyond p90{}\n",
            out.attempted,
            out.failed,
            out.digest,
            out.lat_ms.len(),
            if beyond < 10 {
                " (fewer than ten: read p90 with care)"
            } else {
                ""
            }
        );
        for (name, r) in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = writeln!(text, "   {name:<34} {:>14.4} {}", r.value, r.unit);
        }
        for (name, why) in &out.not_available {
            let _ = writeln!(text, "   {name:<34} {:>14} ({why})", "n/a");
        }
        if traced {
            for name in absent(&self.per_layer) {
                let _ = writeln!(text, "   {name:<34} {:>14}", "absent");
            }
        }
        if let Some(e) = &out.failure {
            let _ = writeln!(text, "   first failure: {e}");
        }
        text
    }
}
