//! Unit tests of the harness itself, and a smoke run of every workload
//! at 1/50 size (traced replay included), one test per workload so they
//! overlap.

use crate::compare::{self, verdict};
use crate::report::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quartile_spread, samples_beyond, Digest};
use crate::trace::{self_ns, Span};
use crate::workloads::{self, Cfg, Stop, SPECS};
use crate::{gen, run_workload, SMOKE_SCALE};
use aggprov_server::Json;

#[test]
fn percentiles_use_the_nearest_rank() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), 5.0);
    assert_eq!(percentile(&v, 0.9), 9.0);
    assert_eq!(percentile(&v, 1.0), 10.0);
    assert_eq!(percentile(&v[..1], 0.9), 1.0);
    assert_eq!(percentile(&[], 0.5), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn p90_wants_a_hundred_samples() {
    // Ten samples must lie beyond the percentile (choosing-metrics §1).
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert_eq!(samples_beyond(99, 0.9), 9);
    assert_eq!(samples_beyond(240, 0.9), 24);
    assert_eq!(samples_beyond(0, 0.9), 0);
}

#[test]
fn latency_percentiles_are_the_whole_runs() {
    // 100 ops of which the last 12 sat in a stall: the run's p90 is a
    // stalled op (88 lie at or below the fast ones), whatever any one
    // stretch of the run would say, and the 10 samples `samples_beyond`
    // counts are the run's.
    let mut lat_ms = vec![1.0; 88];
    lat_ms.extend([9.0; 12]);
    let out = workloads::Outcome {
        lat_ms,
        cycle: 4,
        ..Default::default()
    };
    let read = |metric: &str| {
        let readings = report::per_layer(&out);
        let reading = readings.iter().find(|(n, _)| *n == metric);
        reading.map(|(_, r)| r.value)
    };
    assert_eq!(read("latency_p50_ms"), Some(1.0));
    assert_eq!(read("latency_p90_ms"), Some(9.0));
    assert_eq!(read("ops_per_s"), Some(100.0 / 0.196));
    // No traced replay, no per-layer reading.
    assert_eq!(read("engine.execute_ms"), None);
}

#[test]
fn quartile_spread_is_pythons() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
    assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    assert_eq!(quartile_spread(&[7.0]), 0.0);
}

#[test]
fn digest_is_fnv1a_and_order_sensitive() {
    assert_eq!(Digest::new().hex(), "cbf29ce484222325");
    let mut a = Digest::new();
    a.bytes(b"a");
    assert_eq!(a.hex(), "af63dc4c8601ec8c");
    let (mut x, mut y) = (Digest::new(), Digest::new());
    x.text("ab");
    x.text("c");
    y.text("a");
    y.text("bc");
    assert_ne!(x, y);
}

#[test]
fn generators_depend_on_the_seed_alone() {
    assert_eq!(gen::emp_int(7, 60, 5), gen::emp_int(7, 60, 5));
    assert_ne!(gen::emp_int(7, 60, 5), gen::emp_int(8, 60, 5));
    assert_eq!(gen::org(7, 3, 4).emp, gen::org(7, 3, 4).emp);
    assert_eq!(gen::churn(7, 5, 3, 12, 2, 2), gen::churn(7, 5, 3, 12, 2, 2));
    let rotation = gen::rotation(7, "r", 15, 27);
    assert_eq!(rotation, gen::rotation(7, "r", 15, 27));
    let mut sorted = rotation.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (15..=27).collect::<Vec<_>>());
    // Streams are independent: another stream's name, another order.
    assert_ne!(rotation, gen::rotation(7, "other", 15, 27));
    // A churn stream never fires a token twice.
    let mut fired: Vec<usize> = gen::churn(7, 5, 3, 12, 2, 2)
        .into_iter()
        .flat_map(|op| op.deletes)
        .collect();
    fired.sort_unstable();
    fired.dedup();
    assert_eq!(fired.len(), 10);
    let sets = gen::token_sets(7, "t", "p", 100, 4, 10);
    assert_eq!(sets.len(), 4);
    assert!(sets.iter().all(|s| s.len() == 10));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 0,
    }
}

#[test]
fn self_time_subtracts_what_children_cover() {
    let spans = [
        span("op", 0, 100, None),
        span("a", 10, 30, Some(0)),
        // Overlaps `a`: the shared 20..30 counts once.
        span("b", 20, 50, Some(0)),
        // Sticks out of the parent: only 90..100 is inside.
        span("c", 90, 120, Some(0)),
        // A grandchild is its parent's business, not the root's.
        span("a1", 12, 18, Some(1)),
        span("elsewhere", 0, 100, None),
    ];
    assert_eq!(self_ns(&spans, 0), 100 - 40 - 10);
    assert_eq!(self_ns(&spans, 1), 20 - 6);
    assert_eq!(self_ns(&spans, 4), 6);
    assert_eq!(self_ns(&spans, 5), 100);
}

#[test]
fn compare_verdicts() {
    // Lower is better, bound 10 %.
    assert_eq!(verdict(100.0, 109.0, 0.02, "lower", 0.10), "ok");
    assert_eq!(verdict(100.0, 111.0, 0.02, "lower", 0.10), "REGRESSED");
    assert_eq!(verdict(100.0, 50.0, 0.02, "lower", 0.10), "ok");
    // Higher is better: a drop is the worsening.
    assert_eq!(verdict(10.0, 8.9, 0.0, "higher", 0.10), "REGRESSED");
    assert_eq!(verdict(10.0, 12.0, 0.0, "higher", 0.10), "ok");
    // A spread wider than the bound decides nothing.
    assert_eq!(verdict(100.0, 150.0, 0.12, "lower", 0.10), "unresolved");
}

#[test]
fn compare_fails_on_a_count_that_differs_under_one_seed() {
    let record = |rows: u32, failed_pct: u32| {
        format!(
            "{{\"seed\": 1, \"workloads\": {{\"w\": {{\"failed\": 0, \"result_digest\": \"d\", \
             \"end_to_end\": {{\"setup_s\": {{\"value\": 1.0, \"unit\": \"s\", \"spread\": 0.0}}}}, \
             \"per_layer\": {{\
             \"failed_ops_pct\": {{\"value\": {failed_pct}, \"unit\": \"%\", \"spread\": 0}}, \
             \"core.ground_rows\": {{\"value\": {rows}, \"unit\": \"rows\", \"spread\": 0}}}}}}}}}}"
        )
    };
    let dir = std::env::temp_dir().join(format!("e2e-compare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temp dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let bench = "{\"end_to_end\": [{\"name\": \"setup_s\", \"unit\": \"s\", \
                 \"better\": \"lower\", \"bound\": 0.2}]}";
    for (name, text) in [
        ("bench.json", bench.to_string()),
        ("a.json", record(100, 0)),
        ("same.json", record(100, 0)),
        ("rows.json", record(101, 0)),
        ("failed.json", record(100, 1)),
    ] {
        std::fs::write(path(name), text).expect("a temp file");
    }
    let clean = |b: &str| compare::run(&path("a.json"), &path(b), &path("bench.json"));
    assert_eq!(clean("same.json"), Ok(true));
    assert_eq!(clean("rows.json"), Ok(false));
    // `failed_ops_pct`: any increase.
    assert_eq!(clean("failed.json"), Ok(false));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let text = include_str!("../../../../../BENCHMARK.json");
    let bench = Json::parse(text.trim()).expect("BENCHMARK.json parses");
    let decls = |key: &str| -> Vec<(String, String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        bench
            .get(key)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    };
    let owned = |(n, u, b): &(&str, &str, &str)| (n.to_string(), u.to_string(), b.to_string());
    assert_eq!(
        decls("end_to_end"),
        END_TO_END.iter().map(owned).collect::<Vec<_>>()
    );
    let per_layer: Vec<_> = PER_LAYER.iter().map(|(d, _)| owned(d)).collect();
    assert_eq!(decls("per_layer"), per_layer);
    let workloads: Vec<(String, String)> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|w| {
            let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("why"))
        })
        .collect();
    let specs: Vec<_> = SPECS
        .iter()
        .map(|s| (s.name.to_string(), s.why.to_string()))
        .collect();
    assert_eq!(workloads, specs);
}

/// One workload at 1/50 size, traced replay included: nothing fails, the
/// bounded metrics read, and the per-layer metrics that are absent are
/// exactly those starting with one of `absent` — the layers the
/// workload's op does not call.
fn smoke(name: &str, absent: &[&str]) -> workloads::Outcome {
    let spec = workloads::spec(name).expect("a workload");
    let cfg = Cfg {
        seed: 11,
        scale: SMOKE_SCALE,
        stop: Stop::Ops,
        traced: true,
    };
    let out = run_workload(&spec, &cfg).expect("the workload runs");
    assert_eq!((out.failed, &out.failure), (0, &None), "{name}");
    assert_eq!(out.lat_ms.len(), cfg.ops(&spec));
    let end_to_end = report::end_to_end(&out);
    assert!(
        end_to_end.iter().all(|(_, r)| r.value > 0.0),
        "{end_to_end:?}"
    );
    let per_layer = report::per_layer(&out);
    for ((metric, _, _), _) in &PER_LAYER {
        let reading = per_layer.iter().find(|(n, _)| n == metric);
        let expected = !absent.iter().any(|prefix| metric.starts_with(prefix));
        assert_eq!(reading.is_some(), expected, "{name}: {metric}");
        assert!(
            reading.is_none_or(|(_, r)| r.value.is_finite()),
            "{name}: {metric}"
        );
    }
    for span in ["op", "probes"] {
        assert!(
            out.spans.iter().any(|s| s.name == span),
            "{name}: no {span} span"
        );
    }
    out
}

/// What only `embed_churn`'s op calls.
const VIEW_METRICS: [&str; 4] = [
    "engine.view_",
    "engine.snapshot_us",
    "engine.materialize_ms",
    "engine.reexecute_ms",
];

fn with_views(absent: &[&'static str]) -> Vec<&'static str> {
    [absent, &VIEW_METRICS].concat()
}

#[test]
fn smoke_wire_point() {
    smoke(
        "wire_point",
        &with_views(&["core.hash_join_ms", "core.group_by_ms"]),
    );
}

#[test]
fn smoke_wire_report() {
    smoke("wire_report", &with_views(&["core.hash_join_ms"]));
}

#[test]
fn smoke_embed_scan_join() {
    smoke(
        "embed_scan_join",
        &with_views(&["server.", "core.group_by_ms"]),
    );
}

#[test]
fn smoke_embed_agg_prov() {
    // The HAVING statement has no meaning over 𝔹: reported, not dropped.
    let out = smoke(
        "embed_agg_prov",
        &with_views(&["server.", "core.hash_join_ms"]),
    );
    assert!(out.not_available.contains_key("engine.execute_bool_ms"));
}

#[test]
fn smoke_embed_churn() {
    // No statement is executed by the op: only the views' maintenance,
    // the front end and the algebra on what the views hold.
    let engine_query = [
        "engine.execute_",
        "engine.prov_overhead_x",
        "engine.result_rows",
        "engine.render_ms",
        "engine.delete_tokens_ms",
        "engine.valuate_ms",
        "engine.unattributed_ms",
    ];
    smoke(
        "embed_churn",
        &[&["server.", "krel.", "core."], &engine_query[..]].concat(),
    );
}
