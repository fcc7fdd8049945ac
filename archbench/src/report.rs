//! Metrics, the layer report and the result line.

use crate::gen::{Class, Workload};
use crate::replay::Replays;
use crate::run::{Phase, Record};
use crate::trace::{median, overhead, percentile, self_times};
use sdss_query::RouteChoice;
use std::collections::HashMap;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
}

fn m(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// A sum that reads 0, not -0, when there is nothing to add.
fn total(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |a, x| a + x)
}

fn sum<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    total(items.iter().map(f))
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Statements completed per second over a whole phase.
pub fn stmts_per_s(phase: &Phase) -> f64 {
    phase.records.len() as f64 / phase.wall_s
}

/// The end-to-end metrics, each over the whole phase (a closed loop on a
/// shared host drifts by several percent from second to second; the
/// whole-phase figure averages that out better than a median of slices).
pub fn end_to_end(phase: &Phase, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let recs = &phase.records;
    let latency: Vec<f64> = recs.iter().map(|r| r.latency_s).collect();
    let ttfr: Vec<f64> = recs.iter().filter_map(|r| r.ttfr_s).collect();
    let bytes: f64 = recs.iter().map(|r| r.stats.scan.bytes_scanned as f64).sum();
    let rows: f64 = recs.iter().map(|r| r.rows_out as f64).sum();
    vec![
        m("setup_s", Some(setup_s), "s"),
        m("peak_rss_mb", Some(peak_rss_mb), "MB"),
        m("stmts_per_s", Some(stmts_per_s(phase)), "1/s"),
        m("latency_p50_ms", percentile(&latency, 0.5).map(ms), "ms"),
        m("latency_p90_ms", percentile(&latency, 0.9).map(ms), "ms"),
        m("ttfr_p50_ms", percentile(&ttfr, 0.5).map(ms), "ms"),
        m("scan_mb_per_s", ratio(bytes / 1e6, phase.wall_s), "MB/s"),
        m("rows_out_per_s", ratio(rows, phase.wall_s), "1/s"),
    ]
}

/// The end-to-end figures that exist on one workload only (the result
/// line of every run must carry the same metrics, so these are reported
/// with the traced run's per-layer metrics, from its untraced phase).
pub fn workload_specific(phase: &Phase) -> Vec<Metric> {
    let all: Vec<f64> = phase.records.iter().map(|r| r.latency_s).collect();
    let cones: Vec<f64> = phase
        .records
        .iter()
        .filter(|r| r.stmt.class.is_short_cone())
        .map(|r| r.latency_s)
        .collect();
    let into: Vec<&Record> = phase
        .records
        .iter()
        .filter(|r| r.stmt.class.is_into())
        .collect();
    let matches: Vec<&Record> = phase
        .records
        .iter()
        .filter(|r| r.stmt.class.is_match())
        .collect();
    vec![
        m("latency_p99_ms", percentile(&all, 0.99).map(ms), "ms"),
        m("cone_p99_ms", percentile(&cones, 0.99).map(ms), "ms"),
        m(
            "scenario_p50_ms",
            percentile(&phase.scenario_s, 0.5).map(ms),
            "ms",
        ),
        m(
            "into_rows_per_s",
            ratio(
                sum(&into, |r| r.into_rows as f64),
                sum(&into, |r| r.latency_s),
            ),
            "1/s",
        ),
        m(
            "match_probes_per_s",
            ratio(
                sum(&matches, |r| r.probe_rows as f64),
                sum(&matches, |r| r.latency_s),
            ),
            "1/s",
        ),
    ]
}

/// Span time per statement of the traced phase, by call.
#[derive(Debug, Default, Clone, Copy)]
struct Calls {
    wall: u64,
    client: u64,
    prepare: u64,
    open: u64,
    next_batch: u64,
    rows: u64,
    finish: u64,
    run: u64,
}

fn calls_by_stmt(phase: &Phase) -> HashMap<u64, Calls> {
    let self_ns = self_times(&phase.spans);
    let mut by: HashMap<u64, Calls> = HashMap::new();
    for (s, own) in phase.spans.iter().zip(self_ns) {
        let c = by.entry(s.stmt).or_default();
        let d = s.dur_ns();
        match s.name {
            "stmt" => {
                c.wall += d;
                c.client += own;
            }
            "prepare" => c.prepare += own,
            "open" => c.open += own,
            "next_batch" => c.next_batch += own,
            "rows" => c.rows += own,
            "finish" => c.finish += own,
            "run" => c.run += own,
            _ => {}
        }
    }
    by
}

/// Facts from outside the phases that the per-layer metrics need.
pub struct LayerInputs<'a> {
    pub untraced: &'a Phase,
    pub traced: &'a Phase,
    pub replays: &'a Replays,
    pub cover_hits: u64,
    pub cover_misses: u64,
    pub cover_evictions: u64,
    pub peak_running: usize,
    pub gen_s: f64,
    pub build_s: f64,
}

fn p50_of(records: &[&Record], f: impl Fn(&Record) -> f64) -> Option<f64> {
    let v: Vec<f64> = records.iter().map(|r| f(r)).collect();
    percentile(&v, 0.5)
}

pub fn per_layer(x: &LayerInputs) -> Vec<Metric> {
    let recs: Vec<&Record> = x.traced.records.iter().collect();
    let calls = calls_by_stmt(x.traced);
    let rp = x.replays;
    let of_class = |keep: &dyn Fn(Class) -> bool| -> Vec<&Record> {
        recs.iter()
            .copied()
            .filter(|r| keep(r.stmt.class))
            .collect()
    };
    let parse: Vec<f64> = recs
        .iter()
        .filter_map(|r| rp.parse_ns.get(&r.id).map(|&n| n as f64 / 1e3))
        .collect();
    let plan: Vec<f64> = recs
        .iter()
        .filter_map(|r| {
            let prep = calls.get(&r.id)?.prepare as f64;
            let parse = *rp.parse_ns.get(&r.id)? as f64;
            Some((prep - parse).max(0.0) / 1e3)
        })
        .collect();
    let qerr: Vec<f64> = recs
        .iter()
        .map(|r| {
            let est = r.est_bytes.max(1) as f64;
            let act = r.stats.scan.bytes_scanned.max(1) as f64;
            (est / act).max(act / est)
        })
        .collect();
    let queue: Vec<f64> = recs
        .iter()
        .map(|r| ms(r.stats.queue_time.as_secs_f64()))
        .collect();
    let lookups = (x.cover_hits + x.cover_misses) as f64;
    let imbalance: Vec<f64> = recs
        .iter()
        .filter(|r| r.stats.worker_bytes.len() >= 2)
        .filter_map(|r| {
            let wb = &r.stats.worker_bytes;
            let mean = wb.iter().sum::<u64>() as f64 / wb.len() as f64;
            ratio(*wb.iter().max().expect("two workers") as f64, mean)
        })
        .collect();
    let streamed: Vec<&Record> = of_class(&|c| !c.is_into());
    let streamed_calls = |f: fn(&Calls) -> u64| -> f64 {
        streamed
            .iter()
            .filter_map(|r| calls.get(&r.id))
            .map(|c| f(c) as f64)
            .sum()
    };
    let all_wall: f64 = calls.values().map(|c| c.wall as f64).sum();
    let rows_ns: f64 = calls.values().map(|c| c.rows as f64).sum();
    let full: Vec<&Record> = recs
        .iter()
        .copied()
        .filter(|r| r.stats.route == RouteChoice::Full)
        .collect();
    let into_rate = |class: Class| {
        let rs = of_class(&|c| c == class);
        let run_ns: f64 = rs
            .iter()
            .filter_map(|r| calls.get(&r.id))
            .map(|c| c.run as f64)
            .sum();
        ratio(sum(&rs, |r| r.into_rows as f64), run_ns / 1e9)
    };
    let into = of_class(&|c| c.is_into());
    let set_scans = of_class(&|c| matches!(c, Class::SciRefine | Class::SciAgg));
    let mut out = vec![
        m("parser.parse_us_p50", percentile(&parse, 0.5), "us"),
        m("plan.prepare_us_p50", percentile(&plan, 0.5), "us"),
        m("plan.est_bytes_qerror_p50", percentile(&qerr, 0.5), "ratio"),
        m("admission.queue_ms_p50", percentile(&queue, 0.5), "ms"),
        m("admission.queue_ms_p99", percentile(&queue, 0.99), "ms"),
        m(
            "admission.peak_running",
            Some(x.peak_running as f64),
            "count",
        ),
        m(
            "cover.hit_rate",
            ratio(x.cover_hits as f64, lookups),
            "ratio",
        ),
        m(
            "cover.evictions_per_1k",
            ratio(x.cover_evictions as f64 * 1e3, lookups),
            "count",
        ),
        m(
            "cover.plan_us_hit_p50",
            percentile(&rp.cover_hit_ns, 0.5).map(|n| n / 1e3),
            "us",
        ),
        m(
            "cover.plan_us_miss_p50",
            percentile(&rp.cover_miss_ns, 0.5).map(|n| n / 1e3),
            "us",
        ),
        m(
            "kernel.mb_per_s",
            ratio(rp.kernel_bytes as f64 * 1e3, rp.kernel_ns as f64),
            "MB/s",
        ),
        m(
            "kernel.selectivity",
            ratio(rp.kernel_selected as f64, rp.kernel_rows as f64),
            "ratio",
        ),
        m(
            "exec.total_ms_p50",
            p50_of(&recs, |r| ms(r.stats.total_time.as_secs_f64())),
            "ms",
        ),
        m(
            "exec.workers_used_mean",
            ratio(
                sum(&recs, |r| r.stats.workers_used as f64),
                recs.len() as f64,
            ),
            "count",
        ),
        m(
            "morsel.imbalance",
            ratio(imbalance.iter().sum(), imbalance.len() as f64),
            "ratio",
        ),
        m(
            "stream.wait_share",
            ratio(streamed_calls(|c| c.next_batch), streamed_calls(|c| c.wall)),
            "ratio",
        ),
        m(
            "stream.rows_per_batch",
            ratio(
                sum(&streamed, |r| r.stats.rows as f64),
                sum(&streamed, |r| r.stats.batches as f64),
            ),
            "count",
        ),
        m(
            "edge.ns_per_row",
            ratio(rows_ns, sum(&recs, |r| r.rows_out as f64)),
            "ns",
        ),
        m("edge.share", ratio(rows_ns, all_wall), "ratio"),
        m(
            "fullstore.total_ms_p50",
            p50_of(&full, |r| ms(r.stats.total_time.as_secs_f64())),
            "ms",
        ),
        m("into.fast_rows_per_s", into_rate(Class::SciInto), "1/s"),
        m(
            "into.fetch_rows_per_s",
            into_rate(Class::SciUnionInto),
            "1/s",
        ),
        m(
            "into.bytes_per_row",
            ratio(
                sum(&into, |r| r.into_bytes as f64),
                sum(&into, |r| r.into_rows as f64),
            ),
            "B",
        ),
        m(
            "setscan.mb_per_s",
            ratio(
                sum(&set_scans, |r| r.stats.scan.bytes_scanned as f64 / 1e6),
                sum(&set_scans, |r| r.stats.total_time.as_secs_f64()),
            ),
            "MB/s",
        ),
        m(
            "zone.build_ms_p50",
            percentile(&rp.zone_build_ns.values().copied().collect::<Vec<_>>(), 0.5)
                .map(|n| n / 1e6),
            "ms",
        ),
        m(
            "zone.probe_us_per_row",
            ratio(rp.zone_probe_ns as f64 / 1e3, rp.zone_probe_rows as f64),
            "us",
        ),
        m(
            "zone.candidates_per_pair",
            ratio(rp.zone_comparisons as f64, rp.zone_pairs as f64),
            "ratio",
        ),
        m(
            "match.pair_eval_share",
            ratio(
                rp.pair_eval_share.iter().sum(),
                rp.pair_eval_share.len() as f64,
            ),
            "ratio",
        ),
        m("setup.gen_s", Some(x.gen_s), "s"),
        m("setup.build_s", Some(x.build_s), "s"),
        m(
            "trace.overhead",
            Some(overhead(stmts_per_s(x.untraced), stmts_per_s(x.traced))),
            "ratio",
        ),
    ];
    out.extend(workload_specific(x.untraced));
    out
}

/// Each layer's self-time share of statement wall in the traced phase,
/// next to the end-to-end metric it should move.
pub fn layer_report(workload: Workload, x: &LayerInputs) -> Vec<String> {
    let calls = calls_by_stmt(x.traced);
    let recs = &x.traced.records;
    let wall: f64 = calls.values().map(|c| c.wall as f64).sum();
    let call_ns = |f: fn(&Calls) -> u64| -> f64 { calls.values().map(|c| f(c) as f64).sum() };
    let parse: f64 = recs
        .iter()
        .filter_map(|r| x.replays.parse_ns.get(&r.id))
        .map(|&n| n as f64)
        .sum();
    let queue: f64 = recs
        .iter()
        .map(|r| r.stats.queue_time.as_nanos() as f64)
        .sum();
    let w = workload.name();
    let rows = [
        (
            "query::parser (parse, replayed)",
            parse,
            "interactive latency_p50_ms",
        ),
        (
            "query::plan + archive prepare (self, minus parse)",
            (call_ns(|c| c.prepare) - parse).max(0.0),
            "interactive latency_p50_ms",
        ),
        (
            "query::archive admission (QueryStats.queue_time)",
            queue,
            "interactive cone_p99_ms / latency_p90_ms",
        ),
        (
            "query::exec launch + INTO sink (open, run; minus queue)",
            (call_ns(|c| c.open) + call_ns(|c| c.run) - queue).max(0.0),
            "science into_rows_per_s",
        ),
        (
            "query::exec channel wait (next_batch)",
            call_ns(|c| c.next_batch),
            "sweep rows_out_per_s / scan_mb_per_s",
        ),
        (
            "query::exec edge (ResultBatch::rows)",
            call_ns(|c| c.rows),
            "sweep rows_out_per_s",
        ),
        ("query::archive finish", call_ns(|c| c.finish), "-"),
        (
            "benchmark client (stmt self time)",
            call_ns(|c| c.client),
            "-",
        ),
    ];
    let mut out = vec![format!(
        "layer shares of statement wall, {w}, traced phase: {} statements, {:.1} ms total",
        recs.len(),
        wall / 1e6
    )];
    for (layer, ns, metric) in rows {
        out.push(format!(
            "  {layer:<58} {:>6.2}%  -> {metric}",
            100.0 * ns / wall.max(1.0)
        ));
    }
    let per_stmt = |ns: f64| ns / 1e6 / recs.len().max(1) as f64;
    let mean_wall = per_stmt(wall);
    let rp = x.replays;
    out.push(format!(
        "  replayed on one thread, per statement of {mean_wall:.3} ms mean wall: \
         kernel {:.3} ms ({} B scanned), cover {:.4} ms, zone build+probe {:.3} ms",
        per_stmt(rp.kernel_ns as f64),
        rp.kernel_bytes,
        per_stmt(total(
            rp.cover_hit_ns.iter().chain(&rp.cover_miss_ns).copied()
        )),
        per_stmt(total(rp.zone_build_ns.values().copied()) + rp.zone_probe_ns as f64),
    ));
    out
}

/// Statement count and median latency (ms) per class, for the run facts.
pub fn class_stats(records: &[&Record]) -> Vec<(&'static str, usize, Option<f64>)> {
    let mut by: HashMap<Class, Vec<f64>> = HashMap::new();
    for r in records {
        by.entry(r.stmt.class).or_default().push(ms(r.latency_s));
    }
    Class::ALL
        .iter()
        .filter_map(|c| by.get(c).map(|v| (c.name(), v.len(), median(v))))
        .collect()
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line. A metric with no samples in this run (a layer the
/// workload does not exercise) reads 0.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(x.name),
                json_num(x.value.unwrap_or(0.0)),
                json_str(x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON object from pre-rendered values.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
