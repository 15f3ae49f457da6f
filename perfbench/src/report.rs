//! What a run measures and how it is printed: the end-to-end and per-layer
//! metric lists (mirrored by `BENCHMARK.json`), the per-layer accumulator a
//! traced run fills, and the run metadata.

use crate::harness::{adjusted, Outcome};
use crate::stats::{median, nearest_rank};
use rpq_server::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer a
/// workload never reaches reads 0 there (for example `store.*` on
/// `wire_batch`): that is the "no change" row of the prediction table.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("client.rtt_ms", "ms"),
    ("server.handler_ms", "ms"),
    ("server.outside_handler_ms", "ms"),
    ("json.request_decode_ms", "ms"),
    ("json.response_encode_ms", "ms"),
    ("json.response_bytes", "bytes"),
    ("client.decode_ms", "ms"),
    ("graphdb.parse_db_ms", "ms"),
    ("graphdb.parse_ns_per_fact", "ns"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("core.product_build_ms", "ms"),
    ("core.csr_freeze_ms", "ms"),
    ("flow.maxflow_ms", "ms"),
    ("flow.cut_extract_ms", "ms"),
    ("core.witness_extract_ms", "ms"),
    ("core.rewrite_ms", "ms"),
    ("engine.local_axb_ms", "ms"),
    ("engine.local_ab_ad_cd_ms", "ms"),
    ("engine.chain_ab_bc_ms", "ms"),
    ("engine.one_dangling_abc_be_ms", "ms"),
    ("store.materialize_ms", "ms"),
    ("store.flow_resume_ms", "ms"),
    ("store.patch_apply_us", "us"),
    ("store.incremental_ratio", "ratio"),
    ("store.result_hit_ratio", "ratio"),
    ("store.materializations", "count"),
    ("store.log_entries", "count"),
    ("router.degraded_total", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.other_share", "ratio"),
];

/// Per-layer sums over the traced operations of a run. Time metrics are
/// reported per operation (sum / traced operations) so that, on one
/// workload, `server.handler_ms + server.outside_handler_ms` equals
/// `client.rtt_ms` exactly.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced operations folded in.
    pub ops: u64,
    /// Solve-family requests (each with one `cache_lookup` span) folded in.
    pub solves: u64,
    /// Summed `timings` phases, µs, keyed by phase name.
    pub phases_us: BTreeMap<String, f64>,
    /// Summed bench-side quantities, keyed by per-layer metric name.
    pub sums: BTreeMap<&'static str, f64>,
    /// Values that are not per-operation sums (ratios, counts, medians).
    pub fixed: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds `value` to a per-operation metric.
    pub fn add(&mut self, metric: &'static str, value: f64) {
        *self.sums.entry(metric).or_default() += value;
    }

    /// Folds one response's `timings` object (phase → µs) in.
    pub fn add_timings(&mut self, timings: &Json) {
        if let Json::Object(pairs) = timings {
            for (phase, us) in pairs {
                let us = us.as_int().unwrap_or(0) as f64;
                *self.phases_us.entry(phase.clone()).or_default() += us;
            }
        }
    }

    /// Folds one traced solve-family response in: its handler time, its
    /// client round trip and its `timings`.
    pub fn add_solve_response(&mut self, response: &Json, rtt_ms: f64) {
        self.solves += 1;
        let handler_ms =
            response.get("elapsed_us").and_then(Json::as_int).unwrap_or(0) as f64 / 1e3;
        self.add("client.rtt_ms", rtt_ms);
        self.add("server.handler_ms", handler_ms);
        self.add("server.outside_handler_ms", rtt_ms - handler_ms);
        if let Some(timings) = response.get("timings") {
            self.add_timings(timings);
        }
    }

    fn phase_us(&self, prefix: &str) -> f64 {
        // `fold` from +0.0: an empty float `sum` is -0.0, which would print
        // as `-0` for the layers a workload never reaches.
        self.phases_us.iter().filter(|(k, _)| k.starts_with(prefix)).fold(0.0, |a, (_, v)| a + v)
    }

    /// The full per-layer metric list, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let ops = self.ops.max(1) as f64;
        let per_op_ms = |us: f64| us / 1e3 / ops;
        let handler_us = self.sums.get("server.handler_ms").copied().unwrap_or(0.0) * 1e3;
        let traced_us = self.phase_us("");
        // Coverage is measured against the traced total: the server's
        // handler time, or the sealed traces of in-process solves.
        let coverage_base = if handler_us > 0.0 { handler_us } else { traced_us };
        let derived: BTreeMap<&str, f64> = [
            ("graphdb.parse_db_ms", per_op_ms(self.phase_us("parse_db"))),
            ("cache.lookup_us", self.phase_us("cache_lookup") / self.solves.max(1) as f64),
            ("core.product_build_ms", per_op_ms(self.phase_us("product_build"))),
            ("core.csr_freeze_ms", per_op_ms(self.phase_us("csr_freeze"))),
            ("flow.maxflow_ms", per_op_ms(self.phase_us("flow_solve"))),
            ("flow.cut_extract_ms", per_op_ms(self.phase_us("cut_extract"))),
            ("core.witness_extract_ms", per_op_ms(self.phase_us("witness_extract"))),
            ("core.rewrite_ms", per_op_ms(self.phase_us("rewrite"))),
            ("store.materialize_ms", per_op_ms(self.phase_us("materialize"))),
            ("store.flow_resume_ms", per_op_ms(self.phase_us("flow_resume"))),
            ("store.patch_apply_us", self.phase_us("patch_apply") / ops),
            (
                "trace.other_share",
                if coverage_base > 0.0 { self.phase_us("other") / coverage_base } else { 0.0 },
            ),
        ]
        .into_iter()
        .collect();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if let Some(v) = self.fixed.get(name) {
                    *v
                } else if let Some(v) = derived.get(name) {
                    *v
                } else {
                    self.sums.get(name).copied().unwrap_or(0.0) / ops
                };
                (name, unit, value)
            })
            .collect()
    }
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order. Every
/// time is host-adjusted (see [`crate::harness::HostProbe`]).
pub fn end_to_end(out: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let latencies = adjusted(&out.latencies);
    let values = [
        nearest_rank(&latencies, 50.0).unwrap_or(0.0),
        nearest_rank(&latencies, 95.0).unwrap_or(0.0),
        (out.latencies.len() + out.traced.len()) as f64
            / out.adjusted_timed_s.max(f64::MIN_POSITIVE),
        median(&adjusted(&out.setups)).unwrap_or(0.0),
        out.peak_rss_mb,
    ];
    END_TO_END.iter().zip(values).map(|(&(name, unit), value)| (name, unit, value)).collect()
}

/// Renders the result line the benchmark contract asks for.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name.to_string(),
                Json::object([("value", Json::Float(value)), ("unit", Json::Str(unit.into()))]),
            )
        })
        .collect();
    Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i128)),
        ("failed", Json::Int(failed as i128)),
        ("metrics", Json::Object(metrics)),
    ])
    .to_string()
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and build facts every result records.
pub fn host_metadata() -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // The benchmark runs from the root of a checkout; outside a git
    // repository there is no commit to record.
    let commit = if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        ("nproc", Json::Int(nproc as i128)),
        ("cpu_model", Json::Str(cpu)),
        ("rustc", Json::Str(rustc)),
        ("commit", Json::Str(commit)),
    ]
}

/// Runs a short command to completion and returns its trimmed stdout.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program).args(args).output().ok()?;
    output.status.success().then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree name for
    /// name and unit for unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared: Vec<(String, String)> = json
                .get(key)
                .and_then(Json::as_array)
                .expect("metric array")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn handler_and_outside_handler_add_up_to_the_round_trip() {
        let mut layers = Layers { ops: 2, ..Layers::default() };
        for (rtt, elapsed) in [(10.0, 6_000), (12.0, 6_500)] {
            let response = Json::object([
                ("elapsed_us", Json::Int(elapsed)),
                (
                    "timings",
                    Json::object([("parse_db", Json::Int(3_000)), ("other", Json::Int(300))]),
                ),
            ]);
            layers.add_solve_response(&response, rtt);
        }
        let metrics: BTreeMap<&str, f64> =
            layers.metrics().into_iter().map(|(n, _, v)| (n, v)).collect();
        assert_eq!(metrics["client.rtt_ms"], 11.0);
        assert_eq!(metrics["server.handler_ms"], 6.25);
        assert_eq!(metrics["server.outside_handler_ms"], 4.75);
        assert_eq!(metrics["graphdb.parse_db_ms"], 3.0);
        assert!((metrics["trace.other_share"] - 600.0 / 12_500.0).abs() < 1e-12);
        // Layers this response never touched read 0.
        assert_eq!(metrics["store.materialize_ms"], 0.0);
        assert_eq!(metrics.len(), PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("p50_ms", "ms", 1.5)]);
        let json = Json::parse(&line).unwrap();
        let Json::Object(pairs) = &json else { panic!("{line}") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"p50_ms":{"value":1.5,"unit":"ms"}}}"#
        );
    }
}
