//! The metric catalogue and the result rendering.
//!
//! Every metric is defined once here, with its unit. A run must set
//! every metric of the catalogue it reports; a missing one is a bug in
//! the benchmark and aborts the run instead of printing a partial
//! result.

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the serving system sees. Measured
/// with tracing off, on every workload, and bounded in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end figures printed with the others but left out of the result
/// line. The replica-start times swing with the host's speed by more than
/// any bound a regression check could use (the traced run reports them
/// as `engine.*` layer metrics), and the two failure counts are 0 on
/// every healthy run, where a bound is meaningless.
pub const UNBOUNDED: &[(&str, &str)] = &[
    ("cold_compile_s", "s"),
    ("warm_start_s", "s"),
    ("first_response_ms", "ms"),
    ("wrong_outputs", "count"),
    ("failed_frac", "fraction"),
];

/// Whole-model plan steps of `transformer-micro`, in execution order.
pub const PLAN_STEPS: [&str; 8] = [
    "block1_q_gemm",
    "block1_k_gemm",
    "block1_v_gemm",
    "block1_scores",
    "block1_attn",
    "block1_out_gemm",
    "block1_ffn1_gemm",
    "block1_ffn2_gemm",
];

/// Every registered target, in registry order.
pub const TARGETS: [&str; 4] = [
    "x86-avx512-vnni",
    "arm-neon-dot",
    "nvidia-tensor-core",
    "arm-i8mm-smmla",
];

/// The cold-start model zoo.
pub const ZOO: [&str; 4] = [
    "resnet-50",
    "mobilenet-v1",
    "inception-v3",
    "transformer-tiny",
];

/// Per-layer metrics, measured in the traced run.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for step in PLAN_STEPS {
        add(format!("tape.dispatch_us.{step}"), "us");
    }
    for (name, unit) in [
        ("tape.run_reuse_us", "us"),
        ("tape.run_fresh_us", "us"),
        ("tape.ops_retired", "count"),
        ("tape.intrin_dispatches", "count"),
        ("tape.guards_executed", "count"),
    ] {
        add(name.to_string(), unit);
    }
    for target in TARGETS {
        add(format!("isa.execute_ns.{target}"), "ns");
    }
    for (name, unit) in [
        ("isa.intrin_share", "fraction"),
        ("model.scatter_us", "us"),
        ("model.gather_us", "us"),
        ("epilogue.us", "us"),
        ("net.overhead_us", "us"),
        ("net.encode_us", "us"),
        ("scheduler.queue_wait_p50_us", "us"),
        ("scheduler.queue_wait_p99_us", "us"),
        ("scheduler.batch_size_mean", "count"),
        ("scheduler.fused_frac", "fraction"),
        ("scheduler.rejected", "count"),
        ("bench.gen_lag_p99_ms", "ms"),
        ("bench.saturating_rps", "1/s"),
        ("core.inspect_ms", "ms"),
        ("core.tune_ms", "ms"),
        ("core.lower_ms", "ms"),
        ("core.candidates", "count"),
    ] {
        add(name.to_string(), unit);
    }
    for model in ZOO {
        add(format!("graph.compile_ms.{model}"), "ms");
    }
    for target in TARGETS {
        add(format!("sim.spearman.{target}"), "rho");
    }
    for (name, unit) in [
        ("journal.append_us", "us"),
        ("journal.snapshot_ms", "ms"),
        ("journal.poll_us", "us"),
        ("artifact.save_ms", "ms"),
        ("artifact.load_ms", "ms"),
        ("engine.cold_compile_s", "s"),
        ("engine.warm_start_s", "s"),
        ("engine.first_response_ms", "ms"),
        ("engine.tuner_searches", "count"),
        ("engine.artifact_hit_rate", "fraction"),
        ("engine.cache_lookup_us", "us"),
        ("engine.kernel_hit_rate", "fraction"),
        ("trace.overhead_frac", "fraction"),
        ("trace.coverage_gap_frac", "fraction"),
    ] {
        add(name.to_string(), unit);
    }
    out
}

/// Named metric values.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Set (or overwrite) a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// A metric's value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Render `metrics` over `catalogue` as human-readable lines.
#[must_use]
pub fn table(title: &str, metrics: &Metrics, catalogue: &[(String, &str)]) -> String {
    let mut out = format!("== {title}\n");
    for (name, unit) in catalogue {
        match metrics.get(name) {
            Some(v) => out.push_str(&format!("  {name:<40} {v:>16.6} {unit}\n")),
            None => out.push_str(&format!("  {name:<40} {:>16} {unit}\n", "missing")),
        }
    }
    out
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of `catalogue`.
///
/// # Panics
///
/// When a catalogue metric is missing or not finite — the benchmark
/// must never print a partial or meaningless result.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    catalogue: &[(String, &str)],
) -> String {
    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("{name:?}: {{\"value\": {v}, \"unit\": {unit:?}}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The end-to-end catalogue in the owned form [`table`] takes.
#[must_use]
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        m.set("b", 2.0);
        let cat = vec![("a".to_string(), "ms"), ("b".to_string(), "count")];
        let line = result_line(true, 3, 0, &m, &cat);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_aborts_the_result() {
        let _ = result_line(true, 1, 0, &Metrics::default(), &end_to_end());
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        names.extend(UNBOUNDED.iter().map(|(n, _)| n.to_string()));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
