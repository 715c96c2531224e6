//! Metric declarations and the result line.

use crate::pipeline::Compiled;
use crate::stats::{Summary, TAIL};
use crate::trace::Ledger;
use fdi_vm::Counters;
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees. Printed with
/// `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
    ("code_size_ratio", "ratio"),
    ("vm_cost_ratio", "ratio"),
];

/// Per-layer metrics, named after the crates. Printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.ms", "ms"),
    ("cfa.ms", "ms"),
    ("cfa.steps", "count"),
    ("inline.ms", "ms"),
    ("inline.sites_inlined", "count"),
    ("simplify.ms", "ms"),
    ("vm.ms", "ms"),
    ("vm.steps", "count"),
    ("vm.steps_per_ms", "steps/ms"),
    ("vm.words_allocated", "count"),
    ("core.unattributed_ms", "ms"),
    ("engine.analysis_hit_ratio", "ratio"),
    ("engine.spec_hit_ratio", "ratio"),
    ("engine.exec_hit_ratio", "ratio"),
    ("engine.parallel_efficiency", "ratio"),
    ("engine.warm_sweep_ms", "ms"),
    ("engine.job_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.read_ms", "ms"),
    ("store.writes", "count/op"),
    ("serve.ping_rtt_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.response_bytes", "bytes"),
    ("serve.self_ms", "ms"),
    ("telemetry.record_us_per_op", "us"),
    ("trace.overhead_share", "ratio"),
    ("ledger.unattributed_ms", "ms"),
];

/// Counters that repeat exactly on the same code and inputs, and so may
/// carry count claims. Everything else is a timing or a ratio whose base
/// moves with scheduling (`engine.spec_hit_ratio` among them: its hits vary
/// by a few between identical parallel sweeps).
pub const EXACT: &[&str] = &[
    "vm.steps",
    "vm.words_allocated",
    "cfa.steps",
    "inline.sites_inlined",
    "code_size_ratio",
    "vm_cost_ratio",
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is not correct; empty when every check passed.
    pub problems: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// The sample behind a metric, when it has one.
    pub samples: BTreeMap<&'static str, Summary>,
    /// Where each per-layer metric was measured, when not on the workload.
    pub sources: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn set_sampled(&mut self, name: &'static str, value: f64, sample: Summary) {
        self.values.insert(name, value);
        self.samples.insert(name, sample);
    }

    /// Records a failed check; `ops` ops are counted as failed.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        let why = why.into();
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Fills metrics this run did not measure from `other`, noting where.
    pub fn fill_from(&mut self, other: Outcome, source: &str) {
        for (name, v) in other.values {
            if !self.values.contains_key(name) && PER_LAYER.iter().any(|(n, _)| *n == name) {
                self.values.insert(name, v);
                self.sources.insert(name, source.to_string());
            }
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The per-layer times and exact counters of a traced run of `n` ops.
    pub fn set_layers(&mut self, ledger: &Ledger, work: &Work, n: f64) {
        for (metric, layer) in [
            ("lang.ms", "lang"),
            ("cfa.ms", "cfa"),
            ("inline.ms", "inline"),
            ("simplify.ms", "simplify"),
            ("vm.ms", "vm"),
        ] {
            self.set(metric, ledger.ms(layer) / n);
        }
        self.set("cfa.steps", work.cfa_steps as f64 / n);
        self.set("inline.sites_inlined", work.sites_inlined as f64 / n);
        self.set("vm.steps", work.vm_steps as f64 / n);
        self.set("vm.words_allocated", work.words_allocated as f64 / n);
        self.set("vm.steps_per_ms", work.vm_steps as f64 / ledger.ms("vm"));
        self.set("ledger.unattributed_ms", ledger.ms("unattributed") / n);
    }

    /// `ok_share` from the op counts.
    pub fn set_ok_share(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed);
        self.set("ok_share", ok as f64 / self.attempted.max(1) as f64);
    }
}

/// Exact work counters summed over the ops of a traced run.
#[derive(Debug, Default)]
pub struct Work {
    cfa_steps: u64,
    sites_inlined: u64,
    vm_steps: u64,
    words_allocated: u64,
}

impl Work {
    pub fn compiled(&mut self, c: &Compiled) {
        self.cfa_steps += c.cfa_steps;
        self.sites_inlined += c.sites_inlined as u64;
    }

    pub fn ran(&mut self, counters: &Counters) {
        self.vm_steps += counters.steps;
        self.words_allocated += counters.words_allocated;
    }
}

/// A JSON number with all its digits (`null` is never printed: a metric
/// that could not be measured is reported as a problem instead).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The provenance line and the result line. The result line holds exactly
/// `correct`, `attempted`, `failed` and `metrics` (the declared set for the
/// trace mode); the provenance line before it carries the rest.
pub fn render(
    out: &Outcome,
    declared: &[(&'static str, &'static str)],
    prov: &[(&str, String)],
) -> (String, String) {
    let mut metrics = Vec::new();
    let mut detail = Vec::new();
    for &(name, unit) in declared {
        let v = out.values.get(name).copied().unwrap_or(f64::NAN);
        metrics.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(v)
        ));
        let mut d = format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"", num(v));
        // A metric measured once per run is its own one-sample summary.
        let s = out
            .samples
            .get(name)
            .cloned()
            .unwrap_or_else(|| Summary::of(&[v]));
        d.push_str(&format!(
            ",\"n\":{},\"median\":{},\"q1\":{},\"q3\":{}",
            s.n,
            num(s.median),
            num(s.q1),
            num(s.q3)
        ));
        if let Some(p) = name
            .strip_prefix("latency_p")
            .and_then(|r| r.strip_suffix("_ms"))
        {
            let p = p.parse().unwrap_or(50.0);
            let (_, beyond) = s.percentile(p);
            d.push_str(&format!(
                ",\"beyond\":{beyond},\"tail_rule_met\":{},\"percentile_used\":{}",
                beyond >= TAIL,
                num(s.tail_percentile(p).1)
            ));
        }
        if let Some(src) = out.sources.get(name) {
            d.push_str(&format!(",\"measured_on\":\"{src}\""));
        }
        d.push_str(&format!(",\"exact\":{}}}", EXACT.contains(&name)));
        detail.push(d);
    }
    let mut p: Vec<String> = prov.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    p.push(format!("\"metrics\":{{{}}}", detail.join(",")));
    let problems: Vec<String> = out
        .problems
        .iter()
        .map(|s| fdi_telemetry::trace::json_string(s))
        .collect();
    p.push(format!("\"problems\":[{}]", problems.join(",")));
    let provenance = format!("{{\"provenance\":{{{}}}}}", p.join(","));
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    (provenance, result)
}
