//! The compile and execute paths, called layer by layer through each
//! crate's public API, and the expected answers every op is checked against.

use crate::trace::Tracer;
use fdi_benchsuite::{Benchmark, BENCHMARKS};
use fdi_core::{FlowAnalysis, PipelineConfig, PipelineOutput, Polyvariance, RunConfig};
use fdi_inline::InlineConfig;
use fdi_lang::Program;
use fdi_telemetry::json::{self, Json};
use fdi_vm::Outcome;
use std::collections::BTreeMap;

/// The Fig. 6 thresholds (threshold 0 is the normalization baseline).
pub const THRESHOLDS: [usize; 6] = [0, 50, 100, 200, 500, 1000];

/// Which workload scale a benchmark source is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    Default,
    Test,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Default => "default",
            Scale::Test => "test",
        }
    }

    pub fn n(self, b: &Benchmark) -> u32 {
        match self {
            Scale::Default => b.default_scale,
            Scale::Test => b.test_scale,
        }
    }
}

/// The runnable source of benchmark `b` at `scale`.
pub fn source(b: &Benchmark, scale: Scale) -> String {
    b.scaled(scale.n(b))
}

/// What the harness keeps of one compile: enough to check it against
/// `fdi_core::optimize` byte for byte and to run it.
pub struct Compiled {
    pub text: String,
    pub baseline: Program,
    pub optimized: Program,
    pub baseline_size: usize,
    pub optimized_size: usize,
    pub sites_inlined: usize,
    pub cfa_steps: u64,
}

impl Compiled {
    pub fn from_output(out: &PipelineOutput) -> Compiled {
        Compiled {
            text: fdi_lang::unparse(&out.optimized).to_string(),
            baseline: out.baseline.clone(),
            optimized: out.optimized.clone(),
            baseline_size: out.baseline_size,
            optimized_size: out.optimized_size,
            sites_inlined: out.report.sites_inlined,
            cfa_steps: out.flow_stats.steps,
        }
    }

    /// Same program and the same size and inlining totals.
    pub fn same_as(&self, other: &Compiled) -> bool {
        self.text == other.text
            && self.baseline_size == other.baseline_size
            && self.optimized_size == other.optimized_size
            && self.sites_inlined == other.sites_inlined
    }
}

/// `fdi_core::optimize` at threshold `t`, the paper's configuration.
pub fn optimize(src: &str, t: usize) -> Result<PipelineOutput, String> {
    let out =
        fdi_core::optimize(src, &PipelineConfig::with_threshold(t)).map_err(|e| e.to_string())?;
    if out.health.degraded() {
        return Err(format!("pipeline degraded at threshold {t}"));
    }
    Ok(out)
}

/// The same compile as [`optimize`], decomposed into one call per layer:
/// `parse_and_lower` → `analyze` → baseline `simplify_n` → `inline_program`
/// → `simplify_n`, each under its own span.
pub fn compile_layers(src: &str, t: usize, tr: &mut Tracer) -> Result<Compiled, String> {
    let lowered = lower(src, tr)?;
    let flow = analyze(&lowered, tr);
    Ok(transform(&lowered, &flow, t, tr))
}

/// `fdi_lang::parse_and_lower`, in a `lang` span.
pub fn lower(src: &str, tr: &mut Tracer) -> Result<Program, String> {
    tr.span("lang", |_| fdi_lang::parse_and_lower(src))
        .map_err(|e| e.to_string())
}

/// `fdi_cfa::analyze` under polymorphic splitting, in a `cfa` span.
pub fn analyze(lowered: &Program, tr: &mut Tracer) -> FlowAnalysis {
    tr.span("cfa", |_| {
        fdi_cfa::analyze(lowered, Polyvariance::PolymorphicSplitting)
    })
}

/// The threshold-dependent tail: the baseline simplification, then
/// `inline_program` and `simplify_n` of its result.
pub fn transform(lowered: &Program, flow: &FlowAnalysis, t: usize, tr: &mut Tracer) -> Compiled {
    let iters = fdi_simplify::DEFAULT_ITERS;
    let (baseline, _) = tr.span("simplify", |_| fdi_simplify::simplify_n(lowered, iters));
    let (inlined, report) = tr.span("inline", |_| {
        fdi_inline::inline_program(lowered, flow, &InlineConfig::with_threshold(t))
    });
    let (optimized, _) = tr.span("simplify", |_| fdi_simplify::simplify_n(&inlined, iters));
    Compiled {
        text: fdi_lang::unparse(&optimized).to_string(),
        baseline_size: baseline.size(),
        optimized_size: optimized.size(),
        sites_inlined: report.sites_inlined,
        cfa_steps: flow.stats().steps,
        baseline,
        optimized,
    }
}

/// `fdi_vm::run` under the default run configuration, in a `vm` span.
pub fn execute(program: &Program, tr: &mut Tracer) -> Result<Outcome, String> {
    tr.span("vm", |_| fdi_vm::run(program, &RunConfig::default()))
        .map_err(|e| e.message)
}

/// Cost-model total of an outcome (mutator + collector).
pub fn cost(o: &Outcome) -> u64 {
    o.counters.total(&RunConfig::default().model)
}

/// Each benchmark's value and printed output at each scale, recorded from the
/// unoptimized lowering.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    answers: BTreeMap<(String, Scale), (String, String)>,
}

impl Expected {
    pub const FILE: &'static str = include_str!("../expected.json");

    pub fn load() -> Result<Expected, String> {
        Expected::parse(Expected::FILE)
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = json::parse(text)?;
        let mut answers = BTreeMap::new();
        for e in doc
            .get("answers")
            .and_then(Json::as_arr)
            .ok_or("no answers")?
        {
            let field = |k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
            let scale = match field("scale").as_deref() {
                Some("default") => Scale::Default,
                Some("test") => Scale::Test,
                other => return Err(format!("bad scale {other:?}")),
            };
            let (Some(name), Some(value), Some(output)) =
                (field("benchmark"), field("value"), field("output"))
            else {
                return Err("answer entry lacks benchmark/value/output".into());
            };
            answers.insert((name, scale), (value, output));
        }
        for b in BENCHMARKS {
            for scale in [Scale::Default, Scale::Test] {
                if !answers.contains_key(&(b.name.to_string(), scale)) {
                    return Err(format!(
                        "no expected answer for {} at {}",
                        b.name,
                        scale.name()
                    ));
                }
            }
        }
        Ok(Expected { answers })
    }

    /// Does `(value, output)` match the recorded answer?
    pub fn matches(&self, bench: &str, scale: Scale, value: &str, output: Option<&str>) -> bool {
        self.answers
            .get(&(bench.to_string(), scale))
            .is_some_and(|(v, o)| v == value && output.is_none_or(|out| out == o))
    }

    /// Replaces one recorded value, to prove a wrong answer is caught.
    pub fn corrupt(&mut self, bench: &str) {
        for ((name, _), (value, _)) in self.answers.iter_mut() {
            if name == bench {
                value.push_str(" (corrupted)");
            }
        }
    }

    /// Records the file from the unoptimized threshold-0 lowering.
    pub fn record() -> Result<String, String> {
        let mut entries = Vec::new();
        for b in BENCHMARKS {
            for scale in [Scale::Default, Scale::Test] {
                let lowered =
                    fdi_lang::parse_and_lower(&source(b, scale)).map_err(|e| e.to_string())?;
                let o = fdi_vm::run(&lowered, &RunConfig::default()).map_err(|e| e.message)?;
                let s = fdi_telemetry::trace::json_string;
                entries.push(format!(
                    "  {{\"benchmark\":{},\"scale\":{},\"n\":{},\"value\":{},\"output\":{}}}",
                    s(b.name),
                    s(scale.name()),
                    scale.n(b),
                    s(&o.value),
                    s(&o.output)
                ));
            }
        }
        Ok(format!("{{\"answers\":[\n{}\n]}}\n", entries.join(",\n")))
    }
}
