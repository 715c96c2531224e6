//! `sweep`: the Fig. 6 grid (8 benchmarks × thresholds {0, 50, 100, 200,
//! 500, 1000}) through `Engine::sweep_many` with `nproc` workers, on a fresh
//! engine every iteration, at test scale; a re-sweep on the then-warm
//! engine follows each cold sweep. An op is one grid cell.

use crate::pipeline::{self, analyze, execute, lower, transform, Compiled, Scale, THRESHOLDS};
use crate::report::{Outcome, Work};
use crate::run::shuffled;
use crate::stats::{cpu_ms, geomean, ms, peak_rss_mb, ratio, reset_peak_rss, Summary};
use crate::trace::{Ledger, Span, Tracer};
use crate::Cx;
use fdi_benchsuite::BENCHMARKS;
use fdi_core::{PipelineConfig, RunConfig, SweepRow};
use fdi_engine::{Engine, EngineStats};
use fdi_testutil::Rng;
use std::time::{Duration, Instant};

/// Everything a row asserts, bit for bit.
fn row_key(r: &SweepRow) -> String {
    format!(
        "{}|{:x}|{:?}|{:x}|{:x}|{:x}|{:?}|{:?}|{}",
        r.threshold,
        r.size_ratio.to_bits(),
        r.counters,
        r.norm_mutator.to_bits(),
        r.norm_collector.to_bits(),
        r.norm_total.to_bits(),
        r.report,
        r.value,
        r.health.degraded()
    )
}

type Rows = Vec<Vec<SweepRow>>;

/// One iteration's measurements.
struct Iteration {
    /// The iteration's set-up: a fresh engine and the grid's sources, each
    /// checked to lower. Timed in every iteration, so that its median covers
    /// the host's speed over the whole run.
    setup: Duration,
    cold: Duration,
    warm: Duration,
    cpu_ms: f64,
    cells: u64,
    stats: EngineStats,
    peak_rss_mb: f64,
}

/// Cold + warm sweeps over `benches` until `budget` has passed (one cold
/// sweep of one benchmark in fast mode). Rows come back in `benches` order.
fn iterations(
    cx: &Cx,
    benches: &[usize],
    budget: Duration,
    out: &mut Outcome,
) -> (Vec<Iteration>, Option<Rows>) {
    let sources: Vec<String> = benches
        .iter()
        .map(|&b| pipeline::source(&BENCHMARKS[b], Scale::Test))
        .collect();
    let mut rng = Rng::new(cx.seed);
    let mut first: Option<Rows> = None;
    let mut its = Vec::new();
    let pid = std::process::id();
    let start = Instant::now();
    loop {
        reset_peak_rss(pid);
        let t = Instant::now();
        let engine = Engine::with_jobs(cx.nproc);
        crate::run::setup(Scale::Test);
        let setup = t.elapsed();
        let order = shuffled(&mut rng, sources.len());
        let srcs: Vec<&str> = order.iter().map(|&i| sources[i].as_str()).collect();
        let sweep = || {
            engine.sweep_many(
                &srcs,
                &THRESHOLDS[1..],
                &PipelineConfig::default(),
                &RunConfig::default(),
            )
        };
        let cpu0 = cpu_ms(pid);
        let t0 = Instant::now();
        let cold = sweep();
        let cold_wall = t0.elapsed();
        let cpu = cpu_ms(pid) - cpu0;
        let stats = engine.stats();
        let t1 = Instant::now();
        let warm = sweep();
        let warm_wall = t1.elapsed();
        drop(engine);
        let peak = peak_rss_mb(pid);

        let mut rows: Rows = vec![Vec::new(); sources.len()];
        let mut cells = 0;
        for (pass, results) in [("cold", cold), ("warm", warm)] {
            for (k, result) in results.into_iter().enumerate() {
                let name = BENCHMARKS[benches[order[k]]].name;
                let got = match result {
                    Ok(got) => got,
                    Err(e) => {
                        out.attempted += THRESHOLDS.len() as u64;
                        out.fail(THRESHOLDS.len() as u64, format!("{pass} sweep {name}: {e}"));
                        continue;
                    }
                };
                for r in &got {
                    out.attempted += 1;
                    if r.health.degraded()
                        || !cx.expected.matches(name, Scale::Test, &r.value, None)
                    {
                        out.fail(
                            1,
                            format!(
                                "{pass} sweep {name}@{}: degraded or wrong answer",
                                r.threshold
                            ),
                        );
                    }
                }
                let want = first.as_ref().map_or(&rows[order[k]], |f| &f[order[k]]);
                let same = want.is_empty()
                    || (want.len() == got.len()
                        && want.iter().zip(&got).all(|(a, b)| row_key(a) == row_key(b)));
                if !same {
                    out.fail(
                        got.len() as u64,
                        format!("{pass} sweep {name}: rows differ between sweeps"),
                    );
                }
                if pass == "cold" {
                    cells += got.len() as u64;
                    rows[order[k]] = got;
                }
            }
        }
        first.get_or_insert(rows);
        its.push(Iteration {
            setup,
            cold: cold_wall,
            warm: warm_wall,
            cpu_ms: cpu,
            cells,
            stats,
            peak_rss_mb: peak,
        });
        if cx.fast || start.elapsed() >= budget {
            return (its, first);
        }
    }
}

/// `fdi_core::sweep`, sequentially, over `benches`: the reference the
/// engine's rows must equal.
fn reference(benches: &[usize], engine_rows: &Rows, out: &mut Outcome) -> Rows {
    let rows: Rows = benches
        .iter()
        .map(|&b| {
            let src = pipeline::source(&BENCHMARKS[b], Scale::Test);
            fdi_core::sweep(
                &src,
                &THRESHOLDS[1..],
                &PipelineConfig::default(),
                &RunConfig::default(),
            )
            .unwrap_or_default()
        })
        .collect();
    for (k, (want, got)) in rows.iter().zip(engine_rows).enumerate() {
        let same =
            want.len() == got.len() && want.iter().zip(got).all(|(a, b)| row_key(a) == row_key(b));
        if !same {
            out.fail(
                1,
                format!(
                    "sweep {}: engine rows differ from fdi_core::sweep",
                    BENCHMARKS[benches[k]].name
                ),
            );
        }
    }
    rows
}

pub fn subset(cx: &Cx) -> Vec<usize> {
    if cx.fast {
        vec![Rng::new(cx.seed).index(BENCHMARKS.len())]
    } else {
        (0..BENCHMARKS.len()).collect()
    }
}

pub fn measure(cx: &Cx) -> Outcome {
    let mut out = Outcome::default();
    let benches = subset(cx);
    let (its, first) = iterations(cx, &benches, cx.budget(), &mut out);
    let first = first.unwrap_or_default();
    reference(&benches, &first, &mut out);

    let s = Summary::of(
        &its.iter()
            .map(|i| i.setup.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    out.set_sampled("setup_s", s.median, s);
    let cells: u64 = its.iter().map(|i| i.cells).sum();
    let cold_s: f64 = its.iter().map(|i| i.cold.as_secs_f64()).sum();
    out.set("ops_per_s", cells as f64 / cold_s);
    crate::set_latencies(
        &mut out,
        &its.iter().map(|i| ms(i.cold)).collect::<Vec<_>>(),
    );
    let peak = Summary::of(&its.iter().map(|i| i.peak_rss_mb).collect::<Vec<_>>());
    out.set_sampled("peak_rss_mb", peak.median, peak);
    out.set(
        "cpu_ms_per_op",
        its.iter().map(|i| i.cpu_ms).sum::<f64>() / cells as f64,
    );
    out.set_ok_share();
    let rows: Vec<&SweepRow> = first
        .iter()
        .flatten()
        .filter(|r| r.threshold != 0)
        .collect();
    out.set(
        "code_size_ratio",
        geomean(&rows.iter().map(|r| r.size_ratio).collect::<Vec<_>>()),
    );
    out.set(
        "vm_cost_ratio",
        geomean(&rows.iter().map(|r| r.norm_total).collect::<Vec<_>>()),
    );
    out
}

/// One benchmark's grid decomposed into layer calls: one parse and one
/// analysis, then per threshold the transform and a VM run.
fn sweep_layers(
    src: &str,
    tr: &mut Tracer,
) -> Result<Vec<(usize, Compiled, fdi_vm::Outcome)>, String> {
    let lowered = lower(src, tr)?;
    let flow = analyze(&lowered, tr);
    THRESHOLDS
        .iter()
        .map(|&t| {
            let c = transform(&lowered, &flow, t, tr);
            execute(&c.optimized, tr).map(|r| (t, c, r))
        })
        .collect()
}

/// The traced run over `benches`: engine iterations for a third of the
/// budget (the engine-layer metrics), the sequential `fdi_core::sweep` rows
/// as the reference, then per benchmark, back to back, `fdi_core::optimize`
/// of every cell (byte-identity reference, base of `core.unattributed_ms`)
/// and [`sweep_layers`] untraced and traced — each benchmark's row set one
/// traced op.
pub fn traced(cx: &Cx, benches: &[usize], budget: Duration, tid: u32) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    let (its, first) = iterations(cx, benches, budget / 3, &mut out);
    let first = first.unwrap_or_default();
    let reference_rows = reference(benches, &first, &mut out);

    let mut tr = Tracer::new(true, cx.epoch, tid);
    let mut work = Work::default();
    let (mut optimize_ms, mut untraced_ms, mut cells) = (0.0, 0.0, 0u64);
    for (k, &b) in benches.iter().enumerate() {
        let bench = &BENCHMARKS[b];
        let src = pipeline::source(bench, Scale::Test);
        let t0 = Instant::now();
        let optimized: Vec<_> = THRESHOLDS
            .iter()
            .map(|&t| pipeline::optimize(&src, t))
            .collect();
        optimize_ms += ms(t0.elapsed());
        let t1 = Instant::now();
        let plain = sweep_layers(&src, &mut Tracer::off());
        untraced_ms += ms(t1.elapsed());
        let traced = tr.op(k as u64, "op", |tr| sweep_layers(&src, tr));
        let (Ok(plain), Ok(traced)) = (plain, traced) else {
            out.attempted += THRESHOLDS.len() as u64;
            out.fail(
                THRESHOLDS.len() as u64,
                format!("traced sweep {}: failed", bench.name),
            );
            continue;
        };
        for (((t, c, r), row), (o, (_, _, p))) in traced
            .iter()
            .zip(&reference_rows[k])
            .zip(optimized.iter().zip(&plain))
        {
            out.attempted += 1;
            cells += 1;
            work.compiled(c);
            work.ran(&r.counters);
            let size_ratio = c.optimized_size as f64 / c.baseline_size as f64;
            let same = row.threshold == *t
                && row.counters == r.counters
                && p.counters == r.counters
                && row.value == r.value
                && row.size_ratio.to_bits() == size_ratio.to_bits()
                && o.as_ref()
                    .is_ok_and(|o| Compiled::from_output(o).same_as(c));
            if !same {
                out.fail(
                    1,
                    format!(
                        "traced sweep {}@{t}: decomposed cell differs from fdi_core",
                        bench.name
                    ),
                );
            }
        }
    }
    let ledger = Ledger::of(&tr.spans);
    crate::check_ledger(&ledger, "sweep", &mut out);
    let n = cells.max(1) as f64;
    out.set_layers(&ledger, &work, n);
    // Each cell's `optimize` parses and analyzes; the decomposition does
    // both once per benchmark.
    let shared = THRESHOLDS.len() as f64 * (ledger.ms("lang") + ledger.ms("cfa"));
    let tail = ledger.ms("inline") + ledger.ms("simplify");
    out.set("core.unattributed_ms", (optimize_ms - shared - tail) / n);
    out.set(
        "trace.overhead_share",
        ledger.op_wall_ns as f64 / 1e6 / untraced_ms - 1.0,
    );

    let sum = |f: fn(&EngineStats) -> u64| its.iter().map(|i| f(&i.stats)).sum::<u64>();
    let (ah, am) = (sum(|s| s.analysis_hits), sum(|s| s.analysis_misses));
    let (sh, sm) = (sum(|s| s.spec_hits), sum(|s| s.spec_misses));
    let (eh, em) = (sum(|s| s.exec_hits), sum(|s| s.exec_misses));
    out.set("engine.analysis_hit_ratio", ratio(ah, ah + am));
    out.set("engine.spec_hit_ratio", ratio(sh, sh + sm));
    out.set("engine.exec_hit_ratio", ratio(eh, eh + em));
    let cold = Summary::of(&its.iter().map(|i| ms(i.cold)).collect::<Vec<_>>());
    let layer_ms = ledger.compile_ms() + ledger.ms("vm");
    out.set(
        "engine.parallel_efficiency",
        layer_ms / (cold.median * cx.nproc as f64),
    );
    out.set(
        "engine.warm_sweep_ms",
        Summary::of(&its.iter().map(|i| ms(i.warm)).collect::<Vec<_>>()).median,
    );
    (out, tr.spans)
}

/// The benchmarks a traced run of another workload sweeps to measure the
/// engine layer: two, chosen by the seed.
pub fn probe_subset(cx: &Cx) -> Vec<usize> {
    let order = shuffled(&mut Rng::new(cx.seed ^ 0x5eed), BENCHMARKS.len());
    order[..if cx.fast { 1 } else { 2 }].to_vec()
}
