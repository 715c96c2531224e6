//! `run`: the one-shot `fdi run` path. One in-process caller in a closed
//! loop; each op is `fdi_core::optimize` at threshold 200 and `fdi_vm::run`
//! of the result, nothing cached between ops. Each round runs the 8 Table-1
//! benchmarks at default scale in a seeded order; a run measures whole
//! rounds, so every seed times the same mix.

use crate::pipeline::{self, compile_layers, cost, execute, optimize, Compiled, Scale};
use crate::report::{Outcome, Work};
use crate::stats::{cpu_ms, geomean, ms, peak_rss_mb, Summary};
use crate::trace::{Ledger, Span, Tracer};
use crate::Cx;
use fdi_benchsuite::BENCHMARKS;
use fdi_core::PipelineOutput;
use fdi_testutil::Rng;
use std::time::{Duration, Instant};

const THRESHOLD: usize = 200;

/// A seeded order of the benchmark indices.
pub fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.index(i + 1));
    }
    order
}

/// Set-up: build every source and check that it lowers.
pub fn setup(scale: Scale) -> (Duration, Vec<String>) {
    let start = Instant::now();
    let sources: Vec<String> = BENCHMARKS
        .iter()
        .map(|b| pipeline::source(b, scale))
        .collect();
    for s in &sources {
        fdi_lang::parse_and_lower(s).expect("benchmark sources lower");
    }
    (start.elapsed(), sources)
}

/// Calls `op` on whole rounds of benchmark indices, each round in a seeded
/// order, and `between` after every round but the last, until `budget` has
/// passed (once in fast mode).
fn rounds(cx: &Cx, mut op: impl FnMut(usize), mut between: impl FnMut()) {
    let mut rng = Rng::new(cx.seed);
    let start = Instant::now();
    loop {
        for bench in shuffled(&mut rng, BENCHMARKS.len()) {
            op(bench);
            if cx.fast {
                return;
            }
        }
        if start.elapsed() >= cx.budget() {
            return;
        }
        between();
    }
}

pub fn measure(cx: &Cx) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is timed before the loop and again between rounds, so that its
    // median covers the host's speed over the whole run, not one moment of
    // it. The time spent there is taken out of the loop's wall and CPU time.
    let (took, sources) = setup(Scale::Default);
    let mut setups = vec![took.as_secs_f64()];
    let (mut paused_s, mut paused_cpu_ms) = (0.0, 0.0);
    let pid = std::process::id();
    let mut latencies = Vec::new();
    // Each benchmark's first compile and the cost of its run.
    let mut firsts: Vec<Option<(PipelineOutput, u64)>> = BENCHMARKS.iter().map(|_| None).collect();
    let cpu0 = cpu_ms(pid);
    let start = Instant::now();
    rounds(
        cx,
        |bench| {
            let t0 = Instant::now();
            let run = optimize(&sources[bench], THRESHOLD)
                .and_then(|o| execute(&o.optimized, &mut Tracer::off()).map(|r| (o, r)));
            latencies.push(ms(t0.elapsed()));
            out.attempted += 1;
            let name = BENCHMARKS[bench].name;
            match run {
                Err(e) => out.fail(1, format!("run {name}: {e}")),
                Ok((o, r)) => {
                    if !cx
                        .expected
                        .matches(name, Scale::Default, &r.value, Some(&r.output))
                    {
                        out.fail(1, format!("run {name}: wrong answer {:?}", r.value));
                    }
                    firsts[bench].get_or_insert((o, cost(&r)));
                }
            }
        },
        || {
            let (t0, c0) = (Instant::now(), cpu_ms(pid));
            setups.push(setup(Scale::Default).0.as_secs_f64());
            paused_cpu_ms += cpu_ms(pid) - c0;
            paused_s += t0.elapsed().as_secs_f64();
        },
    );
    let wall = start.elapsed().as_secs_f64() - paused_s;
    let cpu = cpu_ms(pid) - cpu0 - paused_cpu_ms;
    out.set("peak_rss_mb", peak_rss_mb(pid));

    let s = Summary::of(&setups);
    out.set_sampled("setup_s", s.median, s);
    out.set("ops_per_s", latencies.len() as f64 / wall);
    crate::set_latencies(&mut out, &latencies);
    out.set("cpu_ms_per_op", cpu / latencies.len() as f64);
    out.set_ok_share();

    // Outside the timed loop: each benchmark's baseline, for the cost ratio.
    let mut sizes = Vec::new();
    let mut costs = Vec::new();
    for (o, optimized_cost) in firsts.iter().flatten() {
        sizes.push(o.size_ratio());
        match execute(&o.baseline, &mut Tracer::off()) {
            Ok(base) => costs.push(*optimized_cost as f64 / cost(&base) as f64),
            Err(e) => out.fail(1, format!("run baseline: {e}")),
        }
    }
    out.set("code_size_ratio", geomean(&sizes));
    out.set("vm_cost_ratio", geomean(&costs));
    out
}

/// The compile decomposed into its layer calls, then the VM run.
fn decomposed(src: &str, tr: &mut Tracer) -> Result<(Compiled, fdi_vm::Outcome), String> {
    let c = compile_layers(src, THRESHOLD, tr)?;
    let r = execute(&c.optimized, tr)?;
    Ok((c, r))
}

/// The traced run: whole rounds of the same seeded op sequence, each op
/// three times back to back — `fdi_core::optimize` (the byte-identity
/// reference and the base of `core.unattributed_ms`), the decomposed
/// compile and run untraced, and the same traced — so that host drift
/// falls on all three alike.
pub fn traced(cx: &Cx, tid: u32) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    let sources = setup(Scale::Default).1;
    let mut tr = Tracer::new(true, cx.epoch, tid);
    let mut work = Work::default();
    let (mut optimize_ms, mut untraced_ms, mut id) = (0.0, 0.0, 0u64);
    rounds(
        cx,
        |bench| {
            let (name, src) = (BENCHMARKS[bench].name, &sources[bench]);
            let t0 = Instant::now();
            let reference = optimize(src, THRESHOLD);
            optimize_ms += ms(t0.elapsed());
            let t1 = Instant::now();
            let plain = decomposed(src, &mut Tracer::off());
            untraced_ms += ms(t1.elapsed());
            let traced = tr.op(id, "op", |tr| decomposed(src, tr));
            id += 1;
            out.attempted += 1;
            match (reference, plain, traced) {
                (Ok(o), Ok((_, p)), Ok((c, r)))
                    if c.same_as(&Compiled::from_output(&o))
                        && p.counters == r.counters
                        && cx
                            .expected
                            .matches(name, Scale::Default, &r.value, Some(&r.output)) =>
                {
                    work.compiled(&c);
                    work.ran(&r.counters);
                }
                _ => out.fail(
                    1,
                    format!(
                    "traced run {name}: decomposed compile or run differs from fdi_core::optimize"
                ),
                ),
            }
        },
        || {},
    );
    let ledger = Ledger::of(&tr.spans);
    crate::check_ledger(&ledger, "run", &mut out);
    let n = ledger.ops.max(1) as f64;
    out.set_layers(&ledger, &work, n);
    out.set(
        "core.unattributed_ms",
        (optimize_ms - ledger.compile_ms()) / n,
    );
    out.set(
        "trace.overhead_share",
        ledger.op_wall_ns as f64 / 1e6 / untraced_ms - 1.0,
    );
    (out, tr.spans)
}
