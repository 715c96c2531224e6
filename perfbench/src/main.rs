//! The repository's benchmark: three workloads (`run`, `sweep`, `serve`),
//! end-to-end metrics from untraced runs, and a per-layer ledger from a
//! separate traced run that times every call into a layer's public API.
//!
//! ```text
//! perfbench --workload run|sweep|serve --seed N --seconds S --trace 0|1 --fdi PATH
//! perfbench --selftest --fdi PATH
//! perfbench --record-expected
//! ```
//!
//! The last line of standard output is one JSON object with exactly
//! `correct`, `attempted`, `failed` and `metrics`; the line before it carries
//! the provenance (seed, nproc, commit, each metric's median, quartiles and
//! sample count). The exit code is 1 when any output was wrong.

mod pipeline;
mod report;
mod run;
mod serve;
mod stats;
mod sweep;
mod trace;

use pipeline::Expected;
use report::{Outcome, END_TO_END, PER_LAYER};
use stats::Summary;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};
use trace::{Ledger, Span};

/// Everything a workload needs to know about its run.
pub struct Cx {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub fast: bool,
    pub expected: Expected,
    pub fdi: PathBuf,
    /// Scratch space inside the checkout, removed when the run ends.
    pub scratch: PathBuf,
    pub dirs: AtomicUsize,
    pub epoch: Instant,
}

impl Cx {
    /// The measuring budget of the run.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Run,
    Sweep,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Run, Workload::Sweep, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::Run => "run",
            Workload::Sweep => "sweep",
            Workload::Serve => "serve",
        }
    }
}

/// Latency percentiles of `samples` (ms), each kept to the tail rule of
/// [`Summary::tail_percentile`]. Each percentile's sample count, how many
/// samples lie beyond it and the percentile used go to the provenance line.
pub fn set_latencies(out: &mut Outcome, samples: &[f64]) {
    let s = Summary::of(samples);
    for (name, p) in [
        ("latency_p50_ms", 50.0),
        ("latency_p90_ms", 90.0),
        ("latency_p99_ms", 99.0),
    ] {
        out.set_sampled(name, s.tail_percentile(p).0, s.clone());
    }
}

/// Records a problem unless the ledger's rows sum to the op wall time and
/// every span nests inside its parent.
pub fn check_ledger(ledger: &Ledger, what: &str, out: &mut Outcome) {
    if !ledger.sound() {
        out.fail(
            0,
            format!(
                "{what} ledger: {} ops, rows off by {} ns, {} nesting errors",
                ledger.ops,
                ledger.sum_error_ns(),
                ledger.nesting_errors
            ),
        );
    }
}

/// One workload run in one trace mode.
fn measure(cx: &Cx, w: Workload, traced: bool) -> Outcome {
    if !traced {
        return match w {
            Workload::Run => run::measure(cx),
            Workload::Sweep => sweep::measure(cx),
            Workload::Serve => serve::measure(cx),
        };
    }
    let mut spans: Vec<Span> = Vec::new();
    let (mut out, own) = match w {
        Workload::Run => run::traced(cx, 0),
        Workload::Sweep => sweep::traced(cx, &sweep::subset(cx), cx.budget(), 0),
        Workload::Serve => serve::traced(cx, cx.budget(), 0),
    };
    trace::append(&mut spans, own);
    // Layers this workload never calls are measured on a short run of the
    // workload that does; the provenance line names where.
    if w != Workload::Sweep {
        let (probe, more) =
            sweep::traced(cx, &sweep::probe_subset(cx), Duration::from_secs(1), 100);
        out.fill_from(probe, "sweep-probe");
        trace::append(&mut spans, more);
    }
    if w != Workload::Serve {
        let (probe, more) = serve::traced(cx, Duration::from_secs(3), 200);
        out.fill_from(probe, "serve-probe");
        trace::append(&mut spans, more);
    }
    write_trace(cx, w, &spans, &mut out);
    out
}

/// Writes the spans as a Chrome trace and validates the file the way the
/// workspace's `trace_check` does.
fn write_trace(cx: &Cx, w: Workload, spans: &[Span], out: &mut Outcome) {
    let dir = PathBuf::from(".perfbench");
    let path = dir.join(format!("trace-{}-seed{}.json", w.name(), cx.seed));
    let text = trace::chrome_trace(spans);
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &text));
    match (written, fdi_telemetry::validate_chrome_trace(&text)) {
        (Ok(()), Ok(s)) if s.spans == spans.len() => {
            eprintln!("perfbench: {} spans -> {}", s.spans, path.display());
        }
        (Err(e), _) => out.fail(0, format!("trace write {}: {e}", path.display())),
        (_, Err(e)) => out.fail(0, format!("trace invalid: {e}")),
        (_, Ok(s)) => out.fail(
            0,
            format!("trace holds {} spans, recorded {}", s.spans, spans.len()),
        ),
    }
}

/// A content fingerprint of the program's sources (the checkout the
/// benchmark runs in need not be a git repository).
fn tree_fingerprint() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "scm" || x == "toml")
            {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("\"{h:016x}\"")
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("null".into(), |o| {
            format!("\"{}\"", String::from_utf8_lossy(&o.stdout).trim())
        })
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    fast: bool,
    fdi: Option<PathBuf>,
    selftest: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        fast: false,
        fdi: None,
        selftest: false,
        record: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--fdi" => a.fdi = Some(PathBuf::from(value()?)),
            "--selftest" => {
                a.selftest = true;
                i += 1;
                continue;
            }
            "--record-expected" => {
                a.record = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(a)
}

fn context(a: &Args, expected: Expected) -> Result<Cx, String> {
    let fdi = a.fdi.clone().ok_or("--fdi PATH is required")?;
    if !fdi.is_file() {
        return Err(format!("no fdi binary at {}", fdi.display()));
    }
    let scratch = PathBuf::from(".perfbench").join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    Ok(Cx {
        seed: a.seed,
        seconds: a.seconds,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        fast: a.fast,
        expected,
        fdi,
        scratch,
        dirs: AtomicUsize::new(0),
        epoch: Instant::now(),
    })
}

/// Runs one workload and renders its two output lines.
fn run_one(cx: &Cx, w: Workload, traced: bool) -> (Outcome, String, String) {
    let mut out = measure(cx, w, traced);
    let declared = if traced { PER_LAYER } else { END_TO_END };
    for (name, _) in declared {
        if !out.values.get(name).is_some_and(|v| v.is_finite()) {
            out.fail(0, format!("metric {name} was not measured"));
        }
    }
    let prov = [
        ("workload", format!("\"{}\"", w.name())),
        ("seed", cx.seed.to_string()),
        ("seconds", cx.seconds.to_string()),
        ("trace", traced.to_string()),
        ("fast", cx.fast.to_string()),
        ("nproc", cx.nproc.to_string()),
        ("git_commit", git_commit()),
        ("tree_fingerprint", tree_fingerprint()),
    ];
    let (p, r) = report::render(&out, declared, &prov);
    (out, p, r)
}

/// Fast mode on every workload in both trace modes: every metric declared in
/// `BENCHMARK.json` must be printed by name with its unit, and a wrong
/// expected answer must be counted as failed.
fn selftest() -> Result<(), String> {
    let decl =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let decl = fdi_telemetry::json::parse(&decl)?;
    let names = |key: &str| -> Vec<(String, String)> {
        decl.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect()
    };
    let (e2e, layers) = (names("end_to_end"), names("per_layer"));
    if e2e.len() != END_TO_END.len() || layers.len() != PER_LAYER.len() {
        return Err("BENCHMARK.json and the harness declare different metric sets".into());
    }
    let fast = Args {
        fast: true,
        ..parse_args()?
    };
    for w in Workload::ALL {
        for traced in [false, true] {
            let cx = context(&fast, Expected::load()?)?;
            let (out, _, line) = run_one(&cx, w, traced);
            let _ = std::fs::remove_dir_all(&cx.scratch);
            let result = fdi_telemetry::json::parse(&line)?;
            let metrics = result.get("metrics").ok_or("no metrics")?;
            for (name, unit) in if traced { &layers } else { &e2e } {
                let m = metrics
                    .get(name)
                    .ok_or(format!("{}: metric {name} not printed", w.name()))?;
                if m.get("unit").and_then(|u| u.as_str()) != Some(unit.as_str()) {
                    return Err(format!(
                        "{}: metric {name} printed without unit {unit}",
                        w.name()
                    ));
                }
                if m.get("value").and_then(|v| v.as_num()).is_none() {
                    return Err(format!("{}: metric {name} has no numeric value", w.name()));
                }
            }
            if !out.correct() {
                return Err(format!(
                    "{} (trace {}): {:?}",
                    w.name(),
                    traced as u8,
                    out.problems
                ));
            }
            eprintln!(
                "selftest: {} trace {}: {} metrics ok",
                w.name(),
                traced as u8,
                metrics.as_obj().map_or(0, |m| m.len())
            );
        }
    }
    for w in Workload::ALL {
        let mut wrong = Expected::load()?;
        for b in fdi_benchsuite::BENCHMARKS {
            wrong.corrupt(b.name);
        }
        let cx = context(&fast, wrong)?;
        let (out, _, _) = run_one(&cx, w, false);
        let _ = std::fs::remove_dir_all(&cx.scratch);
        if out.failed == 0 || out.correct() {
            return Err(format!(
                "{}: a wrong expected answer was not counted as failed",
                w.name()
            ));
        }
        eprintln!(
            "selftest: {}: wrong answer counted ({} failed)",
            w.name(),
            out.failed
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.record {
        return match Expected::record() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if a.selftest {
        return match selftest() {
            Ok(()) => {
                println!("selftest: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("selftest: FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(w) = a.workload else {
        eprintln!("perfbench: --workload run|sweep|serve is required");
        return ExitCode::from(2);
    };
    let cx = match Expected::load().and_then(|e| context(&a, e)) {
        Ok(cx) => cx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (out, provenance, result) = run_one(&cx, w, a.trace);
    let _ = std::fs::remove_dir_all(&cx.scratch);
    for p in &out.problems {
        eprintln!("perfbench: {p}");
    }
    println!("{provenance}");
    println!("{result}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
