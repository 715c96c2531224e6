//! `serve`: a spawned `fdi serve --jobs <nproc> --store <fresh dir>` driven
//! by `nproc` persistent connections in a closed loop, each sending one JSON
//! line and waiting for the reply. The seeded mix over the 8 benchmarks
//! (test scale) × the Fig. 6 thresholds is mostly exact repeats (store
//! reads), about a quarter a seen source at a new threshold (analysis-cache
//! hit, inline + simplify, store write), and the rest new sources — the
//! benchmark text behind a unique leading `;;` comment — each a full cold
//! compile and a store write. No VM runs on the serving path.
//!
//! The client uses one write per request line and no socket tuning, so the
//! transport's own cost shows in the latencies.

use crate::pipeline::{self, compile_layers, cost, execute, Compiled, Scale, THRESHOLDS};
use crate::report::{Outcome, Work};
use crate::stats::{cpu_ms, geomean, ms, peak_rss_mb, ratio, Summary};
use crate::trace::{Ledger, Span, Tracer};
use crate::Cx;
use fdi_benchsuite::BENCHMARKS;
use fdi_core::PipelineConfig;
use fdi_engine::{Engine, EngineConfig, Job};
use fdi_telemetry::json::{self, Json};
use fdi_telemetry::trace::json_string;
use fdi_testutil::Rng;
use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Of every `CLASS_CYCLE` requests, `REPEATS` repeat an earlier (source,
/// threshold) exactly, `NEW_THRESHOLDS` ask for a seen source at a
/// threshold it has not had, and the rest bring a new source.
const CLASS_CYCLE: usize = 20;
const REPEATS: usize = 12;
const NEW_THRESHOLDS: usize = 5;

/// The daemon's caches grow with every new source, so its peak RSS is read
/// at fixed points of the seeded sequence, whatever number of requests a
/// run gets through: every `RSS_EVERY` requests up to `RSS_UNTIL`. It grows
/// in steps as heavy compiles land, at moments that vary from run to run;
/// the mean of the readings follows the steps' sizes, not their timing.
const RSS_EVERY: usize = 100;
const RSS_UNTIL: usize = 800;

/// One job request: a benchmark, an optional salt making its source new,
/// and a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Request {
    pub bench: usize,
    pub salt: Option<u64>,
    pub threshold: usize,
}

impl Request {
    pub fn source(&self, seed: u64) -> String {
        let body = pipeline::source(&BENCHMARKS[self.bench], Scale::Test);
        match self.salt {
            None => body,
            Some(n) => format!(";; request source {seed}.{n}\n{body}"),
        }
    }

    pub fn line(&self, seed: u64) -> String {
        format!(
            "{{\"op\":\"job\",\"source\":{},\"flags\":[\"-t\",\"{}\"]}}",
            json_string(&self.source(seed)),
            self.threshold
        )
    }
}

/// The seeded request generator. The sequence depends on the seed only.
/// Request classes, new sources' benchmarks and their thresholds each walk
/// a seeded order reshuffled at the end of each pass, so every seed's
/// request mix and working set have the same make-up.
pub struct Mix {
    rng: Rng,
    issued: Vec<Request>,
    sources: Vec<(usize, Option<u64>)>,
    pairs: HashSet<Request>,
    next_salt: u64,
    class_cycle: Vec<usize>,
    bench_cycle: Vec<usize>,
    threshold_cycle: Vec<usize>,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix {
            rng: Rng::new(seed),
            issued: Vec::new(),
            sources: Vec::new(),
            pairs: HashSet::new(),
            next_salt: 0,
            class_cycle: Vec::new(),
            bench_cycle: Vec::new(),
            threshold_cycle: Vec::new(),
        }
    }

    /// The next entry of a seeded cycle over `0..n`.
    fn cycle(rng: &mut Rng, pending: &mut Vec<usize>, n: usize) -> usize {
        if pending.is_empty() {
            *pending = crate::run::shuffled(rng, n);
        }
        pending.pop().expect("refilled above")
    }

    pub fn next(&mut self) -> Request {
        let class = Mix::cycle(&mut self.rng, &mut self.class_cycle, CLASS_CYCLE);
        let req = if !self.issued.is_empty() && class < REPEATS {
            *self.rng.choose(&self.issued)
        } else if !self.issued.is_empty() && class < REPEATS + NEW_THRESHOLDS {
            let (bench, salt) = *self.rng.choose(&self.sources);
            let fresh: Vec<usize> = THRESHOLDS
                .iter()
                .copied()
                .filter(|&threshold| {
                    !self.pairs.contains(&Request {
                        bench,
                        salt,
                        threshold,
                    })
                })
                .collect();
            match fresh.is_empty() {
                true => self.new_source(),
                false => Request {
                    bench,
                    salt,
                    threshold: *self.rng.choose(&fresh),
                },
            }
        } else {
            self.new_source()
        };
        self.issued.push(req);
        self.pairs.insert(req);
        req
    }

    /// A source not seen before: an unsalted benchmark the first time it is
    /// drawn, a freshly salted one after that.
    fn new_source(&mut self) -> Request {
        let bench = Mix::cycle(&mut self.rng, &mut self.bench_cycle, BENCHMARKS.len());
        let salt = if self.sources.contains(&(bench, None)) {
            self.next_salt += 1;
            Some(self.next_salt)
        } else {
            None
        };
        self.sources.push((bench, salt));
        Request {
            bench,
            salt,
            threshold: THRESHOLDS
                [Mix::cycle(&mut self.rng, &mut self.threshold_cycle, THRESHOLDS.len())],
        }
    }
}

/// A persistent client connection: one write per request line.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(port: u16) -> Result<Conn, String> {
        let writer =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer
            .write_all(buf.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// A spawned daemon; killed and reaped on drop if still running.
pub struct Daemon {
    child: Child,
    drain: Option<std::thread::JoinHandle<()>>,
    pub port: u16,
}

impl Daemon {
    /// Spawns `fdi serve` on `store` and returns it with the time from spawn
    /// to its first answered ping.
    pub fn spawn(cx: &Cx, store: &Path) -> Result<(Daemon, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(&cx.fdi)
            .arg("serve")
            .args(["--jobs", &cx.nproc.to_string(), "--port", "0", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cx.fdi.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut daemon = Daemon {
            child,
            drain: None,
            port: 0,
        };
        let mut line = String::new();
        while daemon.port == 0 {
            line.clear();
            if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("fdi serve exited before listening".into());
            }
            daemon.port = line
                .split_once("listening on 127.0.0.1:")
                .and_then(|(_, rest)| rest.split_whitespace().next()?.parse().ok())
                .unwrap_or(0);
        }
        // Keep the pipe drained so the daemon never blocks on stderr.
        daemon.drain = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        }));
        let reply = Conn::open(daemon.port)?.call("{\"op\":\"ping\"}")?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("ping failed: {reply}"));
        }
        Ok((daemon, start.elapsed()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on a fresh connection.
    pub fn ask(&self, line: &str) -> Result<Json, String> {
        json::parse(&Conn::open(self.port)?.call(line)?)
    }

    /// Graceful drain, then reap.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = self.ask("{\"op\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("fdi serve did not drain; killed".into());
                }
            }
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One answered request of the wire run.
struct Record {
    idx: usize,
    req: Request,
    latency_ms: f64,
    reply: Result<String, String>,
}

/// The closed loop: `nproc` connections, each taking the next request of the
/// seeded sequence and waiting for its reply, until `budget` has passed (one
/// request in fast mode). Records come back in issue order, with the mean
/// of the daemon's peak RSS readings (see [`RSS_EVERY`]), if it took any.
fn wire(cx: &Cx, daemon: &Daemon, budget: Duration) -> (Vec<Record>, Duration, Option<f64>) {
    let (port, pid) = (daemon.port, daemon.pid());
    let mix = Mutex::new((Mix::new(cx.seed), 0usize));
    let rss = Mutex::new(Vec::new());
    let limit = if cx.fast { 1 } else { usize::MAX };
    let start = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..cx.nproc)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    let mut conn = match Conn::open(port) {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("perfbench: {e}");
                            return mine;
                        }
                    };
                    loop {
                        let (idx, req) = {
                            let mut g = mix
                                .lock()
                                .expect("no request thread panics holding the mix");
                            if g.1 >= limit || start.elapsed() >= budget {
                                return mine;
                            }
                            if g.1 > 0 && g.1 <= RSS_UNTIL && g.1.is_multiple_of(RSS_EVERY) {
                                rss.lock()
                                    .expect("no request thread panics holding the readings")
                                    .push(peak_rss_mb(pid));
                            }
                            g.1 += 1;
                            (g.1 - 1, g.0.next())
                        };
                        let line = req.line(cx.seed);
                        let t0 = Instant::now();
                        let reply = conn.call(&line);
                        let latency_ms = ms(t0.elapsed());
                        let broken = reply.is_err();
                        mine.push(Record {
                            idx,
                            req,
                            latency_ms,
                            reply,
                        });
                        if broken {
                            return mine;
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("request threads do not panic"))
            .collect()
    });
    let wall = start.elapsed();
    records.sort_by_key(|r| r.idx);
    let rss = rss.into_inner().expect("request threads have exited");
    let mean = (!rss.is_empty()).then(|| rss.iter().sum::<f64>() / rss.len() as f64);
    (records, wall, mean)
}

/// What the reference compile of one (benchmark, threshold) produced.
struct Reference {
    compiled: Compiled,
    fuel_used: u64,
    decisions: Json,
}

fn num(j: &Json, key: &str) -> Option<f64> {
    j.get(key).and_then(Json::as_num)
}

/// Checks every reply against the in-process `fdi_core::optimize` of its
/// unsalted twin (a salted source must lower to the same program), and runs
/// each distinct program on the VM against the expected answers. Returns
/// per-(bench, threshold) references for the ratio metrics.
/// With tracing on, each reference compile is repeated layer by layer and
/// must come out byte-identical. Also returns the summed `optimize` wall time.
fn check(
    cx: &Cx,
    records: &[Record],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (BTreeMap<(usize, usize), Reference>, f64) {
    let mut refs: BTreeMap<(usize, usize), Reference> = BTreeMap::new();
    let mut optimize_ms = 0.0;
    for r in records {
        let key = (r.req.bench, r.req.threshold);
        if refs.contains_key(&key) {
            continue;
        }
        let src = pipeline::source(&BENCHMARKS[key.0], Scale::Test);
        let t0 = Instant::now();
        let Ok(o) = pipeline::optimize(&src, key.1) else {
            out.fail(
                1,
                format!(
                    "serve reference {}@{}: optimize failed",
                    BENCHMARKS[key.0].name, key.1
                ),
            );
            continue;
        };
        optimize_ms += ms(t0.elapsed());
        let compiled = Compiled::from_output(&o);
        if tr.is_on() {
            let id = refs.len() as u64;
            let same = tr.op(id, "op", |tr| compile_layers(&src, key.1, tr));
            if !same.is_ok_and(|c| c.same_as(&compiled)) {
                out.fail(
                    1,
                    format!(
                        "serve reference {}@{}: decomposed compile differs",
                        BENCHMARKS[key.0].name, key.1
                    ),
                );
            }
        }
        let decisions = json::parse(&fdi_telemetry::DecisionTotals::tally(&o.decisions).to_json())
            .unwrap_or(Json::Null);
        refs.insert(
            key,
            Reference {
                compiled,
                fuel_used: o.fuel_used,
                decisions,
            },
        );
    }

    let mut lowered_twins: BTreeMap<usize, String> = BTreeMap::new();
    let mut salted_ok: BTreeMap<(usize, u64), bool> = BTreeMap::new();
    for r in records {
        out.attempted += 1;
        let name = BENCHMARKS[r.req.bench].name;
        let reply = match r.reply.as_deref().map(json::parse) {
            Ok(Ok(j)) => j,
            Ok(Err(e)) => {
                out.fail(1, format!("serve {name}: unparsable reply: {e}"));
                continue;
            }
            Err(e) => {
                out.fail(1, format!("serve {name}: {e}"));
                continue;
            }
        };
        let Some(want) = refs.get(&(r.req.bench, r.req.threshold)) else {
            out.fail(1, format!("serve {name}: no reference"));
            continue;
        };
        let c = &want.compiled;
        let same = reply.get("ok") == Some(&Json::Bool(true))
            && reply.get("degraded") == Some(&Json::Bool(false))
            && reply.get("optimized").and_then(Json::as_str) == Some(c.text.as_str())
            && num(&reply, "baseline_size") == Some(c.baseline_size as f64)
            && num(&reply, "optimized_size") == Some(c.optimized_size as f64)
            && num(&reply, "sites_inlined") == Some(c.sites_inlined as f64)
            && num(&reply, "fuel_used") == Some(want.fuel_used as f64)
            && reply.get("decisions") == Some(&want.decisions);
        if !same {
            out.fail(
                1,
                format!(
                    "serve {name}@{}: reply differs from fdi_core::optimize",
                    r.req.threshold
                ),
            );
            continue;
        }
        if let Some(salt) = r.req.salt {
            let ok = *salted_ok.entry((r.req.bench, salt)).or_insert_with(|| {
                let lower = |s: &str| {
                    fdi_lang::parse_and_lower(s)
                        .map(|p| fdi_lang::unparse(&p).to_string())
                        .ok()
                };
                let twin = lowered_twins.entry(r.req.bench).or_insert_with(|| {
                    lower(&pipeline::source(&BENCHMARKS[r.req.bench], Scale::Test))
                        .unwrap_or_default()
                });
                lower(&r.req.source(cx.seed)).as_deref() == Some(twin.as_str())
            });
            if !ok {
                out.fail(
                    1,
                    format!("serve {name}: salted source lowers differently from its twin"),
                );
            }
        }
    }
    (refs, optimize_ms)
}

/// The VM side of the check: each distinct served program and each
/// benchmark's baseline, run and checked against the expected answers.
/// Returns the geometric mean cost ratio (optimized / baseline) over the
/// distinct programs.
fn run_programs(
    cx: &Cx,
    refs: &BTreeMap<(usize, usize), Reference>,
    tr: &mut Tracer,
    work: &mut Work,
    out: &mut Outcome,
) -> f64 {
    let mut base_cost: BTreeMap<usize, Option<u64>> = BTreeMap::new();
    let mut ratios = Vec::new();
    for (id, (&(bench, t), r)) in refs.iter().enumerate() {
        let name = BENCHMARKS[bench].name;
        let ran = tr.op((refs.len() + id) as u64, "op", |tr| {
            execute(&r.compiled.optimized, tr)
        });
        let Ok(o) = ran else {
            out.fail(1, format!("serve vm {name}@{t}: failed"));
            continue;
        };
        work.ran(&o.counters);
        if !cx
            .expected
            .matches(name, Scale::Test, &o.value, Some(&o.output))
        {
            out.fail(
                1,
                format!("serve vm {name}@{t}: wrong answer {:?}", o.value),
            );
        }
        let base = *base_cost.entry(bench).or_insert_with(|| {
            match execute(&r.compiled.baseline, &mut Tracer::off()) {
                Ok(b) => Some(cost(&b)),
                Err(e) => {
                    out.fail(1, format!("serve vm {name} baseline: {e}"));
                    None
                }
            }
        });
        if let Some(b) = base {
            ratios.push(cost(&o) as f64 / b as f64);
        }
    }
    geomean(&ratios)
}

/// Daemon-side readings: CPU, telemetry cost, and engine counters.
#[derive(Default)]
struct DaemonReading {
    cpu_ms: f64,
    record_us: f64,
    stats: Option<Json>,
}

fn read_daemon(d: &Daemon) -> DaemonReading {
    let health = d.ask("{\"op\":\"health\"}").ok();
    let stats = d.ask("{\"op\":\"stats\"}").ok();
    DaemonReading {
        cpu_ms: cpu_ms(d.pid()),
        record_us: health
            .as_ref()
            .and_then(|h| h.get("telemetry"))
            .and_then(|t| num(t, "record_us"))
            .unwrap_or(0.0),
        stats: stats.and_then(|s| s.get("stats").cloned()),
    }
}

/// A fresh directory for a store.
fn fresh_dir(cx: &Cx, what: &str) -> PathBuf {
    let n = cx.dirs.fetch_add(1, SeqCst);
    let dir = cx.scratch.join(format!("{what}-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Daemons spawned for set-up before the wire loop, and as many again after
/// it, so that the median covers the host's speed over the whole run.
const SETUP_REPS: usize = 11;

/// Spawns the daemon `reps` times on fresh stores, adding each
/// spawn-to-first-ping time to `times`; returns the last one and shuts the
/// others down.
fn setup(cx: &Cx, reps: usize, times: &mut Vec<f64>, out: &mut Outcome) -> Option<Daemon> {
    let mut last = None;
    for _ in 0..reps {
        match Daemon::spawn(cx, &fresh_dir(cx, "store")) {
            Ok((d, took)) => {
                times.push(took.as_secs_f64());
                if let Some(Err(e)) = last.replace(d).map(Daemon::shutdown) {
                    out.fail(0, e);
                }
            }
            Err(e) => {
                out.fail(1, format!("serve setup: {e}"));
                return None;
            }
        }
    }
    last
}

/// The wire run plus everything read from the daemon around it.
struct WireRun {
    records: Vec<Record>,
    wall: Duration,
    before: DaemonReading,
    after: DaemonReading,
    peak_rss_mb: f64,
    ping_ms: Vec<f64>,
    hit_ms: Vec<f64>,
}

fn drive(cx: &Cx, daemon: Daemon, budget: Duration, pings: usize, out: &mut Outcome) -> WireRun {
    let before = read_daemon(&daemon);
    let (records, wall, rss_at) = wire(cx, &daemon, budget);
    let after = read_daemon(&daemon);
    let mut ping_ms = Vec::new();
    let mut hit_ms: Vec<f64> = records
        .iter()
        .filter(|r| {
            r.reply
                .as_ref()
                .is_ok_and(|t| t.contains("\"cached\":true"))
        })
        .map(|r| r.latency_ms)
        .collect();
    if let Ok(mut conn) = Conn::open(daemon.port) {
        for _ in 0..pings {
            let t0 = Instant::now();
            if conn.call("{\"op\":\"ping\"}").is_ok() {
                ping_ms.push(ms(t0.elapsed()));
            }
        }
    }
    // A run with no store hit yet (a one-request fast run) re-sends its
    // first request, which the store now holds.
    if hit_ms.is_empty() {
        if let (Some(first), Ok(mut conn)) = (records.first(), Conn::open(daemon.port)) {
            let t0 = Instant::now();
            let reply = conn.call(&first.req.line(cx.seed));
            hit_ms.push(ms(t0.elapsed()));
            if !reply.is_ok_and(|t| t.contains("\"cached\":true")) {
                out.fail(1, "serve: a repeated request was not a store hit");
            }
        }
    }
    let peak = rss_at.unwrap_or_else(|| peak_rss_mb(daemon.pid()));
    if let Err(e) = daemon.shutdown() {
        out.fail(0, e);
    }
    WireRun {
        records,
        wall,
        before,
        after,
        peak_rss_mb: peak,
        ping_ms,
        hit_ms,
    }
}

pub fn measure(cx: &Cx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let Some(daemon) = setup(cx, SETUP_REPS, &mut setups, &mut out) else {
        return out;
    };
    let w = drive(cx, daemon, cx.budget(), 0, &mut out);
    if let Some(Err(e)) = setup(cx, SETUP_REPS, &mut setups, &mut out).map(Daemon::shutdown) {
        out.fail(0, e);
    }
    let (refs, _) = check(cx, &w.records, &mut Tracer::off(), &mut out);
    let vm_cost_ratio = run_programs(
        cx,
        &refs,
        &mut Tracer::off(),
        &mut Work::default(),
        &mut out,
    );

    let s = Summary::of(&setups);
    out.set_sampled("setup_s", s.median, s);
    let answered = w
        .records
        .iter()
        .filter(|r| r.reply.as_ref().is_ok_and(|t| t.contains("\"ok\":true")))
        .count();
    out.set("ops_per_s", answered as f64 / w.wall.as_secs_f64());
    crate::set_latencies(
        &mut out,
        &w.records.iter().map(|r| r.latency_ms).collect::<Vec<_>>(),
    );
    out.set(
        "cpu_ms_per_op",
        (w.after.cpu_ms - w.before.cpu_ms) / w.records.len().max(1) as f64,
    );
    out.set("peak_rss_mb", w.peak_rss_mb);
    out.set_ok_share();
    let sizes: Vec<f64> = refs
        .values()
        .map(|r| r.compiled.optimized_size as f64 / r.compiled.baseline_size as f64)
        .collect();
    out.set("code_size_ratio", geomean(&sizes));
    out.set("vm_cost_ratio", vm_cost_ratio);
    out
}

/// Replays `requests` against an in-process engine with the daemon's
/// configuration (fresh store, `nproc` workers, `nproc` callers): each
/// request is one op, `lookup_stored` its `store` span and, on a miss,
/// `submit`→`wait` its `engine` span.
fn replay(cx: &Cx, requests: &[Request], traced: bool, tid: u32) -> (Vec<Span>, Duration, u64) {
    let engine = Engine::new(EngineConfig {
        store: Some(fresh_dir(cx, "replay")),
        ..EngineConfig::with_workers(cx.nproc)
    });
    let next = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let start = Instant::now();
    let tracers: Vec<Tracer> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..cx.nproc as u32)
            .map(|k| {
                let (engine, next, failed) = (&engine, &next, &failed);
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, cx.epoch, tid + k);
                    loop {
                        let i = next.fetch_add(1, SeqCst);
                        let Some(req) = requests.get(i) else {
                            return tr;
                        };
                        let job = Job::new(
                            req.source(cx.seed),
                            PipelineConfig::with_threshold(req.threshold),
                        );
                        tr.op(i as u64, "op", |tr| {
                            if tr.span("store", |_| engine.lookup_stored(&job)).is_none() {
                                let result = tr.span("engine", |_| engine.submit(job).wait());
                                if !result.is_ok_and(|o| !o.health.degraded()) {
                                    failed.fetch_add(1, SeqCst);
                                }
                            }
                        });
                    }
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("replay callers do not panic"))
            .collect()
    });
    let wall = start.elapsed();
    (Tracer::merge(tracers), wall, failed.load(SeqCst) as u64)
}

/// The traced run: the wire run for a third of the budget and a burst of
/// pings, then the same request sequence replayed in-process (untraced,
/// traced, untraced), then the reference compiles decomposed into layer
/// calls.
pub fn traced(cx: &Cx, budget: Duration, tid: u32) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    let daemon = match Daemon::spawn(cx, &fresh_dir(cx, "store")) {
        Ok((d, _)) => d,
        Err(e) => {
            out.fail(1, format!("serve setup: {e}"));
            return (out, Vec::new());
        }
    };
    let pings = if cx.fast { 2 } else { 20 };
    let w = drive(cx, daemon, budget / 3, pings, &mut out);
    let requests: Vec<Request> = w.records.iter().map(|r| r.req).collect();

    // Untraced replays on both sides of the traced one, so that warm-up
    // falls on neither side of the comparison alone.
    let (_, before, failed_before) = replay(cx, &requests, false, tid);
    let (mut spans, traced_wall, failed_traced) = replay(cx, &requests, true, tid);
    let (_, after, failed_after) = replay(cx, &requests, false, tid);
    let untraced_wall = (before + after) / 2;
    let failed = failed_before + failed_traced + failed_after;
    if failed > 0 {
        out.fail(failed, "serve replay: engine job failed or degraded");
    }
    let ledger = Ledger::of(&spans);
    crate::check_ledger(&ledger, "serve", &mut out);
    let mean_span_ms =
        |name: &str| ledger.ms(name) / ledger.calls.get(name).copied().unwrap_or(0).max(1) as f64;
    out.set("store.read_ms", mean_span_ms("store"));
    out.set("engine.job_ms", mean_span_ms("engine"));
    out.set(
        "trace.overhead_share",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
    );

    let lat: Vec<f64> = w.records.iter().map(|r| r.latency_ms).collect();
    let mean_wire = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    out.set(
        "serve.self_ms",
        mean_wire - ledger.op_wall_ns as f64 / 1e6 / ledger.ops.max(1) as f64,
    );
    out.set("serve.ping_rtt_ms", Summary::of(&w.ping_ms).median);
    let misses: Vec<f64> = w
        .records
        .iter()
        .filter(|r| {
            r.reply
                .as_ref()
                .is_ok_and(|t| t.contains("\"cached\":false"))
        })
        .map(|r| r.latency_ms)
        .collect();
    out.set("serve.hit_ms", Summary::of(&w.hit_ms).median);
    out.set("serve.miss_ms", Summary::of(&misses).median);
    let bytes: usize = w
        .records
        .iter()
        .map(|r| r.reply.as_ref().map_or(0, |t| t.len() + 1))
        .sum();
    out.set(
        "serve.response_bytes",
        bytes as f64 / w.records.len().max(1) as f64,
    );
    let jobs = w.records.len().max(1) as f64;
    out.set(
        "telemetry.record_us_per_op",
        (w.after.record_us - w.before.record_us) / jobs,
    );
    if let Some(s) = &w.after.stats {
        let get = |k: &str| num(s, k).unwrap_or(0.0) as u64;
        let delta = |k: &str| {
            get(k).saturating_sub(
                w.before
                    .stats
                    .as_ref()
                    .map_or(0.0, |b| num(b, k).unwrap_or(0.0)) as u64,
            )
        };
        let share = |hit: &str, miss: &str| ratio(delta(hit), delta(hit) + delta(miss));
        out.set("store.hit_ratio", share("store_hits", "store_misses"));
        out.set("store.writes", delta("store_writes") as f64 / jobs);
        out.set(
            "engine.analysis_hit_ratio",
            share("analysis_hits", "analysis_misses"),
        );
        out.set("engine.spec_hit_ratio", share("spec_hits", "spec_misses"));
    } else {
        out.fail(0, "serve: no stats from the daemon");
    }

    // The compile and VM layers, measured on the reference compiles.
    let mut tr = Tracer::new(true, cx.epoch, tid + 50);
    let (refs, optimize_ms) = check(cx, &w.records, &mut tr, &mut out);
    let mut work = Work::default();
    refs.values().for_each(|r| work.compiled(&r.compiled));
    run_programs(cx, &refs, &mut tr, &mut work, &mut out);
    let compile = Ledger::of(&tr.spans);
    crate::check_ledger(&compile, "serve reference compile", &mut out);
    let n = refs.len().max(1) as f64;
    out.set_layers(&compile, &work, n);
    out.set(
        "core.unattributed_ms",
        (optimize_ms - compile.compile_ms()) / n,
    );
    // The serve ledger's own row comes from the replayed requests.
    out.set(
        "ledger.unattributed_ms",
        ledger.ms("unattributed") / ledger.ops.max(1) as f64,
    );
    crate::trace::append(&mut spans, tr.spans);
    (out, spans)
}
