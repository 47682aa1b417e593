//! End-to-end and per-layer benchmark of the idaa federation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <olap_mix|oltp_rw|elt_pipeline> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop: one driver thread, one seat per CPU,
//! each statement waits for its reply before the next is sent. The
//! workload's inputs derive from `--seed` only. Lines starting with `#`
//! are the human-readable report (workload metrics with units and sample
//! counts, deterministic counts, per-layer detail); the last line is one
//! JSON object. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! runs half the time untraced (counters) and half with benchmark-side
//! spans around each layer call (timings), and reports per-layer metrics.
//! `perfbench/README.md` defines every metric.

mod elt;
mod olap;
mod oltp;
mod stats;
mod trace;

use idaa::accel::ExecMode;
use idaa::core::router;
use idaa::sql::plan::plan_query;
use idaa::sql::{parse_statement, AccelerationMode, InsertSource, Query, Statement};
use idaa::{
    ExecOutcome, Idaa, IdaaConfig, Route, Row, Schema, SeatId, Server, ServerConfig, Session,
    SYSADM,
};
use stats::{geomean, median, proc_status_mb, trimmed_mean};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{Counters, LogMeter, Tracer};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            "--setup-only" => setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// SplitMix64: the benchmark's only source of generated inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The federation under test, reached the way its clients reach it.
pub struct Env {
    pub server: Server,
    pub seats: Vec<SeatId>,
    /// One plain-facade session per seat: the traced run's `Idaa::execute`
    /// path, compared against `Server::execute` on the same class.
    pub direct: Vec<Session>,
    pub mode: AccelerationMode,
}

impl Env {
    /// Default configuration, one seat per CPU.
    pub fn new() -> Result<Env, String> {
        let server = Server::new(IdaaConfig::default(), ServerConfig::default());
        let seats = (0..nproc())
            .map(|_| server.connect(SYSADM).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let direct = seats
            .iter()
            .map(|_| server.idaa().session(SYSADM))
            .collect();
        Ok(Env {
            server,
            seats,
            direct,
            mode: AccelerationMode::None,
        })
    }

    pub fn idaa(&self) -> &Idaa {
        self.server.idaa()
    }

    /// A set-up statement on the first seat; an error fails the run.
    pub fn setup(&self, sql: &str) -> Result<ExecOutcome, String> {
        self.server
            .execute(self.seats[0], sql)
            .map_err(|e| format!("set-up `{}`: {e}", clip(sql)))
    }

    /// Set `CURRENT QUERY ACCELERATION` on every seat and direct session.
    pub fn set_mode(&mut self, mode: AccelerationMode) -> Result<(), String> {
        let sql = format!("SET CURRENT QUERY ACCELERATION = {mode}");
        for &seat in &self.seats {
            self.server
                .execute(seat, &sql)
                .map_err(|e| format!("{sql}: {e}"))?;
        }
        for s in &mut self.direct {
            self.server
                .idaa()
                .execute(s, &sql)
                .map_err(|e| format!("{sql}: {e}"))?;
        }
        self.mode = mode;
        Ok(())
    }

    /// Insert `rows` rendered SQL tuples into `table`, 1000 per statement.
    pub fn insert_batched(
        &self,
        table: &str,
        rows: impl Iterator<Item = String>,
    ) -> Result<(), String> {
        let mut batch = Vec::with_capacity(1000);
        for r in rows {
            batch.push(r);
            if batch.len() == 1000 {
                self.setup(&format!("INSERT INTO {table} VALUES {}", batch.join(", ")))?;
                batch.clear();
            }
        }
        if !batch.is_empty() {
            self.setup(&format!("INSERT INTO {table} VALUES {}", batch.join(", ")))?;
        }
        Ok(())
    }
}

fn clip(sql: &str) -> String {
    if sql.chars().count() > 120 {
        format!("{}…", sql.chars().take(120).collect::<String>())
    } else {
        sql.to_string()
    }
}

/// Per-run measurements and outcome bookkeeping.
pub struct Ctx {
    pub classes: &'static [&'static str],
    /// End-to-end latency (ms) per class, untraced.
    pub lat: Vec<Vec<f64>>,
    /// End-to-end latency (ms) per class in the traced phase, through the
    /// same entry point as `lat` (`Server`, or the loader).
    pub traced_lat: Vec<Vec<f64>>,
    /// Completed units of work (statements; pipeline iterations on
    /// `elt_pipeline`).
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
    pub rows_returned: u64,
    pub tracer: Option<Tracer>,
    pub log: Option<LogMeter>,
    /// Per-statement residuals that came out negative (flagged, kept).
    pub negative: Vec<(String, f64)>,
}

impl Ctx {
    pub fn new(classes: &'static [&'static str]) -> Ctx {
        Ctx {
            classes,
            lat: vec![Vec::new(); classes.len()],
            traced_lat: vec![Vec::new(); classes.len()],
            ops: 0,
            attempted: 0,
            failed: 0,
            wrong: 0,
            notes: Vec::new(),
            rows_returned: 0,
            tracer: None,
            log: None,
            negative: Vec::new(),
        }
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 20 {
            self.notes.push(msg);
        }
    }

    /// Record an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            let msg = what();
            self.note(format!("wrong answer: {msg}"));
        }
    }

    fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        self.failed += 1;
        self.note(format!("failed: {} -> {err}", clip(what)));
    }

    fn record(&mut self, class: usize, ms: f64) {
        if self.tracer.is_some() {
            self.traced_lat[class].push(ms);
        } else {
            self.lat[class].push(ms);
        }
    }

    /// Time one non-SQL operation (the loader) as an end-to-end sample of
    /// `class`; in the traced phase it is also the span `name`.
    pub fn op<T, E: std::fmt::Display>(
        &mut self,
        class: usize,
        name: &'static str,
        what: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        let cls = self.classes[class];
        let t = Instant::now();
        let out = match &mut self.tracer {
            Some(tr) => {
                tr.begin_stmt(cls);
                let out = tr.span(name, cls, f);
                tr.end_stmt();
                out
            }
            None => f(),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match out {
            Ok(v) => {
                self.record(class, ms);
                Some(v)
            }
            Err(e) => {
                self.fail(what, e);
                None
            }
        }
    }

    /// Run one SQL statement on `seat` as a sample of `class`.
    ///
    /// Untraced: `Server::execute`, timed. Traced: see [`traced_sql`].
    pub fn sql(
        &mut self,
        env: &mut Env,
        seat: usize,
        class: usize,
        sql: &str,
    ) -> Option<ExecOutcome> {
        self.attempted += 1;
        let log_before = self
            .log
            .as_ref()
            .map(|_| Counters::read_durable(env.idaa()));
        let (result, ms) = match self.tracer.take() {
            None => {
                let t = Instant::now();
                let r = env.server.execute(env.seats[seat], sql);
                (r, t.elapsed().as_secs_f64() * 1e3)
            }
            Some(mut tr) => {
                let out = traced_sql(
                    &mut tr,
                    env,
                    seat,
                    self.classes[class],
                    sql,
                    &mut self.negative,
                );
                self.tracer = Some(tr);
                match out {
                    (r, Some(ms)) => (r, ms),
                    (r, None) => {
                        // Direct-facade turn: not an end-to-end sample of
                        // the `Server` path.
                        return self.settle(sql, r);
                    }
                }
            }
        };
        if let (Some(before), Some(meter)) = (log_before, self.log.as_mut()) {
            meter.observe(&before, &Counters::read_durable(env.idaa()));
        }
        if result.is_ok() {
            self.record(class, ms);
        }
        self.settle(sql, result)
    }

    fn settle(&mut self, sql: &str, result: idaa::Result<ExecOutcome>) -> Option<ExecOutcome> {
        match result {
            Ok(out) => {
                self.rows_returned += out.rows().map(|r| r.len() as u64).unwrap_or(0);
                Some(out)
            }
            Err(e) => {
                self.fail(sql, e);
                None
            }
        }
    }
}

/// The traced path of [`Ctx::sql`]. A read runs through both `Server` and
/// `Idaa` (which one first alternates per class); a write, which cannot
/// run twice, alternates between them. Returns the statement's result
/// and, when `Server` ran it, its end-to-end time in ms.
fn traced_sql(
    tr: &mut Tracer,
    env: &mut Env,
    seat: usize,
    cls: &'static str,
    sql: &str,
    negative: &mut Vec<(String, f64)>,
) -> (idaa::Result<ExecOutcome>, Option<f64>) {
    let stmt_id = tr.begin_stmt(cls);
    let parsed = tr.span("sql.parse", cls, || parse_statement(sql));
    let (query, is_read) = match &parsed {
        Ok(Statement::Query(q)) => (Some(&**q), true),
        Ok(Statement::Insert {
            source: InsertSource::Query(q),
            ..
        }) => (Some(&**q), false),
        _ => (None, false),
    };
    let server_first = tr.server_turn(cls);
    let (result, ms) = match (is_read, server_first) {
        (true, true) => {
            let (r, ms) = via_server(tr, env, seat, cls, sql);
            let d = via_idaa(tr, env, seat, cls, sql);
            (r.and_then(|r| d.map(|_| r)), Some(ms))
        }
        (true, false) => {
            let d = via_idaa(tr, env, seat, cls, sql);
            let (r, ms) = via_server(tr, env, seat, cls, sql);
            (d.and(r), Some(ms))
        }
        (false, true) => {
            let (r, ms) = via_server(tr, env, seat, cls, sql);
            (r, Some(ms))
        }
        (false, false) => (via_idaa(tr, env, seat, cls, sql), None),
    };
    if let Some(q) = query {
        layer_calls(tr, env.server.idaa(), env.mode, cls, q);
    }
    tr.end_stmt();
    if is_read && result.is_ok() {
        if let Some(residual) = facade_residual(tr, stmt_id) {
            if residual < 0.0 {
                negative.push((format!("core.facade_us[{cls}]"), residual));
            }
        }
    }
    (result, ms)
}

fn via_server(
    tr: &mut Tracer,
    env: &mut Env,
    seat: usize,
    cls: &'static str,
    sql: &str,
) -> (idaa::Result<ExecOutcome>, f64) {
    let t = Instant::now();
    let r = tr.span("server.execute", cls, || {
        env.server.execute(env.seats[seat], sql)
    });
    (r, t.elapsed().as_secs_f64() * 1e3)
}

fn via_idaa(
    tr: &mut Tracer,
    env: &mut Env,
    seat: usize,
    cls: &'static str,
    sql: &str,
) -> idaa::Result<ExecOutcome> {
    let idaa = env.server.idaa();
    let session = &mut env.direct[seat];
    tr.span("idaa.execute", cls, || idaa.execute(session, sql))
}

/// Layer spans subtracted from a statement's `Idaa::execute` time.
const LAYER_SPANS: [&str; 5] = [
    "sql.parse",
    "core.route",
    "sql.plan",
    "accel.exec",
    "host.exec",
];

/// `Idaa::execute` time of statement `stmt` minus its parse, route, plan
/// and engine spans (µs), when it ran through `Idaa` and carried a query.
fn facade_residual(tr: &Tracer, stmt: u64) -> Option<f64> {
    let e2e = tr.in_stmt(stmt, "idaa.execute")?;
    tr.in_stmt(stmt, "sql.plan")?;
    Some(
        e2e - LAYER_SPANS
            .iter()
            .filter_map(|n| tr.in_stmt(stmt, n))
            .sum::<f64>(),
    )
}

/// Route, plan and execute `q` (for `INSERT … SELECT`, its source query)
/// directly against the layers, each in its own span.
fn layer_calls(tr: &mut Tracer, idaa: &Idaa, mode: AccelerationMode, cls: &'static str, q: &Query) {
    let host = idaa.host();
    let Ok(host_plan) = plan_query(q, host) else {
        return;
    };
    let tables: Vec<_> = host_plan
        .tables()
        .iter()
        .map(|t| t.resolve(idaa.default_schema()))
        .collect();
    let route = tr.span("core.route", cls, || {
        let mut mix = router::classify(host, &tables)?;
        mix.indexed_point = router::is_indexed_point(host, &host_plan);
        router::route_query_with_reason(&mix, mode).map(|(r, _)| r)
    });
    let on_accel = matches!(route, Ok(Route::Accelerator));
    let _ = tr.span("sql.plan", cls, || {
        if on_accel {
            plan_query(q, idaa.accel())
        } else {
            plan_query(q, host)
        }
    });
    if on_accel {
        let _ = tr.span("accel.exec", cls, || {
            idaa.accel().query_with_mode(0, q, ExecMode::Vectorized)
        });
    } else {
        let txn = host.begin();
        let _ = tr.span("host.exec", cls, || host.query(SYSADM, txn, q));
        host.commit(txn);
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
    /// Samples behind the value (0 for counts over the whole window).
    pub n: usize,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(
        &mut self,
        name: impl Into<String>,
        value: Option<f64>,
        unit: &'static str,
        n: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    fn print(&self, prefix: &str) {
        for m in &self.metrics {
            match m.value {
                Some(v) => println!("# {prefix} {} = {v:.6} {} (n={})", m.name, m.unit, m.n),
                None => println!(
                    "# {prefix} {} = n/a {} (n={}, too few samples)",
                    m.name, m.unit, m.n
                ),
            }
        }
    }
}

/// Median of `v` as a metric (ms samples).
pub fn p50(r: &mut Report, name: &str, v: &[f64], unit: &'static str) {
    r.add(name, median(v), unit, v.len());
}

/// What a workload supplies to the runner.
pub trait Workload: Sized {
    /// Statement classes; `Ctx::lat` is indexed by position.
    const CLASSES: &'static [&'static str];
    /// How many times set-up runs; `setup_s` is the median.
    const SETUP_REPS: usize;

    /// Seed, accelerate and deploy everything the workload needs.
    fn setup(seed: u64) -> Result<Self, String>;
    fn env(&self) -> &Env;
    /// A fixed, seed-determined statement sequence run on every set-up
    /// copy before timing: it warms caches and its counter deltas must
    /// repeat exactly.
    fn prefix(&mut self, ctx: &mut Ctx);
    /// Compute the expected answers (once, on the copy that is measured).
    fn prepare_checks(&mut self) -> Result<(), String>;
    /// One unit of work.
    fn step(&mut self, ctx: &mut Ctx);
    /// End-of-run output checks (untimed).
    fn finish(&mut self, ctx: &mut Ctx);
    /// Rows of the size the workload moves over the wire, for the codec probe.
    fn wire_sample(&self) -> (Schema, Vec<Row>);
    /// The workload's own end-to-end metrics (report lines).
    fn e2e(&self, ctx: &Ctx, r: &mut Report);
    /// Workload-specific per-layer metrics (traced run, report lines);
    /// `c` holds the counters of the untraced half.
    fn layers(&mut self, ctx: &mut Ctx, c: &Counters, r: &mut Report);
}

/// Names of the end-to-end metrics (the JSON of `--trace 0`), in order.
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("mix_tmean_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("link_bytes_per_op", "B"),
];

/// Names of the per-layer metrics (the JSON of `--trace 1`), in order.
const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("core.route_us", "us"),
    ("core.facade_us", "us"),
    ("server.overhead_us", "us"),
    ("server.rounds_per_stmt", "count"),
    ("server.queue_virt_us", "virt_us"),
    ("link.bytes_to_accel_per_op", "B"),
    ("link.bytes_to_host_per_op", "B"),
    ("link.msgs_per_op", "count"),
    ("link.wire_virt_us_per_op", "virt_us"),
    ("link.failures", "count"),
    ("wire.encode_us_per_krow", "us"),
    ("wire.decode_us_per_krow", "us"),
    ("wire.compression_ratio", "ratio"),
    ("accel.plan_cache_hit_ratio", "ratio"),
    ("accel.rows_scanned_per_row_returned", "ratio"),
    ("accel.blocks_pruned_ratio", "ratio"),
    ("host.rows_examined_per_op", "count"),
    ("host.index_lookups_per_op", "count"),
    ("durable.log_records_per_op", "count"),
    ("durable.log_bytes_per_user_byte", "ratio"),
    ("durable.checkpoints", "count"),
    ("durable.checkpoint_us", "us"),
    ("mem.rss_growth_mb_per_op", "MB"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unaccounted_pct", "%"),
];

/// One set-up plus the fixed prefix: its time, the prefix's deterministic
/// counts, and the prefix's outcome bookkeeping.
fn set_up<W: Workload>(seed: u64) -> Result<(W, f64, String, Ctx), String> {
    let t = Instant::now();
    let mut w = W::setup(seed)?;
    let secs = t.elapsed().as_secs_f64();
    let before = Counters::read(w.env().idaa());
    let mut pctx = Ctx::new(W::CLASSES);
    w.prefix(&mut pctx);
    let print = Counters::read(w.env().idaa()).since(&before).fingerprint();
    Ok((w, secs, print, pctx))
}

/// `--setup-only 1`: one set-up in a process of its own, reported as
/// `setup <seconds> <attempted> <failed> <wrong> <prefix counts>`.
fn setup_only<W: Workload>(args: &Args) -> Result<(), String> {
    let (_, secs, print, pctx) = set_up::<W>(args.seed)?;
    println!(
        "setup {secs} {} {} {} {print}",
        pctx.attempted, pctx.failed, pctx.wrong
    );
    Ok(())
}

/// Run [`setup_only`] in a child process and wait for it.
fn setup_in_child(args: &Args) -> Result<(f64, String, [u64; 3]), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--setup-only",
            "1",
        ])
        .output()
        .map_err(|e| format!("spawn set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("setup "))
        .filter(|_| out.status.success());
    let line = line.ok_or_else(|| {
        format!(
            "set-up process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let mut f = line.splitn(5, ' ');
    let mut num = || {
        f.next()
            .and_then(|x| x.parse::<f64>().ok())
            .ok_or_else(|| format!("bad set-up line: {line}"))
    };
    let secs = num()?;
    let counts = [num()? as u64, num()? as u64, num()? as u64];
    let print = f
        .next()
        .ok_or_else(|| format!("bad set-up line: {line}"))?
        .to_string();
    Ok((secs, print, counts))
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    if args.setup_only {
        return setup_only::<W>(args);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} seats={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        nproc()
    );
    let mut ctx = Ctx::new(W::CLASSES);

    // Set-up runs SETUP_REPS times and setup_s is the median. All but the
    // last run in child processes, so the measured process holds exactly
    // one set-up and its peak memory is that of one system. Each copy runs
    // the fixed prefix; its deterministic counts must agree across copies.
    let mut setup_s = Vec::new();
    let mut prints: Vec<String> = Vec::new();
    for _ in 1..W::SETUP_REPS {
        let (secs, print, [attempted, failed, wrong]) = setup_in_child(args)?;
        setup_s.push(secs);
        prints.push(print);
        ctx.attempted += attempted;
        ctx.failed += failed;
        ctx.wrong += wrong;
    }
    let (mut w, secs, print, pctx) = set_up::<W>(args.seed)?;
    setup_s.push(secs);
    prints.push(print);
    ctx.attempted += pctx.attempted;
    ctx.failed += pctx.failed;
    ctx.wrong += pctx.wrong;
    ctx.notes.extend(pctx.notes);
    w.prepare_checks()?;
    println!("# setup_s samples: {setup_s:?}");
    println!("# deterministic counts of the prefix: {}", prints[0]);
    let same = prints.iter().all(|p| p == &prints[0]);
    println!(
        "# deterministic counts identical on all {} set-ups: {same}",
        prints.len()
    );
    ctx.check(same, || {
        format!("prefix counts differ across set-ups: {prints:?}")
    });

    // Measured window. In the traced run the first half is untraced and
    // yields the counters; the second half yields the spans.
    let total = Duration::from_secs_f64(args.seconds);
    let plain = if args.trace { total / 2 } else { total };
    let rss0 = proc_status_mb("VmRSS")?;
    let c0 = Counters::read(w.env().idaa());
    if args.trace {
        ctx.log = Some(LogMeter::default());
    }
    let t0 = Instant::now();
    while t0.elapsed() < plain {
        w.step(&mut ctx);
    }
    let window = t0.elapsed();
    let counts = Counters::read(w.env().idaa()).since(&c0);
    let ops = ctx.ops;
    let rows_returned = ctx.rows_returned;
    let rss1 = proc_status_mb("VmRSS")?;
    let log = ctx.log.take();
    if args.trace {
        ctx.tracer = Some(Tracer::default());
        while t0.elapsed() < total {
            w.step(&mut ctx);
        }
    }
    w.finish(&mut ctx);
    if ops == 0 {
        return Err("no unit of work completed in the measured window".into());
    }

    let mut own = Report::default();
    w.e2e(&ctx, &mut own);
    // Each class's latency as the mean of its middle 80%: unlike the
    // median it does not jump when the median sits between two modes
    // (reads right after an update's heap scan run on a cold cache), and
    // unlike the mean it ignores the rare stalls.
    let class_tmeans: Vec<f64> = ctx
        .lat
        .iter()
        .filter_map(|v| trimmed_mean(v, 0.1))
        .collect();
    let mut e2e = Report::default();
    e2e.add("setup_s", median(&setup_s), "s", setup_s.len());
    e2e.add(
        "throughput_ops_s",
        Some(ops as f64 / window.as_secs_f64()),
        "1/s",
        ops as usize,
    );
    e2e.add(
        "mix_tmean_ms",
        if class_tmeans.len() == W::CLASSES.len() {
            geomean(&class_tmeans)
        } else {
            None
        },
        "ms",
        ctx.lat.iter().map(Vec::len).sum(),
    );
    e2e.add("peak_rss_mb", Some(proc_status_mb("VmHWM")?), "MB", 1);
    e2e.add(
        "link_bytes_per_op",
        Some(counts.link.total_bytes() as f64 / ops as f64),
        "B",
        ops as usize,
    );
    e2e.add(
        "error_rate",
        Some(ctx.failed as f64 / ctx.attempted.max(1) as f64),
        "ratio",
        ctx.attempted as usize,
    );
    e2e.print("e2e");
    own.print("e2e");

    let metrics = if args.trace {
        let mut layer = Report::default();
        let half = Untraced {
            counts,
            log: log.unwrap_or_default(),
            ops,
            rows_returned,
            rss_growth_mb: rss1 - rss0,
        };
        common_layers(&mut w, &mut ctx, &half, &mut layer);
        w.layers(&mut ctx, &half.counts, &mut layer);
        layer.print("layer");
        for (what, v) in &ctx.negative {
            println!("# FLAG negative residual {what} = {v:.3} us");
        }
        let tr = ctx.tracer.as_ref().expect("traced phase ran");
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        std::fs::write(&path, tr.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# {} spans written to {}", tr.spans.len(), path.display());
        PER_LAYER
            .iter()
            .map(|(n, u)| (n, u, layer.get(n)))
            .collect::<Vec<_>>()
    } else {
        E2E.iter()
            .map(|(n, u)| (n, u, e2e.get(n)))
            .collect::<Vec<_>>()
    };
    for note in &ctx.notes {
        println!("# {note}");
    }

    let mut json = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let v = value
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} has no value"))?;
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        ctx.wrong == 0,
        ctx.attempted,
        ctx.failed
    );
    Ok(())
}

/// Time `f` over `reps` calls; median µs per call.
pub fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&v).expect("reps >= 1")
}

/// What the untraced half of a traced run measured.
struct Untraced {
    counts: Counters,
    log: LogMeter,
    ops: u64,
    rows_returned: u64,
    rss_growth_mb: f64,
}

/// The per-layer metrics every workload reports.
fn common_layers<W: Workload>(w: &mut W, ctx: &mut Ctx, half: &Untraced, r: &mut Report) {
    let (c, log, ops) = (&half.counts, &half.log, half.ops);
    let tr = ctx.tracer.take().expect("traced phase ran");
    let all = |name: &str| tr.self_times(name, None);
    for (metric, span) in [
        ("sql.parse_us", "sql.parse"),
        ("sql.plan_us", "sql.plan"),
        ("core.route_us", "core.route"),
    ] {
        let v = all(span);
        r.add(metric, median(&v), "us", v.len());
    }

    // Reads ran through both entry points: the facade residual and the
    // server overhead are per-statement differences, kept signed.
    let mut facade = Vec::new();
    let mut overhead = Vec::new();
    let (mut e2e_sum, mut unaccounted_sum, mut with_query) = (0.0, 0.0, 0);
    for s in tr.spans.iter().filter(|s| s.name == "idaa.execute") {
        let Some(residual) = facade_residual(&tr, s.stmt) else {
            continue;
        };
        with_query += 1;
        e2e_sum += s.us();
        unaccounted_sum += residual;
        if let Some(server) = tr.in_stmt(s.stmt, "server.execute") {
            facade.push(residual);
            overhead.push(server - s.us());
        }
    }
    let facade_p50 = median(&facade);
    if let Some(v) = facade_p50.filter(|v| *v < 0.0) {
        ctx.negative.push(("core.facade_us (median)".into(), v));
    }
    r.add("core.facade_us", facade_p50, "us", facade.len());
    r.add(
        "server.overhead_us",
        median(&overhead),
        "us",
        overhead.len(),
    );
    let stmts = c.server_statements.max(1) as f64;
    r.add(
        "server.rounds_per_stmt",
        Some(c.server_rounds as f64 / stmts),
        "count",
        c.server_statements as usize,
    );
    r.add(
        "server.queue_virt_us",
        Some(c.queue_us as f64 / stmts),
        "virt_us",
        c.server_statements as usize,
    );

    let per_op = |x: u64| Some(x as f64 / ops as f64);
    let n = ops as usize;
    r.add(
        "link.bytes_to_accel_per_op",
        per_op(c.link.bytes_to_accel),
        "B",
        n,
    );
    r.add(
        "link.bytes_to_host_per_op",
        per_op(c.link.bytes_to_host),
        "B",
        n,
    );
    r.add(
        "link.msgs_per_op",
        per_op(c.link.total_messages()),
        "count",
        n,
    );
    r.add(
        "link.wire_virt_us_per_op",
        Some(c.link.wire_time.as_secs_f64() * 1e6 / ops as f64),
        "virt_us",
        n,
    );
    r.add("link.failures", Some(c.link.failures as f64), "count", n);

    let (schema, rows) = w.wire_sample();
    let krows = rows.len() as f64 / 1000.0;
    let frames = idaa::common::wire::encode_frames(&schema, &rows);
    let enc = time_us(20, || idaa::common::wire::encode_frames(&schema, &rows));
    let dec = time_us(20, || {
        frames
            .iter()
            .map(|f| idaa::common::wire::decode_rows(f, &schema).map(|r| r.len()))
            .sum::<idaa::Result<usize>>()
    });
    let decoded: usize = frames
        .iter()
        .map(|f| {
            idaa::common::wire::decode_rows(f, &schema)
                .map(|r| r.len())
                .unwrap_or(0)
        })
        .sum();
    ctx.check(decoded == rows.len(), || {
        format!("wire probe decoded {decoded} of {} rows", rows.len())
    });
    r.add("wire.encode_us_per_krow", Some(enc / krows), "us", 20);
    r.add("wire.decode_us_per_krow", Some(dec / krows), "us", 20);
    let wire = c.link.total_bytes().max(1) as f64;
    r.add(
        "wire.compression_ratio",
        Some(c.link.total_logical_bytes() as f64 / wire),
        "ratio",
        n,
    );

    let lookups = c.plan_cache_hits + c.plan_cache_misses;
    let ratio = |a: u64, b: u64| Some(if b == 0 { 0.0 } else { a as f64 / b as f64 });
    r.add(
        "accel.plan_cache_hit_ratio",
        ratio(c.plan_cache_hits, lookups),
        "ratio",
        lookups as usize,
    );
    let rows_returned = half.rows_returned;
    r.add(
        "accel.rows_scanned_per_row_returned",
        ratio(c.accel_rows_scanned, rows_returned),
        "ratio",
        rows_returned as usize,
    );
    r.add(
        "accel.blocks_pruned_ratio",
        ratio(c.accel_blocks_pruned, c.accel_blocks_scanned),
        "ratio",
        c.accel_blocks_scanned as usize,
    );
    r.add(
        "host.rows_examined_per_op",
        per_op(c.host_rows_scanned),
        "count",
        n,
    );
    r.add(
        "host.index_lookups_per_op",
        per_op(c.host_index_lookups),
        "count",
        n,
    );
    r.add("durable.log_records_per_op", per_op(c.last_lsn), "count", n);
    r.add(
        "durable.log_bytes_per_user_byte",
        ratio(log.appended, c.link.logical_bytes_to_accel),
        "ratio",
        log.skipped as usize,
    );
    r.add(
        "durable.checkpoints",
        Some(c.checkpoints as f64),
        "count",
        n,
    );
    let idaa = w.env().idaa();
    let t = Instant::now();
    let ck = idaa.accel().checkpoint(idaa.link().now());
    let ck_us = t.elapsed().as_secs_f64() * 1e6;
    ctx.check(ck.is_ok(), || format!("checkpoint failed: {ck:?}"));
    r.add("durable.checkpoint_us", Some(ck_us), "us", 1);
    r.add(
        "mem.rss_growth_mb_per_op",
        Some(half.rss_growth_mb / ops as f64),
        "MB",
        n,
    );

    // Trace overhead: traced-phase vs untraced end-to-end class medians.
    let ratios: Vec<f64> = ctx
        .lat
        .iter()
        .zip(&ctx.traced_lat)
        .filter_map(|(u, t)| Some(median(t)? / median(u)?))
        .collect();
    r.add(
        "bench.trace_overhead_pct",
        geomean(&ratios).map(|g| (g - 1.0) * 100.0),
        "%",
        ratios.len(),
    );
    r.add(
        "bench.unaccounted_pct",
        (e2e_sum > 0.0).then(|| 100.0 * unaccounted_sum / e2e_sum),
        "%",
        with_query,
    );
    ctx.tracer = Some(tr);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <olap_mix|oltp_rw|elt_pipeline> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "olap_mix" => run::<olap::OlapMix>(&args),
        "oltp_rw" => run::<oltp::OltpRw>(&args),
        "elt_pipeline" => run::<elt::EltPipeline>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Result rows equal, doubles to a relative 1e-9 (summation order may
/// differ between execution paths).
pub fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(u, v)| match (u, v) {
                    (idaa::Value::Double(p), idaa::Value::Double(q)) => {
                        (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0)
                    }
                    _ => u == v,
                })
        })
}
