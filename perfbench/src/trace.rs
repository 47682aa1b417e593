//! Benchmark-side spans and counter snapshots for the traced run.
//!
//! Spans wrap calls the benchmark makes into each layer's public
//! functions; nothing inside the program is instrumented. Every span of
//! one statement shares its statement id. Spans stay in memory and are
//! written out once, when the run ends.

use idaa::core::Idaa;
use idaa::LinkMetrics;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    /// Statement class of the statement the span belongs to.
    pub class: &'static str,
    pub stmt: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    stmt: u64,
    turns: HashMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            stmt: 0,
            turns: HashMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Alternates per class between `true` (run through `Server`) and
    /// `false` (run through `Idaa` directly), starting with `true`.
    pub fn server_turn(&mut self, class: &'static str) -> bool {
        let n = self.turns.entry(class).or_insert(0);
        *n += 1;
        *n % 2 == 1
    }

    /// Open the root span of a new statement; returns its id.
    pub fn begin_stmt(&mut self, class: &'static str) -> u64 {
        self.stmt += 1;
        self.open("stmt", class);
        self.stmt
    }

    pub fn end_stmt(&mut self) {
        self.close();
    }

    fn open(&mut self, name: &'static str, class: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            class,
            stmt: self.stmt,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn close(&mut self) {
        let i = self
            .stack
            .pop()
            .expect("span stack underflow: close without open");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, class: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name, class);
        let out = f();
        self.close();
        out
    }

    /// Self time (µs) of every span: its duration minus the part of it
    /// that its child spans cover.
    fn self_us(&self) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e3)
            .collect()
    }

    /// Self times (µs) of every span named `name`, optionally of one class.
    pub fn self_times(&self, name: &str, class: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_us())
            .filter(|(s, _)| s.name == name && class.is_none_or(|c| s.class == c))
            .map(|(_, us)| us)
            .collect()
    }

    /// Duration (µs) of the span named `name` within statement `stmt`.
    pub fn in_stmt(&self, stmt: u64, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.stmt == stmt && s.name == name)
            .map(Span::us)
    }

    /// Tab-separated dump: one span per line.
    pub fn render(&self) -> String {
        let mut out = String::from("span\tparent\tstmt\tname\tclass\tstart_ns\tend_ns\tself_us\n");
        for (i, (s, self_us)) in self.spans.iter().zip(self.self_us()).enumerate() {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{:.3}",
                s.stmt, s.name, s.class, s.start_ns, s.end_ns, self_us
            );
        }
        out
    }
}

/// The program's public counters at one instant.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub link: LinkMetrics,
    pub accel_rows_scanned: u64,
    pub accel_blocks_scanned: u64,
    pub accel_blocks_pruned: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub host_rows_scanned: u64,
    pub host_index_lookups: u64,
    pub host_rows_changed: u64,
    pub last_lsn: u64,
    pub log_bytes: u64,
    pub last_checkpoint_at: Option<Duration>,
    pub checkpoints: u64,
    pub server_rounds: u64,
    pub server_statements: u64,
    pub queue_us: u64,
}

impl Counters {
    pub fn read(idaa: &Idaa) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let a = &idaa.accel().stats;
        let h = &idaa.host().stats;
        let d = idaa.accel().durable();
        let m = idaa.metrics().snapshot();
        let queue_us = m
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("server.session.") && k.ends_with(".queue_time_us"))
            .map(|(_, v)| *v)
            .sum();
        Counters {
            link: idaa.fleet_link_metrics(),
            accel_rows_scanned: a.rows_scanned.load(Relaxed),
            accel_blocks_scanned: a.blocks_scanned.load(Relaxed),
            accel_blocks_pruned: a.blocks_pruned.load(Relaxed),
            plan_cache_hits: a.plan_cache_hits.load(Relaxed),
            plan_cache_misses: a.plan_cache_misses.load(Relaxed),
            host_rows_scanned: h.rows_scanned.load(Relaxed),
            host_index_lookups: h.index_lookups.load(Relaxed),
            host_rows_changed: h.rows_inserted.load(Relaxed)
                + h.rows_updated.load(Relaxed)
                + h.rows_deleted.load(Relaxed),
            last_lsn: d.last_lsn(),
            log_bytes: d.log_bytes(),
            last_checkpoint_at: d.last_checkpoint_at(),
            checkpoints: m.counter("accel.checkpoints"),
            server_rounds: m.counter("server.rounds"),
            server_statements: m.counter("server.statements"),
            queue_us,
        }
    }

    /// Only the commit-log position (cheap enough to read per statement).
    pub fn read_durable(idaa: &Idaa) -> Counters {
        let d = idaa.accel().durable();
        Counters {
            last_lsn: d.last_lsn(),
            log_bytes: d.log_bytes(),
            last_checkpoint_at: d.last_checkpoint_at(),
            ..Counters::default()
        }
    }

    /// Counts accrued since `before`. Log bytes are not differenced here:
    /// checkpoints truncate the log, so appended bytes need per-statement
    /// reads (see `LogMeter`).
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            link: self.link.since(&before.link),
            accel_rows_scanned: self.accel_rows_scanned - before.accel_rows_scanned,
            accel_blocks_scanned: self.accel_blocks_scanned - before.accel_blocks_scanned,
            accel_blocks_pruned: self.accel_blocks_pruned - before.accel_blocks_pruned,
            plan_cache_hits: self.plan_cache_hits - before.plan_cache_hits,
            plan_cache_misses: self.plan_cache_misses - before.plan_cache_misses,
            host_rows_scanned: self.host_rows_scanned - before.host_rows_scanned,
            host_index_lookups: self.host_index_lookups - before.host_index_lookups,
            host_rows_changed: self.host_rows_changed - before.host_rows_changed,
            last_lsn: self.last_lsn - before.last_lsn,
            log_bytes: 0,
            last_checkpoint_at: None,
            checkpoints: self.checkpoints - before.checkpoints,
            server_rounds: self.server_rounds - before.server_rounds,
            server_statements: self.server_statements - before.server_statements,
            queue_us: self.queue_us - before.queue_us,
        }
    }

    /// The counts that must repeat exactly for a given seed and statement
    /// sequence, rendered for comparison and printing.
    pub fn fingerprint(&self) -> String {
        let l = &self.link;
        format!(
            "link_bytes_to_accel={} link_bytes_to_host={} link_msgs={} accel_rows_scanned={} \
             accel_blocks_pruned={} plan_cache_hits={} plan_cache_misses={} \
             host_rows_examined={} log_records={}",
            l.bytes_to_accel,
            l.bytes_to_host,
            l.total_messages(),
            self.accel_rows_scanned,
            self.accel_blocks_pruned,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.host_rows_scanned,
            self.last_lsn
        )
    }
}

/// Bytes appended to the accelerator's commit log. The retained log
/// shrinks when a checkpoint truncates it, so appended bytes are summed
/// from per-statement deltas, leaving out statements during which a
/// checkpoint was installed (their count is reported alongside).
#[derive(Default)]
pub struct LogMeter {
    pub appended: u64,
    pub records: u64,
    pub skipped: u64,
}

impl LogMeter {
    pub fn observe(&mut self, before: &Counters, after: &Counters) {
        if before.last_checkpoint_at != after.last_checkpoint_at
            || after.log_bytes < before.log_bytes
        {
            self.skipped += 1;
        } else {
            self.appended += after.log_bytes - before.log_bytes;
            self.records += after.last_lsn - before.last_lsn;
        }
    }
}
