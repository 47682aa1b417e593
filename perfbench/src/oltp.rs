//! `oltp_rw`: the system of record's short statements.
//!
//! A 20k-row `ACCOUNTS` table with an index on `ID`, also accelerated
//! with auto-replication on, driven through `Server` under `ENABLE` with
//! autocommit: 70% indexed point reads, 20% single-row updates, 10%
//! inserts. Reads stay on the host; the accelerator only applies the
//! replicated writes. Answers are checked against the benchmark's own
//! shadow copy of every balance.

use crate::stats::tail;
use crate::trace::Counters;
use crate::{median, p50, Ctx, Env, Report, Rng, Workload};
use idaa::sql::{parse_statement, AccelerationMode, Statement};
use idaa::{ObjectName, Row, Schema, Value, SYSADM};

const ROWS: u64 = 20_000;
const READ: usize = 0;
const UPDATE: usize = 1;
const INSERT: usize = 2;

pub struct OltpRw {
    env: Env,
    rng: Rng,
    /// Shadow model: balance of account `id` at index `id`.
    bal: Vec<i64>,
    branch: Vec<i64>,
    op: u64,
    writes: u64,
    /// Classes still to run in the current block of ten: every block is a
    /// seeded shuffle of 7 reads, 2 updates and 1 insert, so the mix is
    /// exact over any whole number of blocks.
    block: Vec<usize>,
}

impl OltpRw {
    fn row(&self, id: usize) -> Row {
        vec![
            Value::Int(id as i32),
            Value::Varchar(format!("C{id:06}")),
            Value::Int(self.branch[id] as i32),
            Value::BigInt(self.bal[id]),
        ]
    }

    fn run_one(&mut self, ctx: &mut Ctx) -> bool {
        let seat = (self.op % self.env.seats.len() as u64) as usize;
        self.op += 1;
        if self.block.is_empty() {
            self.block = [
                READ, READ, READ, READ, READ, READ, READ, UPDATE, UPDATE, INSERT,
            ]
            .to_vec();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        let class = self.block.pop().expect("block refilled above");
        let n = self.bal.len() as u64;
        if class == READ {
            let id = self.rng.below(n) as usize;
            let sql = format!("SELECT BAL FROM ACCOUNTS WHERE ID = {id}");
            let Some(out) = ctx.sql(&mut self.env, seat, READ, &sql) else {
                return false;
            };
            let got = out.rows().map(|r| r.rows.clone()).unwrap_or_default();
            let want = self.bal[id];
            ctx.check(
                got.len() == 1 && got[0][0].as_i64().ok() == Some(want),
                || format!("{sql}: got {got:?}, shadow balance {want}"),
            );
            return true;
        }
        let (class, sql) = if class == UPDATE {
            let id = self.rng.below(n) as usize;
            let delta = self.rng.below(2001) as i64 - 1000;
            self.bal[id] += delta;
            let expr = if delta < 0 {
                format!("BAL - {}", -delta)
            } else {
                format!("BAL + {delta}")
            };
            (
                UPDATE,
                format!("UPDATE ACCOUNTS SET BAL = {expr} WHERE ID = {id}"),
            )
        } else {
            let id = self.bal.len();
            self.bal.push(self.rng.below(100_000) as i64);
            self.branch.push(self.rng.below(100) as i64);
            let r = self.row(id);
            (
                INSERT,
                format!(
                    "INSERT INTO ACCOUNTS VALUES ({id}, 'C{id:06}', {}, {})",
                    r[2].render(),
                    r[3].render()
                ),
            )
        };
        self.writes += 1;
        // In the traced phase every third write bypasses the facade: host
        // DML + commit on a benchmark-owned transaction, then replication.
        if ctx.tracer.is_some() && self.writes.is_multiple_of(3) {
            return self.direct_write(ctx, class, &sql);
        }
        let Some(out) = ctx.sql(&mut self.env, seat, class, &sql) else {
            return false;
        };
        ctx.check(out.count() == 1, || {
            format!("{sql}: {} rows changed, expected 1", out.count())
        });
        true
    }

    fn direct_write(&mut self, ctx: &mut Ctx, class: usize, sql: &str) -> bool {
        ctx.attempted += 1;
        let cls = Self::CLASSES[class];
        let idaa = self.env.idaa();
        let host = idaa.host();
        let table = ObjectName::bare("ACCOUNTS");
        let insert_row = (class == INSERT).then(|| self.row(self.bal.len() - 1));
        let stmt = parse_statement(sql);
        let tr = ctx.tracer.as_mut().expect("traced phase");
        tr.begin_stmt(cls);
        let txn = host.begin();
        let changed = tr.span("host.dml", cls, || -> idaa::Result<usize> {
            let n = match (&stmt, insert_row) {
                (_, Some(row)) => host.insert_rows(SYSADM, txn, &table, vec![row]),
                (
                    Ok(Statement::Update {
                        assignments,
                        filter,
                        ..
                    }),
                    None,
                ) => host.update_where(SYSADM, txn, &table, assignments, filter.as_ref()),
                (Ok(other), None) => Err(idaa::Error::internal(format!("not a write: {other:?}"))),
                (Err(e), None) => Err(e.clone()),
            };
            match n {
                Ok(n) => {
                    host.commit(txn);
                    Ok(n)
                }
                Err(e) => {
                    host.rollback(txn)?;
                    Err(e)
                }
            }
        });
        let applied = tr.span("replication.apply", cls, || idaa.replicate_now());
        tr.end_stmt();
        match (changed, applied) {
            (Ok(n), Ok(_)) => {
                ctx.check(n == 1, || {
                    format!("direct {sql}: {n} rows changed, expected 1")
                });
                true
            }
            (Err(e), _) | (_, Err(e)) => {
                ctx.fail(sql, e);
                false
            }
        }
    }
}

impl Workload for OltpRw {
    const CLASSES: &'static [&'static str] = &["read", "update", "insert"];
    const SETUP_REPS: usize = 3;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut env = Env::new()?;
        env.setup(
            "CREATE TABLE ACCOUNTS (ID INT NOT NULL, OWNER VARCHAR(12), BRANCH INT, BAL BIGINT)",
        )?;
        let mut rng = Rng::new(seed, 3);
        let bal: Vec<i64> = (0..ROWS).map(|_| rng.below(100_000) as i64).collect();
        let branch: Vec<i64> = (0..ROWS).map(|_| rng.below(100) as i64).collect();
        env.insert_batched(
            "ACCOUNTS",
            (0..ROWS as usize).map(|id| format!("({id}, 'C{id:06}', {}, {})", branch[id], bal[id])),
        )?;
        env.setup("CREATE INDEX ACCOUNTS_ID ON ACCOUNTS (ID)")?;
        env.setup("CALL ACCEL_ADD_TABLES('ACCOUNTS')")?;
        env.setup("CALL ACCEL_LOAD_TABLES('ACCOUNTS')")?;
        env.set_mode(AccelerationMode::Enable)?;
        Ok(OltpRw {
            env,
            rng: Rng::new(seed, 4),
            bal,
            branch,
            op: 0,
            writes: 0,
            block: Vec::new(),
        })
    }

    fn env(&self) -> &Env {
        &self.env
    }

    fn prefix(&mut self, ctx: &mut Ctx) {
        for _ in 0..50 {
            self.run_one(ctx);
        }
    }

    fn prepare_checks(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn step(&mut self, ctx: &mut Ctx) {
        if self.run_one(ctx) {
            ctx.ops += 1;
        }
    }

    /// Both copies must hold the shadow model's totals: the host directly,
    /// the accelerator through replication.
    fn finish(&mut self, ctx: &mut Ctx) {
        let want = (self.bal.len() as i64, self.bal.iter().sum::<i64>());
        let Env { server, direct, .. } = &mut self.env;
        let idaa = server.idaa();
        let s = &mut direct[0];
        for mode in [AccelerationMode::None, AccelerationMode::All] {
            let set = idaa.execute(s, &format!("SET CURRENT QUERY ACCELERATION = {mode}"));
            let got = set.and_then(|_| idaa.query(s, "SELECT COUNT(*), SUM(BAL) FROM ACCOUNTS"));
            let got = got.map(|r| {
                r.rows
                    .first()
                    .map(|row| (row[0].as_i64().ok(), row[1].as_i64().ok()))
            });
            ctx.check(
                matches!(got, Ok(Some((Some(n), Some(t)))) if (n, t) == want),
                || {
                    format!(
                        "ACCOUNTS totals under {mode}: got {got:?}, shadow (count, sum) {want:?}"
                    )
                },
            );
        }
    }

    fn wire_sample(&self) -> (Schema, Vec<Row>) {
        let schema = self
            .env
            .idaa()
            .host()
            .table_meta(&ObjectName::bare("ACCOUNTS"))
            .map(|m| m.schema);
        let schema = schema.expect("ACCOUNTS exists");
        // One replication batch of changed rows.
        let n = idaa::IdaaConfig::default()
            .replication_batch
            .min(self.bal.len());
        (schema, (0..n).map(|id| self.row(id)).collect())
    }

    fn e2e(&self, ctx: &Ctx, r: &mut Report) {
        let l = &ctx.lat;
        p50(r, "read_p50_ms", &l[READ], "ms");
        r.add("read_p99_ms", tail(&l[READ], 0.99), "ms", l[READ].len());
        p50(r, "update_p50_ms", &l[UPDATE], "ms");
        p50(r, "insert_p50_ms", &l[INSERT], "ms");
        let writes: Vec<f64> = l[UPDATE].iter().chain(&l[INSERT]).copied().collect();
        r.add("write_p99_ms", tail(&writes, 0.99), "ms", writes.len());
    }

    fn layers(&mut self, ctx: &mut Ctx, c: &Counters, r: &mut Report) {
        let tr = ctx.tracer.take().expect("traced phase ran");
        let host_exec = tr.self_times("host.exec", Some("read"));
        r.add("host.exec_us", median(&host_exec), "us", host_exec.len());
        let reads = ctx.lat[READ].len() as u64;
        let writes = (ctx.lat[UPDATE].len() + ctx.lat[INSERT].len()) as u64;
        let per = |x: u64, n: u64| Some(if n == 0 { 0.0 } else { x as f64 / n as f64 });
        r.add(
            "host.rows_examined_per_row_changed",
            per(c.host_rows_scanned, c.host_rows_changed),
            "count",
            c.host_rows_changed as usize,
        );
        r.add(
            "host.index_lookups_per_read",
            per(c.host_index_lookups, reads),
            "count",
            reads as usize,
        );
        r.add(
            "replication.bytes_per_write",
            per(c.link.total_bytes(), writes),
            "B",
            writes as usize,
        );
        r.add(
            "replication.msgs_per_write",
            per(c.link.total_messages(), writes),
            "count",
            writes as usize,
        );
        let apply = tr.self_times("replication.apply", None);
        r.add("replication.apply_us", median(&apply), "us", apply.len());
        for cls in ["update", "insert"] {
            let dml = tr.self_times("host.dml", Some(cls));
            r.add(format!("host.dml_us.{cls}"), median(&dml), "us", dml.len());
            // Commit + replication share of a write: its end-to-end time
            // through the facade minus host DML and parse. Kept signed.
            let e2e = median(&tr.self_times("idaa.execute", Some(cls)));
            let parse = median(&tr.self_times("sql.parse", Some(cls)));
            let rest = match (e2e, median(&dml), parse) {
                (Some(e), Some(d), Some(p)) => Some(e - d - p),
                _ => None,
            };
            if let Some(v) = rest.filter(|v| *v < 0.0) {
                ctx.negative
                    .push((format!("core.commit_replicate_us.{cls}"), v));
            }
            let n = tr.self_times("idaa.execute", Some(cls)).len();
            r.add(format!("core.commit_replicate_us.{cls}"), rest, "us", n);
        }
        ctx.tracer = Some(tr);
    }
}
