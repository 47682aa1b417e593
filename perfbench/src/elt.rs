//! `elt_pipeline`: the paper's headline pipeline, once per iteration.
//!
//! Each iteration drops and recreates its accelerator-only tables, loads
//! 50k social-media events straight into one with the loader, runs two
//! `INSERT … SELECT` stages (an aggregate, then a `LEFT JOIN` against a
//! 4k-row accelerated `CUSTOMERS` table), an `UPDATE` and a `DELETE` on
//! the result, splits it, trains and scores a decision tree in the
//! database, and pulls a small result to the client. Row counts are
//! checked against values the benchmark derives from its own inputs.

use crate::trace::Counters;
use crate::{median, nproc, p50, time_us, Ctx, Env, Report, Rng, Workload};
use idaa::loader::{parse_record, EventSource, LoadTarget, Loader, RecordSource};
use idaa::sql::AccelerationMode;
use idaa::{ObjectName, Row, Schema, SYSADM};
use std::collections::HashSet;
use std::time::Instant;

const EVENTS: usize = 50_000;
const CUSTOMERS: u64 = 4_000;
const FEATURES: &str = "TENURE_M,MONTHLY,SUPPORT_CALLS,NEG_POSTS";
/// Rows the pipeline pulls back to the client at the end.
const PULL: usize = 20;

const RESET: usize = 0;
const LOAD: usize = 1;
const AGG_STAGE: usize = 2;
const JOIN_STAGE: usize = 3;
const UPDATE: usize = 4;
const DELETE: usize = 5;
const SPLIT: usize = 6;
const TRAIN: usize = 7;
const SCORE: usize = 8;
const PULL_CLASS: usize = 9;

/// Row counts every iteration must reproduce.
struct Expected {
    user_groups: usize,
    updated: usize,
    deleted: usize,
}

pub struct EltPipeline {
    env: Env,
    seed: u64,
    /// (tenure months, monthly charge) per customer.
    customers: Vec<(u64, u64)>,
    expected: Option<Expected>,
    /// Train/test sizes of the first checked iteration; later iterations
    /// must match them exactly.
    split: Option<(i64, i64)>,
    iter: u64,
    created: bool,
    /// Untraced iteration times (s) and loader rates (rows/s).
    pipeline_s: Vec<f64>,
    ingest_rows_s: Vec<f64>,
}

impl EltPipeline {
    fn event_seed(&self) -> u64 {
        self.seed ^ 0x5EED
    }

    fn iteration(&mut self, ctx: &mut Ctx) -> bool {
        let seat = (self.iter % self.env.seats.len() as u64) as usize;
        self.iter += 1;
        let failed = ctx.failed;
        let run =
            |ctx: &mut Ctx, env: &mut Env, class: usize, sql: &str| ctx.sql(env, seat, class, sql);

        if self.created {
            for t in ["EVENTS", "USER_AGG", "FEATURES"] {
                run(ctx, &mut self.env, RESET, &format!("DROP TABLE {t}"));
            }
        }
        run(
            ctx,
            &mut self.env,
            RESET,
            "CREATE TABLE EVENTS (EVENT_ID INT, USER_ID INT, TOPIC VARCHAR(10), SENTIMENT DOUBLE, \
             POSTED_AT TIMESTAMP) IN ACCELERATOR",
        );
        run(
            ctx,
            &mut self.env,
            RESET,
            "CREATE TABLE USER_AGG (CUST_ID INT, NEG INT, POSTS INT) IN ACCELERATOR",
        );
        run(
            ctx,
            &mut self.env,
            RESET,
            "CREATE TABLE FEATURES (CUST_ID INT, TENURE_M DOUBLE, MONTHLY DOUBLE, SUPPORT_CALLS DOUBLE, \
             NEG_POSTS DOUBLE, CHURNED VARCHAR(3)) IN ACCELERATOR",
        );
        self.created = true;

        let mut loader = Loader::new(SYSADM);
        loader.config.parallelism = nproc();
        let source = EventSource::new(EVENTS, self.event_seed());
        let idaa = self.env.idaa();
        let t = Instant::now();
        let loaded = ctx.op(LOAD, "loader.load", "Loader::load EVENTS", || {
            loader.load(
                idaa,
                Box::new(source),
                &ObjectName::bare("EVENTS"),
                LoadTarget::AcceleratorDirect,
            )
        });
        let load_s = t.elapsed().as_secs_f64();
        if let Some(report) = &loaded {
            ctx.check(
                report.rows_loaded == EVENTS && report.rows_rejected == 0,
                || {
                    format!(
                        "loaded {} rows ({} rejected), expected {EVENTS}",
                        report.rows_loaded, report.rows_rejected
                    )
                },
            );
            if ctx.tracer.is_none() {
                self.ingest_rows_s.push(report.rows_loaded as f64 / load_s);
            }
        }

        let agg = run(
            ctx,
            &mut self.env,
            AGG_STAGE,
            &format!(
                "INSERT INTO USER_AGG SELECT USER_ID % {CUSTOMERS} AS CUST_ID, \
                 CAST(SUM(CASE WHEN SENTIMENT < 0 THEN 1 ELSE 0 END) AS INT) AS NEG, \
                 CAST(COUNT(*) AS INT) AS POSTS FROM EVENTS GROUP BY USER_ID % {CUSTOMERS}"
            ),
        );
        let join = run(
            ctx,
            &mut self.env,
            JOIN_STAGE,
            "INSERT INTO FEATURES SELECT c.cust_id, CAST(c.tenure_m AS DOUBLE) AS TENURE_M, c.monthly, \
             CAST(c.support_calls AS DOUBLE) AS SUPPORT_CALLS, \
             COALESCE(CAST(a.neg AS DOUBLE), 0.0E0) AS NEG_POSTS, c.churned \
             FROM customers c LEFT JOIN user_agg a ON c.cust_id = a.cust_id",
        );
        let upd = run(
            ctx,
            &mut self.env,
            UPDATE,
            "UPDATE FEATURES SET NEG_POSTS = NEG_POSTS + 1.0E0 WHERE TENURE_M < 12.0E0",
        );
        let del = run(
            ctx,
            &mut self.env,
            DELETE,
            "DELETE FROM FEATURES WHERE MONTHLY > 95.0E0",
        );
        let split = run(
            ctx,
            &mut self.env,
            SPLIT,
            &format!(
                "CALL ANALYTICS.SPLIT('FEATURES', 'TRAIN', 'TEST', 0.7E0, {})",
                self.seed % 1_000_000
            ),
        );
        run(
            ctx,
            &mut self.env,
            TRAIN,
            &format!("CALL ANALYTICS.DECTREE_TRAIN('TRAIN', 'CHURNED', '{FEATURES}', 'MODEL', 5)"),
        );
        let score = run(
            ctx,
            &mut self.env,
            SCORE,
            &format!(
                "CALL ANALYTICS.DECTREE_SCORE('TEST', 'CUST_ID', '{FEATURES}', 'MODEL', 'SCORES')"
            ),
        );
        let pulled = run(
            ctx,
            &mut self.env,
            PULL_CLASS,
            &format!(
                "SELECT CUST_ID, CLASS FROM SCORES ORDER BY CUST_ID FETCH FIRST {PULL} ROWS ONLY"
            ),
        );

        if let Some(e) = &self.expected {
            let n = |o: &Option<idaa::ExecOutcome>| o.as_ref().map(idaa::ExecOutcome::count);
            ctx.check(n(&agg) == Some(e.user_groups), || {
                format!("USER_AGG rows {:?}, expected {}", n(&agg), e.user_groups)
            });
            ctx.check(n(&join) == Some(CUSTOMERS as usize), || {
                format!("FEATURES rows {:?}, expected {CUSTOMERS}", n(&join))
            });
            ctx.check(n(&upd) == Some(e.updated), || {
                format!("UPDATE changed {:?}, expected {}", n(&upd), e.updated)
            });
            ctx.check(n(&del) == Some(e.deleted), || {
                format!("DELETE removed {:?}, expected {}", n(&del), e.deleted)
            });
            let first = |o: &Option<idaa::ExecOutcome>, col: usize| {
                o.as_ref()
                    .and_then(|o| o.rows())
                    .and_then(|r| r.rows.first())
                    .and_then(|r| r.get(col)?.as_i64().ok())
            };
            let sizes = first(&split, 0).zip(first(&split, 1));
            let kept = (CUSTOMERS as usize - e.deleted) as i64;
            ctx.check(sizes.is_some_and(|(tr, te)| tr + te == kept), || {
                format!("SPLIT sizes {sizes:?}, expected a total of {kept}")
            });
            if let Some(s) = sizes {
                let first_split = *self.split.get_or_insert(s);
                ctx.check(s == first_split, || {
                    format!("SPLIT sizes {s:?} differ from the first iteration's {first_split:?}")
                });
                let scored = first(&score, 0);
                ctx.check(scored == Some(s.1), || {
                    format!("scored {scored:?} rows, expected the {} test rows", s.1)
                });
                let got = pulled.as_ref().and_then(|o| o.rows()).map(|r| r.len());
                let want = PULL.min(s.1 as usize);
                ctx.check(got == Some(want), || {
                    format!("pulled {got:?} rows, expected {want}")
                });
            }
        }
        ctx.failed == failed
    }
}

impl Workload for EltPipeline {
    const CLASSES: &'static [&'static str] = &[
        "reset",
        "load",
        "agg_stage",
        "join_stage",
        "update",
        "delete",
        "split",
        "train",
        "score",
        "pull",
    ];
    const SETUP_REPS: usize = 9;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut env = Env::new()?;
        idaa::analytics::deploy_all(env.idaa(), SYSADM)
            .map_err(|e| format!("deploy analytics: {e}"))?;
        env.setup(
            "CREATE TABLE CUSTOMERS (CUST_ID INT NOT NULL, TENURE_M INT, MONTHLY DOUBLE, \
             SUPPORT_CALLS INT, CHURNED VARCHAR(3))",
        )?;
        let mut rng = Rng::new(seed, 5);
        let mut customers = Vec::with_capacity(CUSTOMERS as usize);
        let mut rows = Vec::with_capacity(CUSTOMERS as usize);
        for id in 0..CUSTOMERS {
            let tenure = 1 + rng.below(72);
            let monthly = 20 + rng.below(80);
            let calls = rng.below(9);
            let risky = tenure < 12 && calls > 4;
            let churned = if risky != (rng.below(10) == 0) {
                "YES"
            } else {
                "NO"
            };
            customers.push((tenure, monthly));
            rows.push(format!(
                "({id}, {tenure}, {monthly}.0E0, {calls}, '{churned}')"
            ));
        }
        env.insert_batched("CUSTOMERS", rows.into_iter())?;
        env.setup("CALL ACCEL_ADD_TABLES('CUSTOMERS')")?;
        env.setup("CALL ACCEL_LOAD_TABLES('CUSTOMERS')")?;
        env.set_mode(AccelerationMode::Eligible)?;
        Ok(EltPipeline {
            env,
            seed,
            customers,
            expected: None,
            split: None,
            iter: 0,
            created: false,
            pipeline_s: Vec::new(),
            ingest_rows_s: Vec::new(),
        })
    }

    fn env(&self) -> &Env {
        &self.env
    }

    fn prefix(&mut self, ctx: &mut Ctx) {
        self.iteration(ctx);
    }

    fn prepare_checks(&mut self) -> Result<(), String> {
        let mut source = EventSource::new(EVENTS, self.event_seed());
        let mut groups = HashSet::new();
        while let Some(batch) = source
            .next_batch(4096)
            .map_err(|e| format!("event source: {e}"))?
        {
            for rec in batch {
                let user: u64 = rec[1]
                    .parse()
                    .map_err(|e| format!("event user id {}: {e}", rec[1]))?;
                groups.insert(user % CUSTOMERS);
            }
        }
        self.expected = Some(Expected {
            user_groups: groups.len(),
            updated: self.customers.iter().filter(|(t, _)| *t < 12).count(),
            deleted: self.customers.iter().filter(|(_, m)| *m > 95).count(),
        });
        Ok(())
    }

    fn step(&mut self, ctx: &mut Ctx) {
        let t = Instant::now();
        if self.iteration(ctx) {
            ctx.ops += 1;
            if ctx.tracer.is_none() {
                self.pipeline_s.push(t.elapsed().as_secs_f64());
            }
        }
    }

    fn finish(&mut self, _ctx: &mut Ctx) {}

    fn wire_sample(&self) -> (Schema, Vec<Row>) {
        let (schema, records) = events_batch(self.event_seed());
        let rows = records
            .iter()
            .map(|r| parse_record(r, &schema).expect("generated events parse"))
            .collect();
        (schema, rows)
    }

    fn e2e(&self, ctx: &Ctx, r: &mut Report) {
        p50(r, "pipeline_s", &self.pipeline_s, "s");
        p50(r, "ingest_rows_s", &self.ingest_rows_s, "rows/s");
        for (class, name) in Self::CLASSES.iter().enumerate() {
            p50(r, &format!("{name}_p50_ms"), &ctx.lat[class], "ms");
        }
    }

    fn layers(&mut self, ctx: &mut Ctx, _c: &Counters, r: &mut Report) {
        let tr = ctx.tracer.as_ref().expect("traced phase ran");
        let load = tr.self_times("loader.load", None);
        r.add("loader.load_us", median(&load), "us", load.len());
        let (schema, records) = events_batch(self.event_seed());
        let parse = time_us(5, || {
            records
                .iter()
                .filter(|rec| parse_record(rec, &schema).is_ok())
                .count()
        });
        r.add(
            "loader.parse_us_per_krow",
            Some(parse * 1000.0 / records.len() as f64),
            "us",
            5,
        );
        let e2e = |cls: &str| {
            let mut v = tr.self_times("server.execute", Some(cls));
            v.extend(tr.self_times("idaa.execute", Some(cls)));
            v
        };
        for (stage, rows) in [
            ("agg_stage", self.expected.as_ref().map(|e| e.user_groups)),
            ("join_stage", Some(CUSTOMERS as usize)),
        ] {
            let v = e2e(stage);
            let per_krow = median(&v).zip(rows).map(|(us, n)| us * 1000.0 / n as f64);
            r.add(
                format!("accel.write_us_per_krow.{stage}"),
                per_krow,
                "us",
                v.len(),
            );
        }
        for (metric, cls) in [
            ("analytics.train_us", "train"),
            ("analytics.score_us", "score"),
        ] {
            let v = e2e(cls);
            r.add(metric, median(&v), "us", v.len());
        }
        // The same training, called directly on the fetched rows.
        let idaa = self.env.idaa();
        let direct =
            idaa::analytics::io::read_accel_table(idaa, SYSADM, &ObjectName::bare("TRAIN"))
                .and_then(|(schema, rows)| {
                    let cols: Vec<String> = FEATURES.split(',').map(str::to_string).collect();
                    let (matrix, _) = idaa::analytics::io::numeric_matrix(&schema, &rows, &cols)?;
                    let labels = idaa::analytics::io::label_column(&schema, &rows, "CHURNED")?;
                    let cfg = idaa::analytics::TreeConfig {
                        max_depth: 5,
                        ..Default::default()
                    };
                    Ok(time_us(3, || {
                        idaa::analytics::dectree::train(&matrix, &labels, &cfg)
                    }))
                });
        r.add("analytics.train_direct_us", direct.ok(), "us", 3);
    }
}

/// One loader-sized batch of the workload's events, with the target schema.
fn events_batch(seed: u64) -> (Schema, Vec<idaa::loader::Record>) {
    use idaa::DataType;
    let schema = Schema::new(vec![
        idaa::common::schema::ColumnDef::new("EVENT_ID", DataType::Integer),
        idaa::common::schema::ColumnDef::new("USER_ID", DataType::Integer),
        idaa::common::schema::ColumnDef::new("TOPIC", DataType::Varchar(10)),
        idaa::common::schema::ColumnDef::new("SENTIMENT", DataType::Double),
        idaa::common::schema::ColumnDef::new("POSTED_AT", DataType::Timestamp),
    ])
    .expect("valid schema");
    let batch = EventSource::new(EVENTS, seed)
        .next_batch(4096)
        .ok()
        .flatten()
        .unwrap_or_default();
    (schema, batch)
}
