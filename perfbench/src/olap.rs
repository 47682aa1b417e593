//! `olap_mix`: an analyst mix offloaded to the accelerator.
//!
//! A 200k-row `SALES` fact table and a 200-row `PRODUCTS` dimension, both
//! accelerated, queried through `Server` under `ELIGIBLE` in a fixed
//! rotation of four classes. Nearly all of the time is in the
//! accelerator's executor (kernels, MVCC visibility, fused aggregation,
//! hash join, sort), almost none in parse, wire or commit.

use crate::trace::Counters;
use crate::{median, p50, same_rows, time_us, Ctx, Env, Report, Rng, Workload};
use idaa::accel::ExecMode;
use idaa::sql::{parse_statement, AccelerationMode, Query, Statement};
use idaa::{Row, Rows, Schema};
use std::collections::HashMap;

const SALES_ROWS: u64 = 200_000;
const PRODUCTS: u64 = 200;
/// Point-predicate keys come from one contiguous `ID` range of this size,
/// each used once, so every point query is a plan-cache miss.
const POINT_POOL: u64 = 4096;
const REGIONS: [&str; 4] = ["EU", "US", "APAC", "LATAM"];
const CATEGORIES: [&str; 6] = ["FOOD", "TOYS", "TOOLS", "BOOKS", "SPORT", "GARDEN"];

const AGG: usize = 0;
const POINT: usize = 1;
const JOIN: usize = 2;
const TOPK: usize = 3;

pub struct OlapMix {
    env: Env,
    /// Fixed statement text of the agg, join and top-K classes.
    fixed: [String; 4],
    point_ids: Vec<u64>,
    next_point: usize,
    op: u64,
    /// Interpreted-mode answers, per class (agg, join, top-K) and per
    /// point key.
    oracle: Vec<Option<Vec<Row>>>,
    points: HashMap<u64, Row>,
    sample: Option<(Schema, Vec<Row>)>,
}

fn point_sql(id: u64) -> String {
    format!("SELECT ID, REGION, PRODUCT, AMOUNT, QTY FROM SALES WHERE ID = {id}")
}

fn parse_query(sql: &str) -> Result<Query, String> {
    match parse_statement(sql).map_err(|e| format!("{sql}: {e}"))? {
        Statement::Query(q) => Ok(*q),
        _ => Err(format!("not a query: {sql}")),
    }
}

impl OlapMix {
    fn interpreted(&self, sql: &str) -> Result<Rows, String> {
        let q = parse_query(sql)?;
        self.env
            .idaa()
            .accel()
            .query_with_mode(0, &q, ExecMode::Interpreted)
            .map_err(|e| format!("interpreted {sql}: {e}"))
    }

    fn next_sql(&mut self, class: usize) -> (String, Option<u64>) {
        if class == POINT {
            let id = self.point_ids[self.next_point % self.point_ids.len()];
            self.next_point += 1;
            (point_sql(id), Some(id))
        } else {
            (self.fixed[class].clone(), None)
        }
    }

    fn run_one(&mut self, ctx: &mut Ctx, check: bool) -> bool {
        let class = (self.op % 4) as usize;
        let seat = ((self.op / 4) % self.env.seats.len() as u64) as usize;
        self.op += 1;
        let (sql, point) = self.next_sql(class);
        let Some(out) = ctx.sql(&mut self.env, seat, class, &sql) else {
            return false;
        };
        if check {
            let got = out.rows().map(|r| r.rows.as_slice()).unwrap_or(&[]);
            let ok = match point {
                Some(id) => {
                    got.len() == 1
                        && self
                            .points
                            .get(&id)
                            .is_some_and(|want| same_rows(got, std::slice::from_ref(want)))
                }
                None => self.oracle[class]
                    .as_ref()
                    .is_some_and(|want| same_rows(got, want)),
            };
            ctx.check(ok, || {
                format!(
                    "{}: {} rows differ from the interpreted answer",
                    sql,
                    got.len()
                )
            });
        }
        true
    }
}

impl Workload for OlapMix {
    const CLASSES: &'static [&'static str] = &["agg", "point", "join", "topk"];
    const SETUP_REPS: usize = 3;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut env = Env::new()?;
        env.setup(
            "CREATE TABLE SALES (ID INT NOT NULL, REGION VARCHAR(8), PRODUCT VARCHAR(8), \
             AMOUNT DOUBLE, QTY INT, SOLD_ON DATE)",
        )?;
        let mut rng = Rng::new(seed, 1);
        env.insert_batched(
            "SALES",
            (0..SALES_ROWS).map(|id| {
                format!(
                    "({id}, '{}', 'P{:03}', {}.5E0, {}, DATE '2015-0{}-{:02}')",
                    REGIONS[rng.below(4) as usize],
                    rng.below(PRODUCTS),
                    rng.below(1000),
                    1 + rng.below(9),
                    1 + rng.below(9),
                    1 + rng.below(28)
                )
            }),
        )?;
        env.setup("CREATE TABLE PRODUCTS (PRODUCT VARCHAR(8) NOT NULL, CATEGORY VARCHAR(8), PRICE DOUBLE)")?;
        env.insert_batched(
            "PRODUCTS",
            (0..PRODUCTS).map(|p| {
                format!(
                    "('P{p:03}', '{}', {}.25E0)",
                    CATEGORIES[rng.below(6) as usize],
                    1 + rng.below(300)
                )
            }),
        )?;
        for t in ["SALES", "PRODUCTS"] {
            env.setup(&format!("CALL ACCEL_ADD_TABLES('{t}')"))?;
            env.setup(&format!("CALL ACCEL_LOAD_TABLES('{t}')"))?;
        }
        env.set_mode(AccelerationMode::Eligible)?;

        let mut q = Rng::new(seed, 2);
        let fixed = [
            "SELECT REGION, COUNT(*) AS N, SUM(AMOUNT) AS TOTAL, AVG(QTY) AS AVG_QTY FROM SALES \
             WHERE QTY > 3 AND AMOUNT < 700 GROUP BY REGION ORDER BY REGION"
                .to_string(),
            String::new(),
            "SELECT P.CATEGORY, COUNT(*) AS N, SUM(S.AMOUNT) AS TOTAL FROM SALES S \
             JOIN PRODUCTS P ON S.PRODUCT = P.PRODUCT WHERE S.QTY > 3 \
             GROUP BY P.CATEGORY ORDER BY P.CATEGORY"
                .to_string(),
            format!(
                "SELECT ID, AMOUNT, PRODUCT FROM SALES WHERE REGION = '{}' \
                 ORDER BY AMOUNT DESC, ID FETCH FIRST 10 ROWS ONLY",
                REGIONS[q.below(4) as usize]
            ),
        ];
        let lo = q.below(SALES_ROWS - POINT_POOL);
        let mut point_ids: Vec<u64> = (lo..lo + POINT_POOL).collect();
        for i in (1..point_ids.len()).rev() {
            point_ids.swap(i, q.below(i as u64 + 1) as usize);
        }
        Ok(OlapMix {
            env,
            fixed,
            point_ids,
            next_point: 0,
            op: 0,
            oracle: vec![None; 4],
            points: HashMap::new(),
            sample: None,
        })
    }

    fn env(&self) -> &Env {
        &self.env
    }

    fn prefix(&mut self, ctx: &mut Ctx) {
        for _ in 0..Self::CLASSES.len() {
            self.run_one(ctx, false);
        }
    }

    fn prepare_checks(&mut self) -> Result<(), String> {
        for class in [AGG, JOIN, TOPK] {
            self.oracle[class] = Some(self.interpreted(&self.fixed[class])?.rows);
        }
        let lo = *self.point_ids.iter().min().expect("pool is not empty");
        let range = self.interpreted(&format!(
            "SELECT ID, REGION, PRODUCT, AMOUNT, QTY FROM SALES WHERE ID BETWEEN {lo} AND {}",
            lo + POINT_POOL - 1
        ))?;
        for row in &range.rows {
            let id = row[0].as_i64().map_err(|e| format!("point oracle: {e}"))? as u64;
            self.points.insert(id, row.clone());
        }
        if self.points.len() != POINT_POOL as usize {
            return Err(format!(
                "point oracle found {} of {POINT_POOL} keys",
                self.points.len()
            ));
        }
        self.sample = Some((range.schema, range.rows));
        Ok(())
    }

    fn step(&mut self, ctx: &mut Ctx) {
        if self.run_one(ctx, true) {
            ctx.ops += 1;
        }
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        // The point pool must not have wrapped: a repeated key would be a
        // plan-cache hit and change what the point class measures.
        let pool = self.point_ids.len();
        let used = self.next_point;
        ctx.check(used <= pool, || {
            format!("point key pool exhausted ({used} > {pool}); every point query must miss")
        });
    }

    fn wire_sample(&self) -> (Schema, Vec<Row>) {
        self.sample.clone().expect("prepare_checks ran")
    }

    fn e2e(&self, ctx: &Ctx, r: &mut Report) {
        for (class, name) in Self::CLASSES.iter().enumerate() {
            p50(r, &format!("{name}_p50_ms"), &ctx.lat[class], "ms");
        }
    }

    fn layers(&mut self, ctx: &mut Ctx, _c: &Counters, r: &mut Report) {
        let sqls: Vec<String> = (0..Self::CLASSES.len())
            .map(|c| self.next_sql(c).0)
            .collect();
        let tr = ctx.tracer.as_ref().expect("traced phase ran");
        let accel = self.env.idaa().accel();
        for (class, name) in Self::CLASSES.iter().enumerate() {
            let exec = tr.self_times("accel.exec", Some(name));
            let exec_p50 = median(&exec);
            r.add(format!("accel.exec_us.{name}"), exec_p50, "us", exec.len());
            let e2e = tr.self_times("server.execute", Some(name));
            r.add(
                format!("accel.share_pct.{name}"),
                exec_p50.zip(median(&e2e)).map(|(x, e)| 100.0 * x / e),
                "%",
                e2e.len(),
            );
            let sql = &sqls[class];
            let reps = if class == JOIN { 1 } else { 3 };
            let interp = parse_query(sql)
                .map(|q| time_us(reps, || accel.query_with_mode(0, &q, ExecMode::Interpreted)));
            r.add(format!("accel.interp_us.{name}"), interp.ok(), "us", reps);
        }
        let fixed = parse_query("SELECT CATEGORY, COUNT(*) AS N FROM PRODUCTS GROUP BY CATEGORY")
            .map(|q| time_us(21, || accel.query_with_mode(0, &q, ExecMode::Vectorized)));
        r.add("accel.fixed_us", fixed.ok(), "us", 21);
    }
}
