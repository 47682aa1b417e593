//! Shared workload builders and measurement helpers for the experiment
//! harness (`exp` binary) and the Criterion microbenches.
//!
//! The EDBT 2016 poster contains no quantitative evaluation, so the
//! experiment suite (E1–E22, defined in `DESIGN.md` and recorded in
//! `EXPERIMENTS.md`) operationalizes each claim in the paper's text. Every
//! experiment reports wall-clock compute time *and* the deterministic link
//! metrics (bytes, messages, simulated wire time) — the latter being the
//! quantity the paper's AOT extension exists to minimize.

use idaa_core::{Idaa, IdaaConfig, Session};
use idaa_host::SYSADM;
use idaa_netsim::LinkMetrics;
use std::time::{Duration, Instant};

pub mod experiments;

/// Build a system with an admin session.
pub fn system(config: IdaaConfig) -> (Idaa, Session) {
    let idaa = Idaa::new(config);
    let session = idaa.session(SYSADM);
    (idaa, session)
}

/// Create and fill the canonical SALES fact table:
/// `(ID, REGION, PRODUCT, AMOUNT, QTY, SOLD_ON)` with `rows` rows.
pub fn seed_sales(idaa: &Idaa, s: &mut Session, rows: usize) {
    idaa.execute(
        s,
        "CREATE TABLE SALES (ID INT NOT NULL, REGION VARCHAR(8), PRODUCT VARCHAR(8), \
         AMOUNT DOUBLE, QTY INT, SOLD_ON DATE)",
    )
    .expect("create SALES");
    let mut vals = Vec::with_capacity(1000);
    for i in 0..rows {
        vals.push(format!(
            "({i}, '{}', 'P{:03}', {}.5E0, {}, DATE '2015-0{}-0{}')",
            ["EU", "US", "APAC", "LATAM"][i % 4],
            i % 200,
            (i * 13) % 1000,
            (i % 9) + 1,
            (i % 9) + 1,
            (i % 8) + 1
        ));
        if vals.len() == 1000 {
            idaa.execute(s, &format!("INSERT INTO SALES VALUES {}", vals.join(", ")))
                .expect("insert");
            vals.clear();
        }
    }
    if !vals.is_empty() {
        idaa.execute(s, &format!("INSERT INTO SALES VALUES {}", vals.join(", ")))
            .expect("insert");
    }
}

/// Accelerate a table (ADD + LOAD).
pub fn accelerate(idaa: &Idaa, s: &mut Session, table: &str) {
    idaa.execute(s, &format!("CALL ACCEL_ADD_TABLES('{table}')")).expect("add");
    idaa.execute(s, &format!("CALL ACCEL_LOAD_TABLES('{table}')")).expect("load");
}

/// Measure wall time and link delta of `f`. Traffic is the fleet-wide
/// total ([`Idaa::fleet_link_metrics`], i.e. [`LinkMetrics::merged`] over
/// every node's link) — never a hand-summed estimate — which reduces to
/// the single link's metrics for a one-node fleet.
pub fn measure<T>(idaa: &Idaa, f: impl FnOnce() -> T) -> (T, Duration, LinkMetrics) {
    let before = idaa.fleet_link_metrics();
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed(), idaa.fleet_link_metrics().since(&before))
}

/// Milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1000.0)
}

/// Human-readable byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 10_000_000 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else if b >= 10_000 {
        format!("{:.1} KB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

/// Fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Table {
        Table { headers: headers.iter().map(|h| h.to_string()).collect(), rows: Vec::new() }
    }

    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let line = |out: &mut String| {
            for w in &widths {
                out.push('+');
                out.push_str(&"-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        let mut out = String::new();
        line(&mut out);
        out.push('|');
        for (h, w) in self.headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:>w$} |"));
        }
        out.push('\n');
        line(&mut out);
        for r in &self.rows {
            out.push('|');
            for (c, w) in r.iter().zip(&widths) {
                out.push_str(&format!(" {c:>w$} |"));
            }
            out.push('\n');
        }
        line(&mut out);
        print!("{out}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_and_measure() {
        let (idaa, mut s) = system(IdaaConfig::default());
        seed_sales(&idaa, &mut s, 1500);
        let (rows, _elapsed, link) = measure(&idaa, || {
            idaa.query(&mut s, "SELECT COUNT(*) FROM sales").unwrap()
        });
        assert_eq!(rows.scalar().unwrap().render(), "1500");
        assert_eq!(link.total_bytes(), 0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(40_000), "40.0 KB");
        assert_eq!(fmt_bytes(25_000_000), "25.0 MB");
        assert_eq!(ms(Duration::from_micros(1500)), "1.50");
    }
}
