//! Order statistics and process memory readings.

/// Linear-interpolated quantile of `v` at `q` in `[0, 1]`; `None` when
/// `v` is empty. Sorts a copy.
pub fn quantile(v: &[f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

pub fn median(v: &[f64]) -> Option<f64> {
    quantile(v, 0.5)
}

/// Mean of the samples left after dropping the lowest and the highest
/// `trim` share of them (`trim` in `[0, 0.5)`); `None` when `v` is empty.
/// Robust both to rare stalls and to a median that falls between two
/// modes of the distribution.
pub fn trimmed_mean(v: &[f64], trim: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let cut = (s.len() as f64 * trim).floor() as usize;
    let kept = &s[cut..s.len() - cut];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// A tail percentile, reported only when at least ten samples lie beyond
/// it.
pub fn tail(v: &[f64], q: f64) -> Option<f64> {
    let x = quantile(v, q)?;
    (v.iter().filter(|s| **s > x).count() >= 10).then_some(x)
}

/// Geometric mean of strictly positive values.
pub fn geomean(v: &[f64]) -> Option<f64> {
    if v.is_empty() || v.iter().any(|x| *x <= 0.0) {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

/// A `/proc/self/status` field in MiB (`VmHWM` = peak resident set,
/// `VmRSS` = current).
pub fn proc_status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
        .ok_or_else(|| format!("{field} missing from /proc/self/status"))?;
    let kb: f64 = line[field.len() + 1..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad {field} line '{line}': {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tails_need_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), Some(50.5));
        assert_eq!(tail(&v, 0.9), quantile(&v, 0.9));
        assert_eq!(tail(&v, 0.99), None);
        assert_eq!(geomean(&[1.0, 4.0]), Some(2.0));
        assert_eq!(geomean(&[0.0, 4.0]), None);
        assert_eq!(trimmed_mean(&v, 0.1), Some(50.5));
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0, 1000.0], 0.25), Some(2.5));
        assert_eq!(trimmed_mean(&[7.0], 0.1), Some(7.0));
        assert_eq!(trimmed_mean(&[], 0.1), None);
    }
}
