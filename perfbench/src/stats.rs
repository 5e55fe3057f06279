//! Sample statistics and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (0..=1) of `xs` by the Harrell–Davis estimator; 0
/// when empty. It weighs every order statistic by a Beta density centred
/// on rank `q·n`, so the estimate does not jump when a few samples near
/// that rank trade places — which the plain order statistic does where
/// samples are sparse, as they are around the median of a population of
/// jobs spanning three orders of magnitude.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let upto = inc_beta(a, b, (i + 1) as f64 / n);
        sum += (upto - below) * x;
        below = upto;
    }
    sum
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7, n = 9).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let s: f64 = C[0] + (1..9).map(|i| C[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
}

/// The regularized incomplete beta function I_x(a, b).
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// The continued fraction of the incomplete beta function (modified
/// Lentz's method).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..1000 {
        let m = m as f64;
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-12 {
            break;
        }
    }
    h
}

/// Geometric mean (samples are floored at 1 µs so a zero cannot occur).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s: f64 = xs.iter().map(|x| x.max(1e-3).ln()).sum();
    (s / xs.len() as f64).exp()
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in output order.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        self.0.push((name.to_string(), value + 0.0, unit));
    }

    /// The human table, one metric a line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(s, "  {name:<28} {value:>14.4} {unit}");
        }
        s
    }

    /// The result object's `metrics` member.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((median(&xs) - 50.5).abs() < 1e-6, "{}", median(&xs));
        assert!(
            (quantile(&xs, 0.9) - 90.9).abs() < 0.5,
            "{}",
            quantile(&xs, 0.9)
        );
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn incomplete_beta() {
        // I_x(1, 1) = x; I_x(2, 1) = x^2; symmetric at 1/2.
        assert!((inc_beta(1.0, 1.0, 0.3) - 0.3).abs() < 1e-9);
        assert!((inc_beta(2.0, 1.0, 0.3) - 0.09).abs() < 1e-9);
        assert!((inc_beta(185.5, 185.5, 0.5) - 0.5).abs() < 1e-9);
    }
}
