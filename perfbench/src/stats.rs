//! Order statistics and the input digest.

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule on a
/// sorted copy. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99, p95 and p90 that leaves at least ten samples
/// beyond it, as `(label, value)`; `None` below 100 samples.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 99), ("p95", 95), ("p90", 90)]
        .into_iter()
        .find(|(_, pct)| values.len() * (100 - pct) >= 1000)
        .map(|(label, pct)| (label, quantile(values, pct as f64 / 100.0)))
}

/// FNV-1a, 64-bit: a stable digest of the generated inputs, so two runs
/// can be shown to have sent identical bytes.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-delimit so ["ab","c"] and ["a","bc"] differ.
        for b in (bytes.len() as u64).to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().0, "p99");
        assert_eq!(tail(&v[..500]).unwrap().0, "p95");
        assert_eq!(tail(&v[..100]).unwrap().0, "p90");
        assert!(tail(&v[..99]).is_none());
    }

    #[test]
    fn digest_is_length_delimited() {
        let mut a = Fnv::default();
        a.write(b"ab");
        a.write(b"c");
        let mut b = Fnv::default();
        b.write(b"a");
        b.write(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
