//! Order statistics over latency samples.

use crate::rng::Rng;

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of `samples`, or an error when
/// fewer than [`MIN_BEYOND`] samples lie above it: such a tail is one or
/// two unlucky operations, not a percentile.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("p{p}: no samples"));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it; at least {MIN_BEYOND} are needed",
            n - rank
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A uniform sample of at most `cap` values of a stream (Algorithm R):
/// a long run keeps a fixed number of latency samples, so the memory it
/// holds for them does not grow with the number of requests it made.
#[derive(Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: Rng,
    values: Vec<f64>,
}

impl Reservoir {
    pub fn new(cap: usize) -> Self {
        Reservoir {
            cap,
            seen: 0,
            rng: Rng::new(0),
            values: Vec::with_capacity(cap),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(v);
        } else {
            let j = self.rng.below(self.seen as usize);
            if j < self.cap {
                self.values[j] = v;
            }
        }
    }

    /// Adds another stream's sample to this one, keeping both whole.
    pub fn absorb(&mut self, other: Reservoir) {
        self.cap += other.cap;
        self.seen += other.seen;
        self.values.extend(other.values);
    }

    /// How many values the stream held.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples: all of them while fewer than `cap` were seen.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
        assert_eq!(percentile(&hundred, 50.0), Ok(50.0));
        // p99 of 100 samples has one sample beyond it.
        assert!(percentile(&hundred, 99.0).is_err());
        // p90 needs at least 100 samples: 99 leave only 9 beyond.
        assert!(percentile(&hundred[..99], 90.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_reservoir_keeps_a_uniform_sample_of_fixed_size() {
        let mut r = Reservoir::new(1_000);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.values().len(), 1_000);
        let m = median(r.values());
        assert!((40_000.0..60_000.0).contains(&m), "median {m}");
        let mut small = Reservoir::new(10);
        small.push(1.0);
        assert_eq!(small.values(), &[1.0]);
    }
}
