//! The floating-point conditioned subset walk (DESIGN.md §5h).
//!
//! `hetarch_exec::rare::ConditionalSampler` stores each take probability
//! `p_i · S[i+1][r-1] / S[i][r]` as an exact integer threshold and compares
//! 53-bit draws against it. [`FloatConditionalSampler`] is the walk it
//! replaced, kept verbatim as the oracle: the suffix table, and one uniform
//! `f64` draw compared against a freshly divided probability per site.
//! `tests/fault_stream_contract.rs` demands that both return the same
//! subset from the same draws.

/// Exact sampler of weight-`w` site subsets over the suffix dynamic
/// program `S[i][j] = P(X_i + … + X_{n-1} = j)`: a forward walk takes site
/// `i` with probability `p_i · S[i+1][r-1] / S[i][r]` where `r` triggers
/// remain.
#[derive(Clone, Debug)]
pub struct FloatConditionalSampler {
    probs: Vec<f64>,
    weight: usize,
    /// Flattened `(n+1) × (w+1)` suffix table.
    suffix: Vec<f64>,
}

impl FloatConditionalSampler {
    /// Prepares the suffix table for drawing weight-`weight` subsets of the
    /// sites described by `probs`.
    pub fn new(probs: &[f64], weight: usize) -> Self {
        let n = probs.len();
        let cols = weight + 1;
        let mut suffix = vec![0.0; (n + 1) * cols];
        suffix[n * cols] = 1.0;
        for i in (0..n).rev() {
            let p = probs[i];
            for j in 0..cols {
                let keep = (1.0 - p) * suffix[(i + 1) * cols + j];
                let take = if j > 0 {
                    p * suffix[(i + 1) * cols + (j - 1)]
                } else {
                    0.0
                };
                suffix[i * cols + j] = keep + take;
            }
        }
        FloatConditionalSampler {
            probs: probs.to_vec(),
            weight,
            suffix,
        }
    }

    /// Whether any weight-`w` subset has positive probability.
    pub fn is_feasible(&self) -> bool {
        self.suffix[self.weight] > 0.0
    }

    /// Draws one subset into `out` (cleared first, ascending site order),
    /// consuming uniform `[0,1)` variates from `u01`.
    ///
    /// # Panics
    ///
    /// Panics if the stratum is infeasible.
    pub fn sample_into(&self, u01: &mut dyn FnMut() -> f64, out: &mut Vec<usize>) {
        assert!(
            self.is_feasible(),
            "no weight-{} subset of {} sites has positive probability",
            self.weight,
            self.probs.len()
        );
        out.clear();
        let cols = self.weight + 1;
        let mut remaining = self.weight;
        for (i, &p) in self.probs.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let here = self.suffix[i * cols + remaining];
            let take = p * self.suffix[(i + 1) * cols + (remaining - 1)] / here;
            if u01() < take {
                out.push(i);
                remaining -= 1;
            }
        }
        debug_assert_eq!(out.len(), self.weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn walk_draws_weight_w_subsets() {
        let probs = [0.1, 1.0, 0.0, 0.3, 0.2];
        let sampler = FloatConditionalSampler::new(&probs, 2);
        assert!(sampler.is_feasible());
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Vec::new();
        for _ in 0..200 {
            sampler.sample_into(&mut || rng.gen::<f64>(), &mut out);
            assert_eq!(out.len(), 2);
            assert!(out.contains(&1), "the certain site is always taken");
            assert!(!out.contains(&2), "the impossible site is never taken");
        }
        assert!(!FloatConditionalSampler::new(&probs, 0).is_feasible());
        assert!(!FloatConditionalSampler::new(&probs, 5).is_feasible());
    }
}
