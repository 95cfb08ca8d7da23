//! Workload inputs drawn from the seed, and the statistics the report
//! uses.
//!
//! The program under test receives only the operations generated here;
//! every choice (suite, kind, arrival time, payload) comes from a
//! `DetRng` seeded by `--seed`, so one seed always yields one input.

use std::collections::HashSet;

use bytes::Bytes;
use wv_sim::{DetRng, SimDuration};
use wv_storage::ObjectId;

use crate::node::Op;

/// How operations pick their suite.
#[derive(Clone, Copy, Debug)]
pub enum Skew {
    /// Popularity ∝ 1/(rank + 1): suite 1 is the hot one.
    Zipf,
    /// Every suite equally likely.
    Uniform,
}

/// The operation mix, in sixteenths.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Reads out of every 16 operations.
    pub reads: u64,
    /// Two-suite transactions out of every 16; the rest are writes.
    pub txns: u64,
}

/// Draws operations for one workload and remembers every payload it
/// handed out, for the oracle's provenance check.
pub struct OpGen {
    seed: u64,
    suites: Vec<ObjectId>,
    cdf: Vec<f64>,
    mix: Mix,
    tag: u64,
    /// Every payload written, across all phases.
    pub sent: HashSet<Vec<u8>>,
}

impl OpGen {
    /// A generator over `suites` suites (ids 1..=suites).
    pub fn new(seed: u64, suites: usize, skew: Skew, mix: Mix) -> Self {
        assert!(suites >= 2, "transactions pair distinct suites");
        let weights: Vec<f64> = (0..suites)
            .map(|k| match skew {
                Skew::Zipf => 1.0 / (k + 1) as f64,
                Skew::Uniform => 1.0,
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        OpGen {
            seed,
            suites: (1..=suites as u64).map(ObjectId).collect(),
            cdf,
            mix,
            tag: 0,
            sent: HashSet::new(),
        }
    }

    /// The suites, in id order.
    pub fn suites(&self) -> &[ObjectId] {
        &self.suites
    }

    fn pick(&self, rng: &mut DetRng) -> usize {
        let x = rng.f64();
        self.cdf
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.cdf.len() - 1)
    }

    /// A payload no other operation of this run writes.
    fn payload(&mut self) -> Bytes {
        self.tag += 1;
        let bytes = format!("perfbench-{:016x}-{:08x}", self.seed, self.tag).into_bytes();
        self.sent.insert(bytes.clone());
        Bytes::from(bytes)
    }

    /// A write of `suites()[idx]`.
    pub fn write(&mut self, idx: usize) -> Op {
        let value = self.payload();
        Op::Write(self.suites[idx], value)
    }

    /// One operation drawn from the mix.
    pub fn next(&mut self, rng: &mut DetRng) -> Op {
        let idx = self.pick(rng);
        let roll = rng.below(16);
        if roll < self.mix.reads {
            Op::Read(self.suites[idx])
        } else if roll < self.mix.reads + self.mix.txns {
            // The partner is the next suite, so a transaction's touched
            // suites follow from its primary one.
            let partner = (idx + 1) % self.suites.len();
            let a = self.payload();
            let b = self.payload();
            Op::Txn(vec![(self.suites[idx], a), (self.suites[partner], b)])
        } else {
            self.write(idx)
        }
    }

    /// `n` operations drawn from the mix.
    pub fn ops(&mut self, rng: &mut DetRng, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next(rng)).collect()
    }

    /// `n` operations with Poisson arrivals at `rate` per second: each
    /// paired with its offset from the phase start.
    pub fn arrivals(&mut self, rng: &mut DetRng, n: usize, rate: f64) -> Vec<(SimDuration, Op)> {
        let mean_ms = 1000.0 / rate;
        let mut at_ms = 0.0;
        (0..n)
            .map(|_| {
                at_ms += rng.exponential(mean_ms);
                (
                    SimDuration::from_micros((at_ms * 1e3) as u64),
                    self.next(rng),
                )
            })
            .collect()
    }

    /// The set-up history: `per_suite` writes to every suite, evenly
    /// spaced so that writes to one suite are `gap` apart and never
    /// contend.
    pub fn history(&mut self, per_suite: usize, gap: SimDuration) -> Vec<(SimDuration, Op)> {
        let n = self.suites.len();
        let step = gap.as_micros() / n as u64;
        let mut out = Vec::with_capacity(per_suite * n);
        for j in 0..per_suite {
            for s in 0..n {
                let at = SimDuration::from_micros(((j * n + s) as u64) * step);
                out.push((at, self.write(s)));
            }
        }
        out
    }
}

/// Nearest-rank percentile of `sorted` (ascending), `q` in (0, 1].
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Share of `latencies` over `limit` (failed operations are infinite,
/// so they always miss).
pub fn miss_frac(latencies: &[f64], limit: f64) -> f64 {
    latencies.iter().filter(|&&l| l > limit).count() as f64 / latencies.len().max(1) as f64
}

/// The highest rate at which the p99 latency meets its limit, that is at
/// which at most 1% of operations miss it. `rungs` holds `(rate, share
/// of ops over the limit)` in ascending rate order; the answer is
/// interpolated linearly between the last rung within 1% and the first
/// beyond it. `None` when even the lowest rung misses.
pub fn rate_at_limit(rungs: &[(f64, f64)]) -> Option<f64> {
    const TAIL: f64 = 0.01;
    match rungs.iter().position(|&(_, miss)| miss > TAIL) {
        None => rungs.last().map(|&(r, _)| r),
        Some(0) => None,
        Some(k) => {
            let (r0, m0) = rungs[k - 1];
            let (r1, m1) = rungs[k];
            Some(r0 + (r1 - r0) * (TAIL - m0) / (m1 - m0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn the_ladder_interpolates_where_one_percent_misses() {
        let rungs = [(100.0, 0.0), (200.0, 0.005), (300.0, 0.015)];
        assert_eq!(rate_at_limit(&rungs), Some(250.0));
        assert_eq!(rate_at_limit(&rungs[..2]), Some(200.0));
        assert_eq!(rate_at_limit(&rungs[2..]), None);
        assert_eq!(miss_frac(&[1.0, 5.0, f64::INFINITY, 2.0], 4.0), 0.5);
    }

    #[test]
    fn one_seed_draws_one_workload() {
        let draw = |seed| {
            let mut g = OpGen::new(seed, 8, Skew::Zipf, Mix { reads: 8, txns: 2 });
            let mut rng = DetRng::new(seed);
            format!("{:?}", g.arrivals(&mut rng, 50, 100.0))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
