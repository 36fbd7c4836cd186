//! Shared inputs for the paper-experiment benches and the `tables` bin:
//! the Figure 2 scenario at scale and a benign salary distribution. The
//! end-to-end + per-layer benchmark (`src/bin/e2e/`, `BENCHMARK.json`) is
//! self-contained and imports nothing from here.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

use aggprov_algebra::num::Num;
use aggprov_algebra::poly::Var;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A single-attribute annotated input of `n` tuples with distinct tokens —
/// the Figure 2 scenario at scale: values chosen so subset sums are mostly
/// distinct (worst case for the naive table).
pub fn fig2_input(n: usize) -> Vec<(Var, Num)> {
    (0..n)
        .map(|i| (Var::new(&format!("p{i}")), Num::int(1 << i.min(40))))
        .collect()
}

/// Random salaries for `n` tuples with distinct tokens (benign value
/// distribution).
pub fn salary_input(n: usize, seed: u64) -> Vec<(Var, Num)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (
                Var::new(&format!("p{i}")),
                Num::int(rng.random_range(10..200)),
            )
        })
        .collect()
}
