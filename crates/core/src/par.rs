//! Partition-parallel execution: thread-count options, shard planning and
//! the scoped fan-out the physical operators run on.
//!
//! The ground/symbolic split of [`crate::ops`] makes the expensive part of
//! every operator embarrassingly parallel: ground tuples interact only
//! through structural key equality, so partitioning them by operator key
//! (a join's two sides by join-key hash; the keyed fold's buckets — one per
//! group key, output tuple or projected tuple — by contiguous range) yields
//! shards whose outputs are disjoint. Each shard runs the ordinary
//! single-threaded algorithm on a scoped worker thread
//! ([`std::thread::scope`] — no dependencies, no `'static` bounds, shards
//! borrow the input relations directly); the per-shard results are then
//! folded **in shard order** into one output map, which keeps merge order
//! — and therefore every produced relation — deterministic. The symbolic fringe stays on the
//! sequential token path of `ops`, so results are bit-identical to the
//! [`crate::specops`] oracle at every thread count (property-tested in
//! `tests/par_determinism_proptests.rs`).
//!
//! Thread count comes from [`ExecOptions`]: explicitly
//! ([`ExecOptions::with_threads`]), from the `AGGPROV_THREADS` environment
//! variable ([`ExecOptions::from_env`], the engine's default), or the
//! machine's available parallelism. An unparseable `AGGPROV_THREADS` is a
//! loud [`RelError::InvalidEnv`] naming the variable and the bad value —
//! never a silent fallback to serial execution.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use aggprov_krel::error::{RelError, Result};
pub use aggprov_krel::relation::shard_index;
use std::sync::OnceLock;

/// The environment variable overriding the executor thread count.
pub const THREADS_ENV: &str = "AGGPROV_THREADS";

/// Execution options for the physical operators: how many worker threads
/// an operator may shard its ground partition across.
///
/// `threads = 1` is the exact single-threaded code path of PR 2 (no shard
/// planning, no spawns); any higher count fans ground shards out over
/// scoped threads. Results are identical at every thread count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExecOptions {
    threads: usize,
}

impl ExecOptions {
    /// Single-threaded execution (the PR 2 behaviour; also what the plain
    /// `ops::join_on`-style wrappers use).
    pub fn serial() -> Self {
        ExecOptions { threads: 1 }
    }

    /// Execution with exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads: threads.max(1),
        }
    }

    /// One worker per hardware thread the process can use — the
    /// parallelism the OS reports at first use: the query (cgroup and
    /// affinity reads, microseconds) is made once per process and kept.
    pub fn available() -> Self {
        static AVAILABLE: OnceLock<usize> = OnceLock::new();
        Self::with_threads(*AVAILABLE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }))
    }

    /// The engine default: `AGGPROV_THREADS` when set, otherwise the
    /// machine's available parallelism.
    ///
    /// A set-but-unusable value (not a positive integer thread count) is
    /// a loud [`RelError::InvalidEnv`] — `AGGPROV_THREADS=fast` must fail
    /// the query, not silently serialize it.
    pub fn from_env() -> Result<Self> {
        match std::env::var(THREADS_ENV) {
            Err(std::env::VarError::NotPresent) => Ok(Self::available()),
            Err(std::env::VarError::NotUnicode(raw)) => Err(RelError::InvalidEnv {
                var: THREADS_ENV,
                value: raw.to_string_lossy().into_owned(),
                expected: "a positive integer thread count",
            }),
            Ok(s) => match s.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Ok(Self::with_threads(n)),
                _ => Err(RelError::InvalidEnv {
                    var: THREADS_ENV,
                    value: s,
                    expected: "a positive integer thread count",
                }),
            },
        }
    }

    /// The worker-thread count (at least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True iff execution is single-threaded.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }
}

impl Default for ExecOptions {
    /// Defaults to the machine's available parallelism (the documented
    /// engine default; use [`ExecOptions::serial`] for the single-threaded
    /// path).
    fn default() -> Self {
        Self::available()
    }
}

/// How many shards to cut `items` work items into: one per worker thread,
/// never more than there are items, never zero. `1` means "run the serial
/// path" — callers skip shard planning entirely.
pub(crate) fn plan_shards(opts: &ExecOptions, items: usize) -> usize {
    opts.threads().min(items).max(1)
}

/// Splits borrowed entries into `n` shards, preserving input order within
/// each shard (the property the deterministic merges rely on). The caller
/// supplies the shard index directly — typically `shard_index(key, n)`,
/// computed exactly once per entry; entries with equal keys must map to
/// the same index.
pub(crate) fn split_by<T: Copy>(
    entries: &[T],
    n: usize,
    shard_of: impl Fn(&T) -> usize,
) -> Vec<Vec<T>> {
    let mut shards: Vec<Vec<T>> = (0..n.max(1)).map(|_| Vec::new()).collect();
    for e in entries {
        #[expect(
            clippy::indexing_slicing,
            reason = "shard_of returns hash % n, always < shards.len()"
        )]
        shards[shard_of(e)].push(*e);
    }
    shards
}

/// Runs one scoped worker per shard and returns the per-shard results **in
/// shard order** (the deterministic merge order). A single shard runs
/// inline — no thread is ever spawned for serial execution. The first
/// shard error (in shard order) wins; worker panics propagate.
pub(crate) fn fan_out<T: Send, R: Send>(
    shards: Vec<T>,
    f: impl Fn(T) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    if shards.len() <= 1 {
        return shards.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| scope.spawn(move || f(shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_clamp_to_one() {
        assert_eq!(ExecOptions::with_threads(0).threads(), 1);
        assert!(ExecOptions::with_threads(0).is_serial());
        assert_eq!(ExecOptions::with_threads(8).threads(), 8);
        assert!(ExecOptions::serial().is_serial());
        assert!(ExecOptions::available().threads() >= 1);
    }

    #[test]
    fn shard_planning_never_exceeds_items() {
        let opts = ExecOptions::with_threads(8);
        assert_eq!(plan_shards(&opts, 0), 1);
        assert_eq!(plan_shards(&opts, 3), 3);
        assert_eq!(plan_shards(&opts, 100), 8);
        assert_eq!(plan_shards(&ExecOptions::serial(), 100), 1);
    }

    #[test]
    fn split_preserves_order_and_key_locality() {
        let entries: Vec<u32> = (0..100).collect();
        let shards = split_by(&entries, 4, |e| shard_index(&(*e % 10), 4));
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 100);
        for shard in &shards {
            assert!(shard.windows(2).all(|w| w[0] < w[1]), "order preserved");
        }
        // Equal keys co-locate: 3 and 13 share `key = 3`.
        let home = shards.iter().position(|s| s.contains(&3)).unwrap();
        assert!(shards[home].contains(&13));
    }

    #[test]
    fn fan_out_returns_shard_order_and_first_error() {
        let doubled = fan_out(vec![1u32, 2, 3, 4], |x| Ok(x * 2)).unwrap();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        let err = fan_out(vec![1u32, 2, 3], |x| {
            if x >= 2 {
                Err(RelError::Unsupported(format!("shard {x}")))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "unsupported: shard 2", "shard order wins");
    }

    // `from_env` is covered by `tests/exec_options_env.rs`, an integration
    // test isolated in its own binary: the variable is process-global and
    // mutating it here would race any future unit test that reads it.
}
