//! Partition-parallel execution: thread-count options, shard planning and
//! the scoped fan-out the physical operators run on.
//!
//! The ground/symbolic split of [`crate::ops`] makes the expensive part of
//! every operator embarrassingly parallel: between ground tuples every
//! §4.3 token is structural equality, so work cut into contiguous ranges
//! (a join's probe rows; the keyed fold's buckets — one per group key,
//! output tuple or projected tuple) yields shards whose outputs are
//! disjoint. Each shard runs the ordinary single-threaded loop on a scoped
//! worker thread ([`std::thread::scope`] — no dependencies, no `'static`
//! bounds, shards borrow their input directly); the per-shard results are
//! then concatenated **in shard order**, which is the serial order, so
//! every produced relation is deterministic. The symbolic fringe stays on
//! the sequential token path of `ops`, so results are bit-identical to the
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
use std::sync::OnceLock;

/// The environment variable overriding the executor thread count.
pub const THREADS_ENV: &str = "AGGPROV_THREADS";

/// Execution options for the physical operators: how many worker threads
/// an operator may shard its ground partition across.
///
/// `threads = 1` runs every operator on the calling thread (no shard
/// planning, no spawns); any higher count fans ground shards out over
/// scoped threads. Results are identical at every thread count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExecOptions {
    threads: usize,
}

impl ExecOptions {
    /// Single-threaded execution — what the operators without an `_opts`
    /// form (`ops::join_on`, `ops::project`, …) run under.
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
    #[expect(
        clippy::disallowed_methods,
        reason = "AGGPROV_THREADS is read here and nowhere else"
    )]
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

/// Cuts `n` work items into contiguous ascending ranges `(start, end)`,
/// one per planned worker from `min_rows` items on; a single range means
/// "stay serial". The ranges cover `0..n` in order, so concatenating the
/// per-range results reproduces the serial loop.
pub(crate) fn ranges(n: usize, min_rows: usize, opts: &ExecOptions) -> Vec<(usize, usize)> {
    let shards = if n >= min_rows {
        plan_shards(opts, n)
    } else {
        1
    };
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Runs the first shard on the calling thread and one scoped worker per
/// other shard, and returns the per-shard results **in shard order** (the
/// deterministic merge order). A single shard runs inline — no thread is
/// ever spawned for serial execution. The first shard error (in shard
/// order) wins; worker panics propagate.
///
/// The calling thread works rather than waits: a worker allocates in an
/// allocator arena of its own, whose high-water mark adds to the
/// process's, so `n` shards hold `n - 1` extra arenas, not `n`.
pub(crate) fn fan_out<T: Send, R: Send>(
    shards: Vec<T>,
    f: impl Fn(T) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    let mut shards = shards.into_iter();
    let Some(first) = shards.next() else {
        return Ok(Vec::new());
    };
    if shards.len() == 0 {
        return Ok(vec![f(first)?]);
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = shards.map(|shard| scope.spawn(move || f(shard))).collect();
        let first = f(first);
        std::iter::once(first)
            .chain(handles.into_iter().map(|h| match h.join() {
                Ok(result) => result,
                Err(panic) => std::panic::resume_unwind(panic),
            }))
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
        // Contiguous ascending shards that cover every row exactly once —
        // at, above and below the threshold, and with fewer rows than
        // workers.
        let opts = ExecOptions::with_threads(4);
        for (n, min_rows, want_shards) in [(100, 10, 4), (100, 100, 4), (99, 100, 1), (3, 1, 3)] {
            let shards = ranges(n, min_rows, &opts);
            assert_eq!(shards.len(), want_shards, "{n} rows from {min_rows}");
            let mut next = 0;
            for &(start, end) in &shards {
                assert_eq!(start, next, "contiguous");
                assert!(start < end, "no empty shard");
                next = end;
            }
            assert_eq!(next, n, "every row once");
        }
        assert_eq!(ranges(0, 0, &opts), vec![(0, 0)]);
        assert_eq!(ranges(100, 1, &ExecOptions::serial()), vec![(0, 100)]);
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
