//! Thread fan-out for independent simulation units.
//!
//! Two kinds of work in this workspace are embarrassingly parallel and
//! fully deterministic:
//!
//! * **experiment grid cells** (every load point of a latency-throughput
//!   curve, every cell of an agent-scaling sweep) — read-only inputs,
//!   each cell owns its RNG, results return in input order; and
//! * **agent shards** (the K runtimes a sharded resource manager fans
//!   its batch space across) — each shard owns *all* of its mutable
//!   state (runtime, policy, interconnect, RNG), so shards can run on
//!   real OS threads without sharing anything.
//!
//! [`par_map`] covers the first shape, [`par_map_mut`] the second.
//! Determinism is unaffected by the threading: no state is shared, and
//! results always come back in input order.
//!
//! [`par_map`] runs on a **bounded worker pool** ([`workers`] threads,
//! defaulting to the machine's parallelism) rather than a thread per
//! item: experiment grids routinely carry dozens of multi-second cells,
//! and an unbounded spawn oversubscribes the cores, inflating every
//! cell's wall time and the tail of the whole sweep. Workers pull cells
//! from a shared atomic cursor, so a long cell never blocks the queue
//! behind it. [`par_map_mut`] keeps the thread-per-item shape — shard
//! counts are small (K ≤ 8 everywhere in the workspace) and each shard
//! is expected to occupy a core for the whole call.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of pool workers [`par_map`] uses for `n_items` work items:
/// the machine's available parallelism, clamped to the item count.
pub fn workers(n_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    hw.min(n_items).max(1)
}

/// Maps `f` over `items` on a bounded pool of [`workers`] threads,
/// preserving input order in the results.
///
/// Work is distributed dynamically: each worker claims the next
/// unclaimed item when it finishes its current one, so heterogeneous
/// cell durations (a saturated load point next to an idle one) balance
/// automatically. Every `wave-lab` sweep fans out through here.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let cursor = AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<R>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers(n))
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&items[i]);
                    *results[i].lock().expect("result slot poisoned") = Some(r);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("simulation worker panicked");
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker pool covered every item")
        })
        .collect()
}

/// Like [`par_map`], but over exclusive (`&mut`) items — one OS thread
/// per item, results in input order.
///
/// This is the fan-out shape of a sharded agent deployment: each item is
/// one shard's complete mutable world, so the borrow checker proves the
/// threads share nothing and the run is deterministic regardless of
/// interleaving. Shard counts are small, so no pool is needed here.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .iter_mut()
            .map(|item| scope.spawn(|| f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let xs: Vec<u64> = (0..32).collect();
        let ys = par_map(&xs, |&x| x * x);
        assert_eq!(ys, xs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let ys: Vec<u64> = par_map(&[] as &[u64], |&x| x);
        assert!(ys.is_empty());
    }

    #[test]
    fn more_items_than_workers() {
        // Far more items than any machine has cores: exercises the
        // dynamic cursor, every item must be claimed exactly once.
        let xs: Vec<u64> = (0..997).collect();
        let ys = par_map(&xs, |&x| x + 1);
        assert_eq!(ys, (1..998).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Mix long and short cells; order must still be input order.
        let xs: Vec<u64> = (0..64).collect();
        let ys = par_map(&xs, |&x| {
            if x.is_multiple_of(7) {
                // Busy-work to skew durations.
                (0..10_000u64).fold(x, |a, b| a.wrapping_add(b))
            } else {
                x
            }
        });
        for (i, &y) in ys.iter().enumerate() {
            let x = i as u64;
            let want = if x.is_multiple_of(7) {
                (0..10_000u64).fold(x, |a, b| a.wrapping_add(b))
            } else {
                x
            };
            assert_eq!(y, want);
        }
    }

    #[test]
    fn workers_clamps_to_items() {
        assert_eq!(workers(1), 1);
        assert!(workers(2) <= 2);
        assert!(workers(0) >= 1);
        assert!(workers(10_000) >= 1);
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_preserves_order() {
        let mut xs: Vec<u64> = (0..16).collect();
        let ys = par_map_mut(&mut xs, |x| {
            *x += 100;
            *x
        });
        assert_eq!(xs, (100..116).collect::<Vec<_>>());
        assert_eq!(ys, xs);
    }

    #[test]
    fn par_map_mut_empty_input() {
        let ys: Vec<u64> = par_map_mut(&mut [] as &mut [u64], |&mut x| x);
        assert!(ys.is_empty());
    }
}
