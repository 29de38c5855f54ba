//! Locks with the `parking_lot` calling convention, plus scoped fan-out
//! helpers that cover the workspace's `crossbeam` use cases.
//!
//! `parking_lot` guards are acquired with plain `.lock()` / `.read()` /
//! `.write()` — no `Result`. These wrappers keep that shape over
//! `std::sync` by treating a poisoned lock as still usable: the data a
//! panicked thread left behind is exactly as observable as it would be
//! under `parking_lot`, which has no poisoning at all.

use std::ops::Range;
use std::sync::{self, LockResult, MutexGuard, OnceLock, RwLockReadGuard, RwLockWriteGuard};

fn ignore_poison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A mutex whose `lock` never returns a `Result`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        ignore_poison(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        ignore_poison(self.inner.lock())
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        ignore_poison(self.inner.get_mut())
    }
}

/// A reader-writer lock whose `read`/`write` never return a `Result`.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        ignore_poison(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard, recovering from poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        ignore_poison(self.inner.read())
    }

    /// Acquire an exclusive write guard, recovering from poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        ignore_poison(self.inner.write())
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        ignore_poison(self.inner.get_mut())
    }
}

/// An atomically swappable `Arc<T>`: readers `load` a cheap clone of the
/// current `Arc`, a writer `store`s a replacement, and neither ever sees
/// a half-published value. This is the std-only stand-in for the
/// `arc-swap` crate's `ArcSwap`: the lock is held only for the pointer
/// clone/replace (never across user code), so readers are wait-bounded
/// and a swap is one pointer write.
///
/// The snapshot-isolation layer in `probkb-server` publishes immutable
/// epochs through this cell: queries resolve against whatever `load`
/// returns and keep that epoch alive for the whole request, regardless
/// of concurrent swaps.
#[derive(Debug)]
pub struct ArcCell<T> {
    inner: RwLock<std::sync::Arc<T>>,
}

impl<T> ArcCell<T> {
    /// Wrap an initial value.
    pub fn new(value: std::sync::Arc<T>) -> Self {
        ArcCell {
            inner: RwLock::new(value),
        }
    }

    /// Clone the current `Arc` (the caller's snapshot survives later
    /// `store`s untouched).
    pub fn load(&self) -> std::sync::Arc<T> {
        self.inner.read().clone()
    }

    /// Atomically replace the current value, returning the previous one.
    pub fn store(&self, value: std::sync::Arc<T>) -> std::sync::Arc<T> {
        std::mem::replace(&mut *self.inner.write(), value)
    }
}

/// Fan `items` out over at most `threads` contiguous chunks, run `f` on
/// each chunk in a scoped thread, and concatenate the per-chunk results
/// **in chunk order**. `f` receives the chunk index, so callers can seed
/// per-chunk RNGs and stay deterministic regardless of interleaving.
///
/// With one thread (or one chunk) the closure runs on the caller's
/// thread — the output is identical either way.
pub fn map_chunks<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> Vec<U> + Sync,
{
    map_ranges(items.len(), threads, |idx, range| f(idx, &items[range]))
}

/// [`map_chunks`] over the positions `0..len` instead of a slice: `f`
/// receives each chunk's index and its contiguous position range, cut
/// exactly where `map_chunks` cuts a slice of `len` items. For callers
/// that read several parallel arrays at the same positions.
pub fn map_ranges<U, F>(len: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize, Range<usize>) -> Vec<U> + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let chunk = len.div_ceil(threads.max(1)).max(1);
    if chunk >= len {
        return f(0, 0..len);
    }
    let mut out = Vec::with_capacity(len);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .enumerate()
            .map(|(idx, lo)| scope.spawn(move || f(idx, lo..(lo + chunk).min(len))))
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("map_chunks worker panicked"));
        }
    });
    out
}

/// Parse a positive worker count from an environment variable. Unset,
/// unparsable, or zero values all mean `None` — every `PROBKB_*` worker
/// knob treats those as "keep the serial default". Callers cache the
/// result (the knobs are read once per process); this helper only does
/// the parsing so all knobs agree on the accepted syntax.
pub fn env_workers(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The process-wide default worker-thread budget, read **once** from the
/// `PROBKB_THREADS` environment variable and cached. Unset, unparsable,
/// or zero values all mean 1 — parallel execution is opt-in, and the
/// serial engine stays the reference behaviour. Callers that need a
/// different budget mid-process (tests comparing thread counts) should
/// take an explicit override instead of re-reading the environment.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| env_workers("PROBKB_THREADS").unwrap_or(1))
}

/// Run `f(0), f(1), …, f(n-1)` on at most `threads` workers and return the
/// results in index order. The task-list sibling of [`map_chunks`], for
/// fork-joining over independent work items (per-partition hash tables,
/// per-pattern grounding plans) rather than slices.
pub fn map_indices<U, F>(n: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    map_ranges(n, threads, |_, range| range.map(&f).collect())
}

/// Run `f` mutably on disjoint chunks of `items` in parallel, chunk index
/// passed along. The mutable-slice sibling of [`map_chunks`].
pub fn for_each_chunk_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if items.is_empty() {
        return;
    }
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    if chunk >= items.len() {
        f(0, items);
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        for (idx, part) in items.chunks_mut(chunk).enumerate() {
            scope.spawn(move || f(idx, part));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrips_and_survives_panic() {
        let m = Arc::new(Mutex::new(0u32));
        *m.lock() += 5;
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: still lockable, data still there.
        assert_eq!(*m.lock(), 5);
        assert_eq!(Arc::try_unwrap(m).unwrap().into_inner(), 5);
    }

    #[test]
    fn rwlock_allows_many_readers() {
        let lock = RwLock::new(vec![1, 2, 3]);
        {
            let a = lock.read();
            let b = lock.read();
            assert_eq!(a.len() + b.len(), 6);
        }
        lock.write().push(4);
        assert_eq!(lock.read().len(), 4);
    }

    #[test]
    fn default_and_debug_are_derived() {
        let m: Mutex<Vec<u8>> = Mutex::default();
        assert!(m.lock().is_empty());
        let l: RwLock<u64> = RwLock::default();
        assert_eq!(format!("{l:?}").is_empty(), false);
    }

    #[test]
    fn map_chunks_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 3, 8, 2000] {
            let doubled = map_chunks(&items, threads, |_idx, part| {
                part.iter().map(|x| x * 2).collect()
            });
            assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = map_chunks(&[] as &[usize], 4, |_, _| vec![0]);
        assert!(empty.is_empty());
    }

    #[test]
    fn map_chunks_passes_chunk_index() {
        let items: Vec<u8> = vec![0; 40];
        let tags = map_chunks(&items, 4, |idx, part| vec![idx; part.len()]);
        assert_eq!(tags.len(), 40);
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        assert_eq!(tags, sorted, "chunk order preserved");
        assert_eq!(*tags.last().unwrap(), 3);
    }

    #[test]
    fn map_indices_runs_every_index_in_order() {
        for threads in [1, 3, 16] {
            let squares = map_indices(9, threads, |i| i * i);
            assert_eq!(squares, (0..9).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(map_indices(0, 4, |i| i).is_empty());
    }

    #[test]
    fn default_threads_is_at_least_one_and_stable() {
        // The env var is read once and cached: two calls agree, and the
        // result is always a usable thread count.
        let a = default_threads();
        let b = default_threads();
        assert_eq!(a, b);
        assert!(a >= 1);
    }

    #[test]
    fn for_each_chunk_mut_touches_every_item() {
        let mut items = vec![1u64; 999];
        for_each_chunk_mut(&mut items, 7, |idx, part| {
            for x in part {
                *x += idx as u64 * 1000;
            }
        });
        assert!(items.iter().all(|&x| x % 1000 == 1));
        assert!(items.iter().any(|&x| x > 1000));
    }
}
