//! Pluggable execution strategy for per-node simulation work.
//!
//! Both engines ([`crate::run_views`], [`crate::run_rounds`]) iterate over
//! nodes whose computations are independent by construction — the LOCAL
//! model *is* embarrassingly parallel within a round, and randomness comes
//! from per-`(run seed, node)` counter-mode streams rather than one shared
//! generator. A [`NodeExecutor`] decides how that independent work is
//! scheduled. The crate ships [`Sequential`]; `lcl-bench` provides a
//! rayon-backed executor. Because every executor must write result `i` to
//! slot `i` and node RNG streams never interleave, **any** executor yields
//! bit-identical outcomes to [`Sequential`] — the experiment engine's
//! determinism test enforces this.

/// Schedules independent per-node work items.
pub trait NodeExecutor {
    /// Computes `f(0), …, f(len - 1)` and returns the results in index
    /// order. `f` must be safe to call concurrently for distinct indices.
    fn map_nodes<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync;

    /// Applies `f(i, &mut items[i])` for every index. `f` must be safe to
    /// call concurrently for distinct indices.
    fn update_nodes<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync;

    /// Computes `f(0), …, f(len - 1)` and hands each result to `consume`
    /// on the calling thread, in index order: [`NodeExecutor::map_nodes`]
    /// for results that feed sequential work, such as the round engine's
    /// message routing. `f` must be safe to call concurrently for distinct
    /// indices. The default is [`map_consume_buffered`], which
    /// materializes every result first; an executor that stays on the
    /// calling thread (always, or whenever no worker is free to fan out
    /// to) overrides it to stream each result straight into `consume`.
    fn map_consume<T, F, C>(&self, len: usize, f: F, consume: C)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: FnMut(usize, T),
    {
        map_consume_buffered(self, len, f, consume);
    }

    /// Applies `f(k, &mut left[i], &mut right[i])` with `i = indices[k]`,
    /// for every `k`: the sparse counterpart of
    /// [`NodeExecutor::update_nodes`] over two per-node tables, which the
    /// round engine runs over its active frontier (node state and RNG
    /// stream). `f` must be safe to call concurrently for distinct
    /// indices, and `indices` must be distinct. The default is
    /// [`update_at_gathered`], which moves the named entries out and back
    /// around an [`NodeExecutor::update_nodes`] call; an executor that
    /// stays on the calling thread (always, or whenever no worker is free
    /// to fan out to) overrides it to update in place.
    fn update_at<T, U, F>(&self, left: &mut [T], right: &mut [U], indices: &[u32], f: F)
    where
        T: Send + Default,
        U: Send + Default,
        F: Fn(usize, &mut T, &mut U) + Sync,
    {
        update_at_gathered(self, left, right, indices, f);
    }

    /// [`NodeExecutor::map_nodes`] with per-worker scratch: each worker
    /// calls `init()` once and threads the value through its share of the
    /// indices. The scratch must be a pure accelerator (a cache, an
    /// arena): `f`'s results must not depend on how indices are grouped
    /// onto workers, or the bit-identical-under-any-executor guarantee is
    /// lost. The default creates a fresh scratch per index — correct for
    /// any conforming `f`, just without amortization; executors override
    /// it with real worker-scoped reuse.
    fn map_nodes_init<T, S, I, F>(&self, len: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        self.map_nodes(len, |i| f(&mut init(), i))
    }
}

/// The fan-out form of [`NodeExecutor::map_consume`]: computes every
/// result through [`NodeExecutor::map_nodes`], holding all of them at
/// once, then hands them to `consume` in index order.
pub fn map_consume_buffered<X, T, F, C>(exec: &X, len: usize, f: F, mut consume: C)
where
    X: NodeExecutor + ?Sized,
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, T),
{
    for (i, t) in exec.map_nodes(len, f).into_iter().enumerate() {
        consume(i, t);
    }
}

/// The fan-out form of [`NodeExecutor::update_at`]: moves the named
/// entries into a compact block (leaving defaults behind), runs
/// [`NodeExecutor::update_nodes`] over it, and moves them back.
pub fn update_at_gathered<X, T, U, F>(
    exec: &X,
    left: &mut [T],
    right: &mut [U],
    indices: &[u32],
    f: F,
) where
    X: NodeExecutor + ?Sized,
    T: Send + Default,
    U: Send + Default,
    F: Fn(usize, &mut T, &mut U) + Sync,
{
    let mut block: Vec<(T, U)> = indices
        .iter()
        .map(|&i| (std::mem::take(&mut left[i as usize]), std::mem::take(&mut right[i as usize])))
        .collect();
    exec.update_nodes(&mut block, |k, (t, u)| f(k, t, u));
    for ((t, u), &i) in block.into_iter().zip(indices) {
        left[i as usize] = t;
        right[i as usize] = u;
    }
}

/// Runs every work item on the calling thread, in index order.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sequential;

impl NodeExecutor for Sequential {
    fn map_nodes<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        (0..len).map(f).collect()
    }

    fn update_nodes<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
    }

    fn map_consume<T, F, C>(&self, len: usize, f: F, mut consume: C)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: FnMut(usize, T),
    {
        for i in 0..len {
            consume(i, f(i));
        }
    }

    fn update_at<T, U, F>(&self, left: &mut [T], right: &mut [U], indices: &[u32], f: F)
    where
        T: Send + Default,
        U: Send + Default,
        F: Fn(usize, &mut T, &mut U) + Sync,
    {
        for (k, &i) in indices.iter().enumerate() {
            f(k, &mut left[i as usize], &mut right[i as usize]);
        }
    }

    fn map_nodes_init<T, S, I, F>(&self, len: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        // One scratch for the whole sweep: the sequential executor is the
        // best case for cache-style scratch reuse.
        let mut scratch = init();
        (0..len).map(|i| f(&mut scratch, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_maps_in_order() {
        let out = Sequential.map_nodes(5, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn sequential_updates_in_place() {
        let mut items = vec![10u32, 20, 30];
        Sequential.update_nodes(&mut items, |i, x| *x += i as u32);
        assert_eq!(items, vec![10, 21, 32]);
    }

    #[test]
    fn map_nodes_init_shares_one_scratch_sequentially() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out = Sequential.map_nodes_init(
            5,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u32
            },
            |scratch, i| {
                *scratch += 1; // scratch persists across items...
                i * 2 // ...but never leaks into results
            },
        );
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
        assert_eq!(inits.load(Ordering::Relaxed), 1);
    }
}
