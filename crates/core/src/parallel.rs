//! Scoped fork/join over a slice — the engine's only threading primitive.
//!
//! Built on [`std::thread::scope`] so worker closures can borrow the
//! engine's state (`&Database`, `&PreparedAudit`, the shared [`Governor`])
//! without `'static` bounds or new dependencies. Workers pull item indices
//! from a shared atomic counter (dynamic scheduling: one slow item does not
//! stall a whole pre-partitioned chunk) and results are returned **in item
//! order**, so callers observe the same sequence a sequential loop would
//! produce regardless of which worker ran which item.
//!
//! [`Governor`]: crate::governor::Governor

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on up to `parallelism` scoped worker threads,
/// returning results in item order.
///
/// With `parallelism <= 1` (or fewer than two items) this degenerates to a
/// plain sequential loop on the calling thread — no threads are spawned, so
/// `parallelism` 1 is exactly the sequential path, not an emulation of it.
/// A panicking worker is resumed on the caller via
/// [`std::panic::resume_unwind`], preserving the panic payload.
pub fn par_map<T, R, F>(parallelism: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = parallelism.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);

    let chunks = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(i, item)));
                    }
                    done
                })
            })
            .collect();
        let mut chunks = Vec::with_capacity(workers);
        for h in handles {
            match h.join() {
                Ok(c) => chunks.push(c),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        chunks
    });

    for (i, r) in chunks.into_iter().flatten() {
        slots[i] = Some(r);
    }
    // Every index was claimed by exactly one worker, so every slot is full.
    slots.into_iter().flatten().collect()
}

/// The default worker count: the machine's available parallelism, or 1 when
/// that cannot be determined. On Linux it honours the process's CPU affinity
/// mask (`taskset`) and cgroup CPU quota, which is how an operator bounds the
/// worker count.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            let out = par_map(threads, &items, |i, t| {
                assert_eq!(i, *t);
                t * 3
            });
            assert_eq!(out, items.iter().map(|t| t * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item_slices() {
        let none: Vec<i32> = Vec::new();
        assert!(par_map(8, &none, |_, t| *t).is_empty());
        assert_eq!(par_map(8, &[41], |_, t| t + 1), vec![42]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..32).collect();
        let r = std::panic::catch_unwind(|| {
            par_map(4, &items, |_, t| {
                if *t == 17 {
                    panic!("boom at 17");
                }
                *t
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }
}
