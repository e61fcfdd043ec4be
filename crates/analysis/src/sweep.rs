//! Parallel parameter sweeps.
//!
//! Individual simulations are inherently sequential (one global event
//! order), so parallelism lives at the sweep level: every `(parameters,
//! seed)` cell, or every whole scenario, is an independent task. We fan
//! tasks out over std scoped threads with an atomic work index — the
//! classic embarrassingly-parallel outer loop, with zero shared mutable
//! state between tasks (workers send results over a channel and the
//! caller files each into its input-order slot).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item, in parallel, preserving order of results.
///
/// `f` must be `Sync` (it is shared across workers) and is called exactly
/// once per item. The number of workers defaults to available parallelism
/// capped by the item count.
pub fn parallel_map<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<O>> = (0..items.len()).map(|_| None).collect();
    // Workers send `(index, result)` pairs over a channel and the caller
    // files each into its slot, so no result slot is shared.
    let (tx, rx) = std::sync::mpsc::channel::<(usize, O)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(&items[i]);
                // The receiver outlives all senders within the scope.
                let _ = tx.send((i, out));
            });
        }
        drop(tx);
        for (i, out) in rx {
            results[i] = Some(out);
        }
    });
    results
        .into_iter()
        .map(|o| o.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn calls_each_item_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<u32> = (0..257).collect();
        let _ = parallel_map(&items, |_| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(&Vec::<u32>::new(), |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(&[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn parallel_results_match_serial() {
        // A mildly expensive pure function: result must be identical to the
        // serial map regardless of scheduling.
        let items: Vec<u64> = (1..200).collect();
        let work = |&x: &u64| -> u64 {
            let mut acc = x;
            for _ in 0..1000 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        assert_eq!(
            parallel_map(&items, work),
            items.iter().map(work).collect::<Vec<_>>()
        );
    }
}
