//! Parallel parameter sweeps.
//!
//! Individual simulations are inherently sequential (one global event
//! order), so parallelism lives at the sweep level: every `(parameters,
//! seed)` cell is an independent task. We fan tasks out over std scoped
//! threads with an atomic work index — the classic
//! embarrassingly-parallel outer loop, with zero shared mutable state
//! between tasks (each worker writes to its own pre-allocated output
//! slots).

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

/// A boxed one-shot job for [`fan_out`].
pub type Job<'a, O> = Box<dyn FnOnce() -> O + Send + 'a>;

/// Fans heterogeneous one-shot jobs out over `std::thread::scope`,
/// preserving result order.
///
/// This is the scenario-level runner behind `gcs_bench::scenario`: each
/// job is a whole experiment (itself free to call [`parallel_map`] for its
/// inner sweep). Jobs are claimed by an atomic work index; each boxed
/// closure is taken exactly once, so `FnOnce` jobs (holding owned state)
/// are fine.
pub fn fan_out<'a, O: Send>(jobs: Vec<Job<'a, O>>) -> Vec<O> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(jobs.len());
    if workers <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let slots: Vec<std::sync::Mutex<Option<Job<'a, O>>>> = jobs
        .into_iter()
        .map(|j| std::sync::Mutex::new(Some(j)))
        .collect();
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, O)>();
    let mut results: Vec<Option<O>> = (0..slots.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let slots = &slots;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .expect("job mutex poisoned")
                    .take()
                    .expect("job claimed twice");
                let _ = tx.send((i, job()));
            });
        }
        drop(tx);
        for (i, out) in rx {
            results[i] = Some(out);
        }
    });
    results
        .into_iter()
        .map(|o| o.expect("every job produced exactly once"))
        .collect()
}

/// Runs `f` for every `(param, seed)` pair with seeds `0..repeats`, in
/// parallel, and returns `repeats` results per parameter, grouped by
/// parameter in input order.
pub fn parallel_repeats<P, O, F>(params: &[P], repeats: u64, f: F) -> Vec<Vec<O>>
where
    P: Sync,
    O: Send,
    F: Fn(&P, u64) -> O + Sync,
{
    let tasks: Vec<(usize, u64)> = (0..params.len())
        .flat_map(|i| (0..repeats).map(move |s| (i, s)))
        .collect();
    let flat = parallel_map(&tasks, |&(i, seed)| f(&params[i], seed));
    let mut grouped: Vec<Vec<O>> = (0..params.len()).map(|_| Vec::new()).collect();
    for ((i, _), out) in tasks.into_iter().zip(flat) {
        grouped[i].push(out);
    }
    grouped
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
    fn fan_out_preserves_order_and_runs_each_once() {
        let calls = AtomicU64::new(0);
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..37u64)
            .map(|i| {
                let calls = &calls;
                Box::new(move || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i * 3
                }) as Box<dyn FnOnce() -> u64 + Send>
            })
            .collect();
        let out = fan_out(jobs);
        assert_eq!(out, (0..37u64).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 37);
        assert!(fan_out::<u64>(Vec::new()).is_empty());
    }

    #[test]
    fn repeats_grouping() {
        let grouped = parallel_repeats(&[10u64, 20u64], 3, |&p, seed| p + seed);
        assert_eq!(grouped, vec![vec![10, 11, 12], vec![20, 21, 22]]);
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
