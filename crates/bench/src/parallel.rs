//! Index-deterministic parallel mapping for independent experiment runs.
//!
//! The reproduction sweeps (headline workloads × baselines, repro sections)
//! are embarrassingly parallel: every item builds its own problem and calls
//! the allocator, sharing nothing. [`par_map`] fans such items out over
//! scoped threads and returns results **in input order**, so the produced
//! rows are byte-identical to a serial `map` — scheduling can never leak
//! into committed outputs. The worker count honours the
//! [`LemraConfig`](lemra_netflow::LemraConfig) thread setting
//! ([`LEMRA_THREADS`](lemra_netflow::THREADS_ENV)); `LEMRA_THREADS=1`
//! forces the serial path on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Equivalent to `items.into_iter().map(f).collect()` — including output
/// order — but runs on up to [`lemra_netflow::THREADS_ENV`]-many scoped
/// threads. `f` must be freely callable from any thread; per-item work
/// shares nothing.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_threads(
        lemra_netflow::LemraConfig::get().worker_count(items.len()),
        items,
        f,
    )
}

/// [`par_map`] with an explicit worker count (used by tests to compare the
/// serial and parallel paths without mutating the environment).
pub fn par_map_threads<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Hand out items by atomic index; collect (index, result) pairs and
    // reassemble in order. Items move into per-index cells so workers can
    // consume them without cloning.
    let cells: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|t| std::sync::Mutex::new(Some(t)))
        .collect();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(cells.len()) {
            let tx = tx.clone();
            let next = &next;
            let cells = &cells;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let item = cell
                    .lock()
                    .expect("no panics while holding the cell lock")
                    .take()
                    .expect("each index is claimed exactly once");
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);

    let mut out: Vec<Option<R>> = (0..cells.len()).map(|_| None).collect();
    for (i, r) in rx {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every index produced exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let got = par_map_threads(4, (0..100).collect(), |i| i * 2);
        assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_path() {
        let serial = par_map_threads(1, (0..37).collect(), |i| format!("r{i}"));
        let parallel = par_map_threads(8, (0..37).collect(), |i| format!("r{i}"));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single() {
        assert!(par_map_threads(4, Vec::<u32>::new(), |i| i).is_empty());
        assert_eq!(par_map_threads(4, vec![7], |i| i + 1), vec![8]);
    }
}
