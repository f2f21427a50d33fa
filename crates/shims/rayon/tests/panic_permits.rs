//! A panicking `par_iter` must hand its worker permits back. The permit
//! counter is process-global, so this check runs in a test binary of its
//! own: no sibling test can hold permits while it counts worker threads.

use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The number of distinct threads that run a 64-item `par_iter`. Each item
/// waits until as many threads as the machine could grant have shown up,
/// or until one shared deadline passes, so the count does not depend on
/// how fast the workers start.
fn distinct_worker_threads() -> usize {
    let expected = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let deadline = Instant::now() + Duration::from_secs(10);
    let _: Vec<()> = (0..64)
        .into_par_iter()
        .map(|_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            while seen.lock().unwrap().len() < expected.min(64) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        })
        .collect();
    let n = seen.lock().unwrap().len();
    n
}

#[test]
fn a_panicking_par_iter_returns_its_permits() {
    let before = distinct_worker_threads();
    let caught = std::panic::catch_unwind(|| {
        let _: Vec<usize> = (0..64)
            .into_par_iter()
            .map(|i| {
                assert_ne!(i, 5, "injected item panic");
                i
            })
            .collect();
    });
    assert!(caught.is_err(), "the item panic propagates to the caller");
    let after = distinct_worker_threads();
    assert_eq!(
        after, before,
        "the par_iter after a panic runs on as many threads as the one before"
    );
}
