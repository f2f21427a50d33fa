//! Workers pull items from a shared queue rather than owning fixed chunks.
//! Its own test binary: the permit counter is process-global, and a
//! sibling test holding the permits would leave this one a single thread.

use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Item 0 blocks until every other item has run. Under pull scheduling the
/// other workers drain the queue meanwhile; under static chunking the rest
/// of item 0's chunk waits behind it, so the wait times out and the test
/// fails instead of hanging.
#[test]
fn free_workers_take_the_remaining_items() {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("skipped: needs at least two CPUs");
        return;
    }
    const N: usize = 16;
    let others_done = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    let out: Vec<usize> = (0..N)
        .into_par_iter()
        .map(|i| {
            if i == 0 {
                while others_done.load(Ordering::SeqCst) < N - 1 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert_eq!(
                    others_done.load(Ordering::SeqCst),
                    N - 1,
                    "items behind item 0 waited for it"
                );
            } else {
                others_done.fetch_add(1, Ordering::SeqCst);
            }
            i
        })
        .collect();
    assert_eq!(
        out,
        (0..N).collect::<Vec<_>>(),
        "outputs stay in index order"
    );
}
