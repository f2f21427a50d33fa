//! CPU affinity of every thread of this process (Linux).
//!
//! The serve session's warm phases move every thread — the client and the
//! daemon's accept and connection threads — onto one CPU, and back
//! afterwards. A warm request is a chain of wake-ups between the client and
//! its connection thread; across two virtual CPUs each wake-up may wait on
//! the hypervisor, which adds milliseconds in some runs and not in others.
//! On one CPU the latencies measure the daemon's serving path.

const WORDS: usize = 16; // a glibc `cpu_set_t`: 1024 bits

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

pub type Mask = [u64; WORDS];

/// The calling thread's CPU mask.
pub fn current() -> Mask {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    mask
}

/// The lowest CPU of `mask`, alone.
pub fn first_cpu(mask: &Mask) -> Mask {
    let mut one = [0u64; WORDS];
    if let Some(w) = mask.iter().position(|&w| w != 0) {
        one[w] = mask[w] & mask[w].wrapping_neg();
    }
    one
}

/// Set `mask` on every thread of the process.
pub fn set_all(mask: &Mask) {
    let tasks = std::fs::read_dir("/proc/self/task").expect("list this process's threads");
    for tid in tasks.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<i32>().ok()) {
        // SAFETY: `mask` is a readable buffer of exactly the size passed. A
        // thread that exited since the listing makes the call fail with
        // ESRCH, which is harmless and ignored.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    }
}
