//! Thin mutex wrapper with an infallible `lock()`, plus the thread
//! affinity shim for topology-aware worker pinning.
//!
//! The executor held its queues in `parking_lot::Mutex`; in hermetic
//! builds the workspace is dependency-free, so this wraps
//! `std::sync::Mutex` with the same non-poisoning API: a panicking
//! worker already aborts the factorization via the scoped-thread join,
//! so lock poisoning carries no extra information here. The same
//! hermeticity rules out the `libc`/`core_affinity` crates, so
//! `pin_current_thread` declares the one C symbol it needs
//! (`sched_setaffinity`, provided by the libc Rust's std already links
//! on Linux) directly.

use std::sync::MutexGuard;

/// Pin the calling thread to one logical CPU. Best effort: returns
/// `true` iff the affinity call succeeded; on non-Linux targets (or
/// when the kernel rejects the mask, e.g. under a restrictive cgroup)
/// it returns `false` and the thread keeps its previous affinity —
/// callers treat pinning as an optimization, never a correctness
/// requirement.
#[cfg(target_os = "linux")]
pub(crate) fn pin_current_thread(cpu: usize) -> bool {
    // glibc/musl signature: sched_setaffinity(pid_t, size_t, const cpu_set_t*);
    // pid 0 = the calling thread. cpu_set_t is a 1024-bit mask.
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 1024 / 64;
    let mut mask = [0u64; WORDS];
    let cpu = cpu % (WORDS * 64); // defensive: stay inside cpu_set_t
    mask[cpu / 64] |= 1u64 << (cpu % 64);
    // SAFETY: the mask outlives the call and cpusetsize matches its
    // length in bytes; sched_setaffinity reads, never writes, it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Non-Linux stub: affinity is not portable without a dependency, so
/// pinning silently degrades to "not pinned".
#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_current_thread(_cpu: usize) -> bool {
    false
}

/// A mutex whose `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_and_into_inner() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn pinning_is_best_effort_and_survives_bad_cpus() {
        // on Linux pinning to cpu 0 normally succeeds; anywhere it may
        // legitimately fail (sandbox, cgroup) — it must never panic,
        // and computation on the thread continues either way
        let pinned = std::thread::spawn(|| {
            let ok = pin_current_thread(0);
            let _ = pin_current_thread(usize::MAX); // wraps, stays in-mask
            (ok, 6 * 7)
        })
        .join()
        .unwrap();
        assert_eq!(pinned.1, 42);
    }
}
