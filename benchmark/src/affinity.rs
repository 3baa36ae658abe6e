//! Which CPU a measuring thread runs on.
//!
//! On the reference host a vCPU's speed moves between levels up to 1.5×
//! apart, for seconds to minutes at a time and independently of the other
//! vCPU (README, noise study), and the kernel leaves a busy thread where
//! it is. A thread that times requests therefore takes the allowed CPUs
//! in turn, one round on each, so that the run's quietest window can come
//! from whichever CPU was left alone. Threads the program spawns inherit
//! the mask of their parent: the caller goes back to every allowed CPU
//! ([`release`]) before it builds a model or starts a server.
//!
//! The two calls are the C library's, which `std` links on Linux; where
//! they are missing or refused, threads stay where the kernel puts them.

use std::sync::OnceLock;

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::Mask;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: the pointer covers `size_of_val(&mask)` writable bytes,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) {
        // SAFETY: the pointer covers `size_of_val(mask)` readable bytes,
        // and pid 0 names the calling thread. A refusal leaves the thread
        // where it was, which is the fallback anyway.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Mask;

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) {}
}

/// The CPUs the process may use, as the mask it started with and as a list.
static ALLOWED: OnceLock<Option<(Mask, Vec<usize>)>> = OnceLock::new();

/// Read on first use — by a thread this module has not moved yet, since
/// moving one starts here.
fn allowed() -> Option<&'static (Mask, Vec<usize>)> {
    ALLOWED
        .get_or_init(|| {
            sys::get().map(|mask| {
                let cpus = (0..64 * mask.len())
                    .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                    .collect();
                (mask, cpus)
            })
        })
        .as_ref()
}

/// Moves the calling thread to the `turn`-th allowed CPU, counting round
/// and round.
pub fn pin(turn: usize) {
    if let Some((_, cpus)) = allowed().filter(|(_, cpus)| cpus.len() > 1) {
        let cpu = cpus[turn % cpus.len()];
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        sys::set(&mask);
    }
}

/// Lets the calling thread run on every allowed CPU again.
pub fn release() {
    if let Some((mask, _)) = allowed().filter(|(_, cpus)| cpus.len() > 1) {
        sys::set(mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_and_release_restore_the_mask() {
        let before = sys::get();
        pin(0);
        pin(1);
        if let (Some(now), Some((_, cpus))) = (sys::get(), allowed()) {
            let set: u32 = now.iter().map(|w| w.count_ones()).sum();
            assert_eq!(set, if cpus.len() > 1 { 1 } else { cpus.len() as u32 });
        }
        release();
        assert_eq!(sys::get(), before);
    }
}
