//! CPU time of the calling thread.
//!
//! Host throughput and set-up time are measured in thread CPU time
//! rather than wall time: on a shared host the benchmark thread is
//! descheduled for stretches that have nothing to do with the code under
//! test, and wall time counts them.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("forkbench reads thread CPU time through 64-bit Linux clock_gettime");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time this thread has used so far.
pub fn thread_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for), and the clock
    // id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("non-negative seconds"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds below 1e9"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_time_advances_with_work() {
        let a = thread_time();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(thread_time() > a, "{x}");
    }
}
