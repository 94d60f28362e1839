//! CPU clocks. On a shared virtual machine the host preempts the vCPUs in
//! bursts (steal time), which adds hundreds of milliseconds to a wall
//! clock reading of a 0.6 s solve while its CPU time stays put. Compute
//! that runs on the calling thread (pool size 1) is therefore timed with
//! the thread's CPU clock, and the cold sweep, whose work is spread over
//! the client and server threads, with the process's. Throughput and
//! latency have no CPU-time counterpart; [`steal_ticks`] lets the hot
//! stream tell the windows the host preempted from the ones it did not.

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    pub fn read(clock: i32) -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux), and both clock ids exist on Linux.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock}) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }

    pub fn thread_ns() -> u64 {
        read(CLOCK_THREAD_CPUTIME_ID)
    }

    pub fn process_ns() -> u64 {
        read(CLOCK_PROCESS_CPUTIME_ID)
    }
}

/// Elsewhere, fall back to the wall clock.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    use std::sync::OnceLock;
    use std::time::Instant;

    fn wall_ns() -> u64 {
        static T0: OnceLock<Instant> = OnceLock::new();
        T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    pub fn thread_ns() -> u64 {
        wall_ns()
    }

    pub fn process_ns() -> u64 {
        wall_ns()
    }
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_ns() -> u64 {
    imp::thread_ns()
}

/// CPU time of every thread of this process, in nanoseconds.
pub fn process_ns() -> u64 {
    imp::process_ns()
}

/// Time the hypervisor has taken from this machine's vCPUs since boot, in
/// clock ticks summed over vCPUs (the `steal` column of `/proc/stat`);
/// `None` where the kernel does not report it.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn clocks_advance_with_work_and_not_with_sleep() {
        let (t0, p0) = (super::thread_ns(), super::process_ns());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let (t1, p1) = (super::thread_ns(), super::process_ns());
        assert!(t1 > t0 && p1 > p0);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            super::thread_ns() - t1 < 20_000_000,
            "sleep counted as CPU time"
        );
    }
}
