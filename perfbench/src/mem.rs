//! The process's resident set: its peak since the last reset, and the
//! calls that make a peak belong to one pass of a run.

/// Hand freed memory back to the OS. Server threads allocate in malloc
/// arenas of their own, and what any arena frees stays resident; without
/// a trim before and after each pass the peak resident set moved by tens
/// of MB between runs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes a plain integer and only returns free
    // heap pages to the OS; no allocation is live across the call's effects.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_memory() {}

/// Peak resident set of this process since the last [`reset_peak_rss`],
/// in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hand freed memory back to the OS and start a new peak: `VmHWM` drops
/// to the current resident set (5 written to `/proc/self/clear_refs`).
/// False where the kernel refuses; the peak then stays the process's.
pub fn reset_peak_rss() -> bool {
    release_free_memory();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_reset_drops_the_peak_to_the_current_resident_set() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = super::peak_rss_mb();
        assert!(before >= 64.0, "peak {before} MB after touching 64 MB");
        if super::reset_peak_rss() {
            let after = super::peak_rss_mb();
            assert!(after < before - 32.0, "peak {after} MB after a reset");
        }
    }
}
