//! Process-level CPU, memory and scheduling counters.
//!
//! `getrusage(RUSAGE_SELF)` covers every thread the process ever ran,
//! including the shard threads that each `run_until` call spawns and joins;
//! the per-thread fields of `/proc/self/status` would count only the main
//! thread. std already links the C library, so the call needs no crate.

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads Linux process counters (getrusage, /proc/self/statm)");

use std::ffi::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as the Linux C library lays it out.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;
const SC_PAGESIZE: c_int = 30;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

/// A reading of the whole process's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// High-water resident set size, MB.
    pub max_rss_mb: f64,
    pub vol_ctx_switches: u64,
    pub invol_ctx_switches: u64,
}

impl Usage {
    /// Counters accumulated since `earlier` (the high-water mark is kept).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            max_rss_mb: self.max_rss_mb,
            vol_ctx_switches: self.vol_ctx_switches - earlier.vol_ctx_switches,
            invol_ctx_switches: self.invol_ctx_switches - earlier.invol_ctx_switches,
        }
    }
}

fn secs(t: &Timeval) -> f64 {
    t.tv_sec as f64 + t.tv_usec as f64 / 1e6
}

/// Read the process's resource usage.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the C layout,
    // and RUSAGE_SELF is a valid `who`; getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    Usage {
        user_s: secs(&ru.ru_utime),
        sys_s: secs(&ru.ru_stime),
        // Linux reports ru_maxrss in KiB.
        max_rss_mb: ru.ru_maxrss as f64 / 1024.0,
        vol_ctx_switches: ru.ru_nvcsw as u64,
        invol_ctx_switches: ru.ru_nivcsw as u64,
    }
}

/// Current resident set size, MB (0 if `/proc/self/statm` is unreadable).
pub fn rss_mb() -> f64 {
    // SAFETY: sysconf takes any name and has no memory effects.
    let page = unsafe { sysconf(SC_PAGESIZE) }.max(1) as f64;
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |pages| pages * page / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_sane_and_monotone() {
        let a = usage();
        let v: Vec<u64> = (0..200_000).map(|i| i * i).collect();
        std::hint::black_box(&v);
        let b = usage();
        assert!(a.max_rss_mb > 0.0 && b.max_rss_mb >= a.max_rss_mb);
        let d = b.since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(rss_mb() > 0.0 && rss_mb() <= b.max_rss_mb + 1.0);
    }

    #[test]
    fn voluntary_switches_count_threads_that_ended() {
        // A thread that blocks and exits still shows in RUSAGE_SELF.
        let a = usage();
        for _ in 0..4 {
            std::thread::spawn(|| std::thread::sleep(std::time::Duration::from_millis(2)))
                .join()
                .expect("sleeping thread does not panic");
        }
        assert!(usage().since(&a).vol_ctx_switches >= 4);
    }
}
