//! Host facts and process resource usage, recorded with every result.

use std::path::Path;

/// Process CPU time and peak resident memory so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU seconds of every thread of the process.
    pub cpu_s: f64,
    /// Peak resident set size, kibibytes.
    pub max_rss_kib: u64,
}

#[cfg(target_os = "linux")]
mod ffi {
    #[repr(C)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
    #[repr(C)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// Resource usage of the whole process.
#[cfg(target_os = "linux")]
pub fn usage() -> Usage {
    let mut ru = ffi::Rusage {
        utime: ffi::Timeval { sec: 0, usec: 0 },
        stime: ffi::Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit Linux
    // layout, and RUSAGE_SELF is a valid `who`; getrusage writes only it.
    let rc = unsafe { ffi::getrusage(ffi::RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: &ffi::Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        max_rss_kib: ru.maxrss.max(0) as u64,
    }
}

/// Resource usage is only read on Linux; elsewhere it reads as zero.
#[cfg(not(target_os = "linux"))]
pub fn usage() -> Usage {
    Usage::default()
}

/// Hardware threads the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`), or `unknown`.
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> ..."
        let mut halves = line.splitn(2, " - ");
        let (Some(head), Some(tail)) = (halves.next(), halves.next()) else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (head.split(' ').nth(4), tail.split(' ').next()) else {
            continue;
        };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(n, _)| mount.len() >= *n) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}
