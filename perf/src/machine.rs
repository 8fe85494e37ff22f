//! The noise sentinel: what machine this is and how busy it was.
//!
//! Every workload records a fixed integer spin loop (`machine.calib_ms`)
//! and the 1-minute load average at its start and end. Two calibrations
//! more than 5% apart mean the box changed speed under the run, so the
//! run is flagged noisy instead of being reported silently.

use std::time::Instant;

/// Relative calibration drift above which a run is flagged noisy.
pub const NOISY_DRIFT: f64 = 0.05;

/// Static facts about the host and toolchain.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// The checked-out commit, when the tree is a git repository.
    pub commit: String,
}

impl Machine {
    /// Probes the host. Anything unreadable becomes `"unknown"`: the
    /// driver's checkout is not a git repository and need not be Linux.
    #[must_use]
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu,
            rustc,
            commit: git_head().unwrap_or_else(|| "unknown".into()),
        }
    }

    /// Renders the facts as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let clean = |s: &str| s.replace(['"', '\\'], "'");
        format!(
            "{{\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
            self.nproc,
            clean(&self.cpu),
            clean(&self.rustc),
            clean(&self.commit)
        )
    }
}

/// Resolves `HEAD` by reading the repository's `.git` directly (no `git`
/// process). The repository is where this crate was built, one level up
/// from its manifest, so nothing outside the checkout is looked at.
fn git_head() -> Option<String> {
    let git = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split(' ').next())
        .map(str::to_string)
}

/// 1-minute load average, 0 when `/proc/loadavg` is unreadable.
#[must_use]
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split(' ').next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when
/// `/proc/self/status` is unreadable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The calibration loop: a fixed count of dependent integer steps, so
/// its time tracks core speed and nothing else. Milliseconds, median of
/// five passes: the reference box runs single passes 6% fast for a few
/// tenths of a second every few seconds, which a minimum would pick up
/// and report as a change of speed.
#[must_use]
pub fn calib_ms() -> f64 {
    crate::stats::median(&[(); 5].map(|()| calib_once()))
}

/// One pass of the calibration loop, milliseconds.
fn calib_once() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The kernel's CPU mask for a thread: 1024 bits, as glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

/// The three libc calls pinning needs. `std` links libc already, so the
/// declarations cost no dependency; everything unsafe in the crate is
/// here.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod affinity {
    use super::CpuMask;

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPU the calling thread is running on.
    pub fn current_cpu() -> Option<usize> {
        // SAFETY: takes no argument and only reads the caller's state.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// The calling thread's allowed CPUs.
    pub fn get() -> Option<CpuMask> {
        let mut mask = CpuMask::default();
        // SAFETY: pid 0 is the calling thread, and the pointer is to
        // `size_of_val(&mask)` writable bytes that outlive the call.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Restricts the calling thread to `mask`.
    pub fn set(mask: &CpuMask) -> bool {
        // SAFETY: pid 0 is the calling thread, and the pointer is to
        // `size_of_val(mask)` readable bytes that outlive the call.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    use super::CpuMask;
    pub fn current_cpu() -> Option<usize> {
        None
    }
    pub fn get() -> Option<CpuMask> {
        None
    }
    pub fn set(_: &CpuMask) -> bool {
        false
    }
}

/// Keeps the calling thread, and every thread it starts from now on, on
/// the one CPU it is running on, until dropped.
///
/// For a workload whose threads hand work to one another in lockstep.
/// A hand-off between cores waits on the host to wake the other virtual
/// CPU, which costs three to four times the hand-off itself and swings
/// 20% from run to run with what else the host is doing; no change to
/// the program moves it. On one core the same workload measures what the
/// program does: system calls, datagram copies, codec and context
/// switches.
#[derive(Debug)]
pub struct OneCore {
    previous: CpuMask,
}

impl OneCore {
    /// Pins the calling thread where it runs. `None` when the platform
    /// has no affinity call or refuses it; the run then goes unpinned.
    #[must_use]
    pub fn pin() -> Option<OneCore> {
        let previous = affinity::get()?;
        let cpu = affinity::current_cpu()?;
        let mut only = CpuMask::default();
        *only.get_mut(cpu / 64)? = 1 << (cpu % 64);
        affinity::set(&only).then_some(OneCore { previous })
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        affinity::set(&self.previous);
    }
}

/// One reading of the sentinel.
#[derive(Debug, Clone, Copy)]
pub struct Sentinel {
    /// Calibration loop time, ms.
    pub calib_ms: f64,
    /// 1-minute load average.
    pub loadavg: f64,
}

impl Sentinel {
    /// Reads the sentinel now.
    #[must_use]
    pub fn read() -> Self {
        Sentinel {
            calib_ms: calib_ms(),
            loadavg: loadavg_1m(),
        }
    }
}

/// Relative distance between two calibrations.
#[must_use]
pub fn drift(start: f64, end: f64) -> f64 {
    if start <= 0.0 {
        return 0.0;
    }
    (end - start).abs() / start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_relative_and_symmetric_in_sign() {
        assert!((drift(100.0, 104.0) - 0.04).abs() < 1e-12);
        assert!((drift(100.0, 94.0) - 0.06).abs() < 1e-12);
        assert!(drift(100.0, 106.0) > NOISY_DRIFT);
        assert!(drift(100.0, 104.9) < NOISY_DRIFT);
        assert_eq!(drift(0.0, 5.0), 0.0);
    }

    #[test]
    fn machine_json_parses() {
        let m = Machine {
            nproc: 2,
            cpu: "Some \"quoted\" CPU".into(),
            rustc: "rustc 1.0".into(),
            commit: "unknown".into(),
        };
        let v = harness::Value::parse(&m.to_json()).expect("valid JSON");
        assert_eq!(v.get("nproc").and_then(harness::Value::as_u64), Some(2));
        assert_eq!(
            v.get("cpu").and_then(harness::Value::as_str),
            Some("Some 'quoted' CPU")
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn one_core_pins_to_a_single_cpu_and_restores_the_mask_on_drop() {
        let cpus = |mask: CpuMask| mask.iter().map(|w| w.count_ones()).sum::<u32>();
        let before = affinity::get().expect("affinity is readable");
        {
            let _pin = OneCore::pin().expect("pinning is allowed");
            assert_eq!(cpus(affinity::get().unwrap()), 1);
            // A thread started while pinned inherits the one CPU.
            let inherited = std::thread::spawn(|| affinity::get().unwrap())
                .join()
                .unwrap();
            assert_eq!(cpus(inherited), 1);
        }
        assert_eq!(affinity::get().unwrap(), before);
    }

    #[test]
    fn probes_do_not_panic() {
        let _ = Machine::probe();
        assert!(calib_ms() > 0.0);
        let _ = (loadavg_1m(), peak_rss_mb());
    }
}
