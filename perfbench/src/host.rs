//! Host-side measurements: process resource counters and the host
//! calibration recorded with every run.

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One `getrusage(RUSAGE_SELF)` reading: CPU time and context switches
/// of the whole process, threads that already exited included (a sum
/// over `/proc/self/task/*` would miss those).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_us: f64,
    pub ctx_switches: f64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

impl Usage {
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` for the whole
        // call, and RUSAGE_SELF is a valid `who` argument.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        if rc != 0 {
            return Usage::default();
        }
        let tv = |t: &Timeval| t.tv_sec as f64 * 1e6 + t.tv_usec as f64;
        Usage {
            cpu_us: tv(&ru.ru_utime) + tv(&ru.ru_stime),
            ctx_switches: (ru.ru_nvcsw + ru.ru_nivcsw) as f64,
        }
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us - earlier.cpu_us,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

fn status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// OS threads currently in this process.
pub fn threads() -> f64 {
    status_field("Threads:").unwrap_or(0.0)
}

/// What the host can do without any of the stack: the yardsticks a
/// later change reads rung costs against.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub cores: usize,
    /// Median round trip between two threads over `std::sync::mpsc`.
    pub pingpong_floor_us: f64,
    /// Median single-thread copy bandwidth of a 16 MiB buffer.
    pub memcpy_gb_s: f64,
}

pub fn calibrate() -> Calibration {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Calibration {
        cores,
        pingpong_floor_us: pingpong_floor_us(),
        memcpy_gb_s: memcpy_gb_s(),
    }
}

fn pingpong_floor_us() -> f64 {
    const BATCH: usize = 2_000;
    const BATCHES: usize = 7;
    let (to_echo, echo_rx) = mpsc::channel::<u64>();
    let (echo_tx, from_echo) = mpsc::channel::<u64>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = echo_rx.recv() {
            if echo_tx.send(v).is_err() {
                return;
            }
        }
    });
    let mut per_batch = Vec::with_capacity(BATCHES);
    for b in 0..=BATCHES {
        let t0 = Instant::now();
        for i in 0..BATCH as u64 {
            to_echo.send(i).expect("echo thread alive");
            let back = from_echo.recv().expect("echo thread alive");
            assert_eq!(back, i);
        }
        // The first batch only warms the threads up.
        if b > 0 {
            per_batch.push(t0.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
        }
    }
    drop(to_echo);
    echo.join().expect("echo thread exits cleanly");
    crate::stats::median(&mut per_batch)
}

fn memcpy_gb_s() -> f64 {
    const LEN: usize = 16 << 20;
    let src: Vec<u8> = (0..LEN).map(|i| i as u8).collect();
    let mut dst = vec![0u8; LEN];
    let mut rates = Vec::new();
    let deadline = Instant::now() + Duration::from_millis(300);
    while rates.len() < 5 || (Instant::now() < deadline && rates.len() < 15) {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        rates.push(LEN as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    crate::stats::median(&mut rates)
}
