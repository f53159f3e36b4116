//! One repetition of one benchmark workload.
//!
//! ```text
//! wavebench <sched_trace|fleet_w1|fleet_w2|mem_phased> --seed <n> [--trace 0|1]
//! ```
//!
//! Builds the workload from the seed, times set-up and the run apart,
//! checks the simulated outputs, and prints one JSON object: host times,
//! peak RSS, a fingerprint of the simulated outputs, the deterministic
//! work counters, the per-layer metrics when traced, and every failed
//! output check. `run.py` drives repetitions of this and aggregates them.

mod fleet;
mod mem;
mod sched;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

/// Input size: the benchmark's, or a tiny one for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Set-up is built this many times per repetition; the median counts.
const SETUPS: usize = 5;

/// Host times of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Times {
    /// Median host seconds of one set-up.
    pub setup_s: f64,
    /// Host seconds of the measured run.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) of the measured run.
    pub cpu_s: f64,
}

/// What one repetition measured and checked.
#[derive(Debug)]
pub struct Outcome {
    pub times: Times,
    /// FNV-1a over the simulated outputs.
    pub fingerprint: u64,
    /// Deterministic work counts; a traced run must reproduce them.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

/// Runs `workload` once.
pub fn run(workload: &str, seed: u64, size: Size, traced: bool) -> Option<Outcome> {
    Some(match workload {
        "sched_trace" => sched::run(seed, size, traced),
        "fleet_w1" => fleet::run(seed, size, 1, traced),
        "fleet_w2" => fleet::run(seed, size, 2, traced),
        "mem_phased" => mem::run(seed, size, traced),
        _ => return None,
    })
}

/// Builds with `build` [`SETUPS`] times, dropping each build before the
/// next, and returns the last build with the median build time.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (built.expect("SETUPS > 0"), times[SETUPS / 2])
}

/// Wall and process-CPU clocks started together.
pub struct Span {
    wall: Instant,
    cpu: f64,
}

impl Span {
    pub fn start() -> Self {
        Span {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// The run's times since [`Span::start`], with the set-up time.
    pub fn stop(&self, setup_s: f64) -> Times {
        Times {
            setup_s,
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu,
        }
    }
}

/// User + system CPU seconds of the whole process, all threads
/// included, exited ones too (`CLOCK_PROCESS_CPUTIME_ID`).
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    unsafe extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) and the clock id is a constant every Linux kernel accepts;
    // the call writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Collects failed output checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    /// Records `what()` as a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// FNV-1a over little-endian `u64`s, the same hash `FleetReport`
/// fingerprints with.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; the values here are finite by construction.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric is not finite: {v}");
    format!("{v}")
}

fn to_json(o: &Outcome, rss_mb: f64) -> String {
    let mut s = String::from("{");
    for (k, v) in [
        ("setup_s", o.times.setup_s),
        ("wall_s", o.times.wall_s),
        ("cpu_s", o.times.cpu_s),
        ("peak_rss_mb", rss_mb),
    ] {
        write!(s, "{}: {}, ", quote(k), num(v)).expect("write to String");
    }
    write!(
        s,
        "\"fingerprint\": \"{:016x}\", \"counters\": {{",
        o.fingerprint
    )
    .expect("write to String");
    let counters: Vec<String> = o
        .counters
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    let layers: Vec<String> = o
        .layers
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), num(*v)))
        .collect();
    let failures: Vec<String> = o.failures.iter().map(|f| quote(f)).collect();
    write!(
        s,
        "{}}}, \"layers\": {{{}}}, \"failures\": [{}]}}",
        counters.join(", "),
        layers.join(", "),
        failures.join(", ")
    )
    .expect("write to String");
    s
}

fn main() {
    let usage =
        "usage: wavebench <sched_trace|fleet_w1|fleet_w2|mem_phased> --seed <n> [--trace 0|1]";
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().and_then(|v| v.parse::<u64>().ok()),
            "--trace" => match it.next().map(String::as_str) {
                Some("0") => traced = false,
                Some("1") => traced = true,
                _ => exit_usage(usage),
            },
            w if workload.is_none() && !w.starts_with('-') => workload = Some(w.to_string()),
            _ => exit_usage(usage),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        exit_usage(usage)
    };
    let Some(outcome) = run(&workload, seed, Size::Full, traced) else {
        exit_usage(usage)
    };
    println!("{}", to_json(&outcome, peak_rss_mb()));
}

fn exit_usage(usage: &str) -> ! {
    eprintln!("{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests;
