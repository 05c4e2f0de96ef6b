//! Helpers shared by every workload: the per-process result record,
//! order statistics, a stable digest, the input generator and `VmHWM`.

use nvp_serve::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one benchmark process reports on its last stdout line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong or missing.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Exact work counters by name; they must repeat for a fixed seed.
    pub counters: BTreeMap<String, u64>,
    /// One line per failed check, for the operator.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records one checked operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Sets a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Sets an exact counter.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Renders the record as one JSON line.
    pub fn render(&self) -> String {
        let num_map = |m: Vec<(&str, f64)>| {
            Json::obj(m.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())
        };
        let metrics = num_map(self.metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect());
        let counters = num_map(
            self.counters
                .iter()
                .map(|(k, v)| (k.as_str(), *v as f64))
                .collect(),
        );
        Json::obj(vec![
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
            ("counters", counters),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::str(e.as_str())).collect()),
            ),
        ])
        .render()
    }
}

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Seconds elapsed since `start`, in microseconds.
pub fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Reads a CPU-time clock, in seconds.
fn cpu_clock(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds (user + system) this process has used so far, summed over
/// all its threads, the finished ones included.
///
/// On a shared host a vCPU can be stolen by its neighbours for seconds at a
/// time. Wall time then stretches up to twofold while CPU time, which
/// leaves the stolen time out, moves far less; so the gated job metrics
/// are CPU time.
pub fn cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Keeps every CPU busy for `ms` milliseconds without touching the system
/// under test. A vCPU that has just woken from idle runs a
/// millisecond-scale set-up several times slower than a busy one; spinning
/// first times the set-up on running CPUs.
pub fn warm_cpus(ms: u64) {
    let until = Instant::now() + std::time::Duration::from_millis(ms);
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < until {
                    for _ in 0..1000 {
                        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005) ^ 1);
                    }
                }
            });
        }
    });
}

/// Geometric mean of positive samples; 0 when empty.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// FNV-1a, 64 bit: a stable digest for output bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: the benchmark's own input generator, kept separate from
/// the system's samplers so a change there cannot move the inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads and client threads the benchmark may use.
pub fn nproc() -> usize {
    nvp_exec::available_parallelism()
}
