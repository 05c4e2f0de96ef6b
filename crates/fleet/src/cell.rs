//! Cell evaluation: one simulation per distinct device configuration,
//! cached process-wide.
//!
//! Devices sharing a cell are *identical* (the simulator is a pure
//! function of the cell key), so a fleet is a multinomial over cells and
//! each cell is simulated exactly once per process — overlapping fleets,
//! resumed fleets and concurrent service jobs all share the same
//! content-addressed outcomes. The cache is double-checked: the expensive
//! simulation runs *outside* the lock (unlike the cheap `nvp_repro`
//! memos), so pool workers evaluating different cells never serialize;
//! on a racing insert the first value wins and the loser's work is
//! dropped, keeping every handed-out `Arc` shared.

use crate::sample::CellKey;
use incidental::QualityReport;
use nvp_power::Energy;
use nvp_repro::catalog;
use nvp_repro::dims;
use nvp_sim::SystemConfig;
use nvp_trace::{CounterSink, TraceSummary};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything the aggregator needs from one simulated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Lane-weighted instructions persistently committed (the paper's
    /// forward-progress metric).
    pub forward_progress: u64,
    /// Backups taken (power emergencies survived).
    pub backups: u64,
    /// Frames committed (live + incidental lanes).
    pub frames_committed: u64,
    /// Energy spent on backups, nanojoules.
    pub backup_nj: f64,
    /// Mean MSE of committed frames against golden outputs.
    pub mse: f64,
    /// Quality binned for log2 histograms: `round(mse × 1000)`. MSE is
    /// log2-natural across its whole range where PSNR's dB scale is not —
    /// a 2×-resolution PSNR bucket would be useless.
    pub mse_milli: u64,
    /// Full event-stream aggregate, for weighted population folds.
    pub summary: TraceSummary,
}

/// Cells simulated by this process (cache misses).
static COMPUTED: AtomicU64 = AtomicU64::new(0);
/// Cell evaluations answered from the cache (work shared between fleets,
/// chunks and service jobs).
static SHARED: AtomicU64 = AtomicU64::new(0);

/// How many distinct cells this process has simulated.
pub fn cells_computed() -> u64 {
    COMPUTED.load(Ordering::Relaxed)
}

/// How many cell evaluations were answered from the shared cache.
pub fn cells_shared() -> u64 {
    SHARED.load(Ordering::Relaxed)
}

type Cache = OnceLock<Mutex<HashMap<String, Arc<CellOutcome>>>>;

fn cache() -> &'static Mutex<HashMap<String, Arc<CellOutcome>>> {
    static CACHE: Cache = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Locks the cell cache, recovering from poisoning (entries are
/// insert-only `Arc`s, so the map is always structurally sound — same
/// argument as `nvp_repro::catalog`).
fn lock() -> std::sync::MutexGuard<'static, HashMap<String, Arc<CellOutcome>>> {
    cache()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Evaluates one cell, sharing any previously-computed outcome.
pub fn evaluate_cell(key: &CellKey) -> Arc<CellOutcome> {
    evaluate(key, &key.canonical())
}

/// The cached outcome of the cell whose canonical string is `canon`, if
/// any; a hit counts as shared.
pub(crate) fn cached(canon: &str) -> Option<Arc<CellOutcome>> {
    let hit = lock().get(canon).cloned();
    if hit.is_some() {
        SHARED.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// [`evaluate_cell`] for a key whose canonical string is already known.
pub(crate) fn evaluate(key: &CellKey, canon: &str) -> Arc<CellOutcome> {
    if let Some(hit) = cached(canon) {
        return hit;
    }
    // Miss: simulate outside the lock so concurrent workers on *different*
    // cells proceed in parallel. Two workers racing the *same* cell both
    // simulate (identical, deterministic results); the first insert wins.
    let outcome = Arc::new(simulate(key));
    match lock().entry(canon.to_string()) {
        Entry::Occupied(e) => {
            SHARED.fetch_add(1, Ordering::Relaxed);
            e.get().clone()
        }
        Entry::Vacant(v) => {
            COMPUTED.fetch_add(1, Ordering::Relaxed);
            v.insert(outcome).clone()
        }
    }
}

/// Runs the cell's simulation: inputs and the kernel's static tables come
/// from the shared `nvp_repro::catalog` memos, the power trace from the
/// seeded profile family.
fn simulate(key: &CellKey) -> CellOutcome {
    let frames = catalog::frames_for(key.kernel, key.img, key.frames);
    let trace =
        catalog::synth_profile_member(key.profile, key.trace_ms as f64 / 1000.0, key.member);
    let cfg = SystemConfig {
        capacitor_capacity: Energy::from_nj(key.cap_nj as f64),
        backup_scope: key.scope,
        record_outputs: true,
        seed: key.seed,
        exec_engine: key.engine,
        ..Default::default()
    };
    let sim = catalog::build_sim(
        key.kernel,
        key.img,
        frames.clone(),
        key.mode.exec_mode(),
        cfg,
    );
    let mut sink = CounterSink::new();
    let report = sim.run_traced(&trace, &mut sink);
    let (w, h) = dims(key.kernel, key.img);
    let quality = QualityReport::score(key.kernel, w, h, &frames, &report);
    let mse = quality.mean_mse();
    CellOutcome {
        forward_progress: report.forward_progress,
        backups: report.backups,
        frames_committed: report.frames_committed + report.incidental_frames,
        backup_nj: report.energy_backup.as_nj(),
        mse,
        mse_milli: (mse * 1000.0).round() as u64,
        summary: sink.summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::cell_for_device;
    use crate::spec::ScenarioSpec;

    fn key() -> CellKey {
        let spec =
            ScenarioSpec::parse("fleet-spec-v1\ndevices = 10\nms = 150\nimg = 8\nframes = 1\n")
                .unwrap();
        cell_for_device(&spec, 0)
    }

    #[test]
    fn evaluation_is_cached_and_shared() {
        let a = evaluate_cell(&key());
        let shared_before = cells_shared();
        let b = evaluate_cell(&key());
        assert!(Arc::ptr_eq(&a, &b), "second evaluation must share the Arc");
        assert!(cells_shared() > shared_before);
        assert!(cells_computed() >= 1);
    }

    #[test]
    fn outcome_is_deterministic_and_self_consistent() {
        let out = evaluate_cell(&key());
        assert!(out.summary.total() > 0, "trace must carry events");
        assert_eq!(out.mse_milli, (out.mse * 1000.0).round() as u64);
        assert!(out.backup_nj >= 0.0);
        // A precise-mode cell commits exact frames.
        assert_eq!(out.mse, 0.0, "precise mode must be exact");
    }
}
