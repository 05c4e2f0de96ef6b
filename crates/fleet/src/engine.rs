//! The chunked streaming run loop.
//!
//! A [`CellTable`] ranks the spec's cells once per call. Devices are then
//! visited in index order, `spec.chunk` at a time, and each chunk reduces
//! to a vector of device counts indexed by rank. Cells the process-wide
//! cache already holds are looked up serially; only the misses are
//! evaluated on the `nvp-exec` work-stealing pool (parallelism affects
//! wall-clock only — the fold order is rank order, which is the canonical
//! cell order, fixed by the spec). The chunk is then folded into the
//! aggregate. The loop can pause after any chunk boundary, which is
//! exactly the granularity the snapshot format persists.

use crate::agg::FleetAggregate;
use crate::cell::{cached, evaluate, CellOutcome};
use crate::sample::CellTable;
use nvp_exec::Pool;
use nvp_trace::MergeError;
use std::sync::Arc;

/// Progress of a running fleet, reported after every folded chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Chunks folded so far.
    pub chunks_done: u64,
    /// Total chunks in the scenario.
    pub chunks: u64,
    /// Devices folded so far.
    pub devices_done: u64,
    /// Distinct cells discovered so far.
    pub distinct_cells: u64,
}

/// Engine options for one `run_chunks` call.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Worker threads for cell evaluation (1 = serial reference path;
    /// results are identical for any value).
    pub jobs: usize,
    /// Pause after folding this many chunks in *this call* (None = run to
    /// completion). The pause lands on a chunk boundary, the snapshot
    /// granularity.
    pub stop_after_chunks: Option<u64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            jobs: 1,
            stop_after_chunks: None,
        }
    }
}

/// How a `run_chunks` call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every chunk is folded; the report is final.
    Complete,
    /// Paused at a chunk boundary (resume from a snapshot to continue).
    Paused,
}

/// Runs (or resumes) the scenario in `agg` until completion or the
/// configured pause point, invoking `progress` after every folded chunk.
pub fn run_chunks(
    agg: &mut FleetAggregate,
    opts: RunOptions,
    mut progress: impl FnMut(Progress),
) -> Result<RunStatus, MergeError> {
    let pool = Pool::new(opts.jobs);
    let table = CellTable::new(&agg.spec);
    let mut counts = vec![0u64; table.len()];
    let chunks = agg.spec.chunks();
    let mut folded_this_call = 0u64;
    while agg.next_chunk < chunks {
        if let Some(limit) = opts.stop_after_chunks {
            if folded_this_call >= limit {
                return Ok(RunStatus::Paused);
            }
        }
        let lo = agg.next_chunk * agg.spec.chunk;
        let hi = (lo + agg.spec.chunk).min(agg.spec.devices);
        counts.fill(0);
        for d in lo..hi {
            counts[table.rank_for_device(d)] += 1;
        }
        let outcomes = resolve(&pool, &table, &counts);
        agg.fold_chunk(&table, &counts, &outcomes)?;
        folded_this_call += 1;
        progress(Progress {
            chunks_done: agg.next_chunk,
            chunks,
            devices_done: agg.devices_done(),
            distinct_cells: agg.cells.len() as u64,
        });
    }
    Ok(RunStatus::Complete)
}

/// The outcome of every cell present in a chunk (`counts[rank] > 0`),
/// indexed by rank. Each present cell is one evaluation: a cache hit is
/// answered serially on this thread, and only the misses go to the pool
/// (the process-wide cache makes repeats across chunks and fleets free).
fn resolve(pool: &Pool, table: &CellTable, counts: &[u64]) -> Vec<Option<Arc<CellOutcome>>> {
    let mut outcomes = vec![None; table.len()];
    let mut misses = Vec::new();
    for (rank, cell) in table.cells().iter().enumerate() {
        if counts[rank] == 0 {
            continue;
        }
        match cached(&cell.canonical) {
            Some(hit) => outcomes[rank] = Some(hit),
            None => misses.push(rank),
        }
    }
    let computed = pool.map(misses, |rank| {
        let cell = &table.cells()[rank];
        (rank, evaluate(&cell.key, &cell.canonical))
    });
    for (rank, outcome) in computed {
        outcomes[rank] = Some(outcome);
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::parse(
            "fleet-spec-v1\n\
             devices = 500\n\
             chunk = 128\n\
             ms = 150\n\
             img = 8\n\
             frames = 1\n\
             kernels = sobel, median\n\
             modes = precise, fixed:4\n",
        )
        .unwrap()
    }

    #[test]
    fn runs_to_completion_and_reports_progress() {
        let mut agg = FleetAggregate::new(spec());
        let mut seen = Vec::new();
        let status = run_chunks(&mut agg, RunOptions::default(), |p| seen.push(p)).unwrap();
        assert_eq!(status, RunStatus::Complete);
        assert!(agg.is_complete());
        assert_eq!(seen.len(), 4, "500 devices / 128 per chunk = 4 chunks");
        assert_eq!(seen.last().unwrap().devices_done, 500);
        assert!(seen.windows(2).all(|w| w[0].chunks_done < w[1].chunks_done));
    }

    #[test]
    fn pause_lands_on_a_chunk_boundary() {
        let mut agg = FleetAggregate::new(spec());
        let status = run_chunks(
            &mut agg,
            RunOptions {
                jobs: 1,
                stop_after_chunks: Some(2),
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(status, RunStatus::Paused);
        assert_eq!(agg.next_chunk, 2);
        assert!(!agg.is_complete());
        // Resuming the same aggregate finishes the remaining chunks.
        let status = run_chunks(&mut agg, RunOptions::default(), |_| {}).unwrap();
        assert_eq!(status, RunStatus::Complete);
    }

    #[test]
    fn worker_count_cannot_change_the_state() {
        let mut serial = FleetAggregate::new(spec());
        run_chunks(&mut serial, RunOptions::default(), |_| {}).unwrap();
        let mut parallel = FleetAggregate::new(spec());
        run_chunks(
            &mut parallel,
            RunOptions {
                jobs: 4,
                stop_after_chunks: None,
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.render_report(), parallel.render_report());
    }
}
