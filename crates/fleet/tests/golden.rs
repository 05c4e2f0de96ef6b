//! Golden report digests: sampling and fold order pinned to exact bytes.
//!
//! Each case runs a small spec to completion and compares the FNV-1a
//! digest of the rendered report with a value captured before the code
//! it guards changed: the first two before the dense cell table replaced
//! per-device string keys, the scope case before per-kernel static tables
//! were shared across simulators. Any change to the device → cell draws,
//! to duplicate-item handling, to the fold order or to how a cell prices
//! its backups moves the digest. A deliberate change to the report format
//! must re-capture them.

use nvp_fleet::spec::fnv1a64;
use nvp_fleet::{run_chunks, FleetAggregate, RunOptions, RunStatus, ScenarioSpec};

fn report_digest(text: &str, jobs: usize) -> u64 {
    let mut agg = FleetAggregate::new(ScenarioSpec::parse(text).unwrap());
    let status = run_chunks(
        &mut agg,
        RunOptions {
            jobs,
            stop_after_chunks: None,
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(status, RunStatus::Complete);
    fnv1a64(agg.render_report().as_bytes())
}

/// Weighted and duplicated axis items: `sobel` appears twice in
/// `kernels` and `2500` twice in `caps_nj`, so several axis entries land
/// on one cell.
const DUPLICATED: &str = "fleet-spec-v1\n\
     devices = 3000\n\
     chunk = 512\n\
     seed = 91\n\
     ms = 150\n\
     img = 8\n\
     frames = 1\n\
     members = 3\n\
     kernels = sobel*3, median, sobel\n\
     profiles = p1, p3\n\
     caps_nj = 2500, 2500, 3500*4\n\
     modes = precise, fixed:4\n\
     engines = step, compiled*2\n";

/// Every backup scope crossed with every governor family and both
/// dispatch engines: the `live` and `live-dirty` cells price backups from
/// the kernel's static liveness and synthesized checkpoint masks.
const SCOPES: &str = "fleet-spec-v1\n\
     devices = 2000\n\
     chunk = 512\n\
     seed = 33\n\
     ms = 150\n\
     img = 8\n\
     frames = 1\n\
     kernels = sobel, median\n\
     profiles = p1, p3\n\
     scopes = full, live, live-dirty\n\
     modes = precise, fixed:4, dynamic:2-8, incidental:4-8\n\
     engines = step, compiled\n";

/// One cell, many small chunks (the last one partial).
const SINGLE_CELL: &str = "fleet-spec-v1\n\
     devices = 300\n\
     chunk = 64\n\
     seed = 5\n\
     ms = 150\n\
     img = 8\n\
     frames = 1\n";

#[test]
fn duplicated_axis_report_matches_its_golden_digest() {
    for jobs in [1, 4] {
        assert_eq!(
            report_digest(DUPLICATED, jobs),
            15_538_057_868_665_987_960,
            "jobs {jobs}: report bytes moved"
        );
    }
}

#[test]
fn scope_mode_engine_report_matches_its_golden_digest() {
    for jobs in [1, 4] {
        assert_eq!(
            report_digest(SCOPES, jobs),
            14_491_865_625_391_982_261,
            "jobs {jobs}: report bytes moved"
        );
    }
}

#[test]
fn single_cell_report_matches_its_golden_digest() {
    for jobs in [1, 4] {
        assert_eq!(
            report_digest(SINGLE_CELL, jobs),
            13_452_351_978_910_313_387,
            "jobs {jobs}: report bytes moved"
        );
    }
}
