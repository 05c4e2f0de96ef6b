//! Absolute golden for the reference [`ExecEngine::Step`] engine.
//!
//! The lockstep suites compare engines with each other, so a change that
//! moves all of them together (a re-associated energy formula, a reserve
//! or start threshold computed differently) passes them unnoticed. This
//! suite pins the Step engine's own output: the FNV-1a 64 digest of each
//! `RunReport`'s `{:?}` rendering (every energy prints as a round-trip
//! `f64`), over four kernels × five execution modes × two power profiles
//! on a small image, plus the full JSONL bytes of two traced runs. The
//! traced runs carry `threshold_cross` events, whose `threshold_nj` pins
//! the start threshold the Off phase compares against.
//!
//! A one-ulp shift in an instruction energy (say `powf(1.5)` rewritten as
//! `x * x.sqrt()`) is usually absorbed by the capacitor and ledger sums at
//! these run lengths, so a third test pins the priced table itself: the
//! bits of `instr_energy` for every class at every reachable
//! configuration.
//!
//! On a mismatch the test prints the whole table in source form; a
//! deliberate model change pastes it back in and says why in the change
//! log.

use nvp_isa::{ApproxConfig, InstrClass};
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_power::{PowerProfile, Ticks};
use nvp_sim::system::{ExecEngine, ExecMode, IncidentalSetup, SystemConfig, SystemSim};
use nvp_sim::Governor;
use nvp_trace::JsonlBufSink;

const KERNELS: [KernelId; 4] = [
    KernelId::Sobel,
    KernelId::Median,
    KernelId::Integral,
    KernelId::Fft,
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn modes() -> [(&'static str, ExecMode); 5] {
    [
        ("precise", ExecMode::Precise),
        ("fixed4", ExecMode::Fixed(ApproxConfig::fixed(4))),
        ("dynamic2-8", ExecMode::Dynamic(Governor::new(2, 8))),
        ("simd4", ExecMode::Simd4),
        (
            "incidental2-8",
            ExecMode::Incidental(IncidentalSetup::new(2, 8).with_staleness(Ticks(200))),
        ),
    ]
}

fn profiles() -> [(&'static str, PowerProfile); 2] {
    // Bursty: 12 ticks at 800 µW, 138 dead, so most charge cycles die
    // mid-frame and backup placement hangs on every reserve comparison.
    let bursty: Vec<f64> = (0..10_000)
        .map(|i| if i % 150 < 12 { 800.0 } else { 0.0 })
        .collect();
    [
        ("p1", WatchProfile::P1.synthesize_seconds(1.0)),
        ("bursty", PowerProfile::from_uw(bursty)),
    ]
}

fn sim(id: KernelId, mode: ExecMode, cfg: SystemConfig) -> SystemSim {
    let (w, h) = id.min_dims();
    let frames: Vec<Vec<i32>> = (0..4).map(|i| id.make_input(w, h, 70 + i)).collect();
    let cfg = SystemConfig {
        exec_engine: ExecEngine::Step,
        ..cfg
    };
    SystemSim::new(id.spec(w, h), frames, mode, cfg)
}

/// `(label, digest)` for every kernel × mode × profile, in table order.
fn report_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (pname, profile) in profiles() {
        for id in KERNELS {
            for (mname, mode) in modes() {
                let report = sim(id, mode, SystemConfig::default()).run(&profile);
                assert!(report.instructions_retired > 0, "{} did not run", id.name());
                let label = format!("{}/{mname}/{pname}", id.name());
                out.push((label, fnv1a64(format!("{report:?}").as_bytes())));
            }
        }
    }
    out
}

fn assert_table(what: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gl, gd), (wl, wd))| gl == wl && gd == wd);
    if !same {
        let mut table = String::new();
        for (label, digest) in got {
            table.push_str(&format!("    (\"{label}\", 0x{digest:016x}),\n"));
        }
        panic!("{what}: Step output moved; the current table is\n{table}");
    }
}

const REPORT_GOLDEN: &[(&str, u64)] = &[
    ("sobel/precise/p1", 0xf8daaa49b5bd0177),
    ("sobel/fixed4/p1", 0xd0807dcbc1300095),
    ("sobel/dynamic2-8/p1", 0xdb07c4e28750e514),
    ("sobel/simd4/p1", 0x2e03ffca4ff19ec8),
    ("sobel/incidental2-8/p1", 0x504e9b96b204b45f),
    ("median/precise/p1", 0xc955b44bfa4a4033),
    ("median/fixed4/p1", 0x7758f7bb3298935a),
    ("median/dynamic2-8/p1", 0xf28c75ceb81462f7),
    ("median/simd4/p1", 0x4c6643d65f6765c7),
    ("median/incidental2-8/p1", 0x4836177f7c557831),
    ("integral/precise/p1", 0xa5b36abe7dc1a335),
    ("integral/fixed4/p1", 0x333e3443330f8d89),
    ("integral/dynamic2-8/p1", 0xadb162aea625b4b9),
    ("integral/simd4/p1", 0xb055231b3a3bc0de),
    ("integral/incidental2-8/p1", 0xb446238757703552),
    ("FFT/precise/p1", 0x9a3e3bed86e8c52b),
    ("FFT/fixed4/p1", 0xe56ffecb05b420b1),
    ("FFT/dynamic2-8/p1", 0x03189eeb2d3f46dd),
    ("FFT/simd4/p1", 0xca71fb7b4b114558),
    ("FFT/incidental2-8/p1", 0xdaa3a0e44e3d022e),
    ("sobel/precise/bursty", 0x0fbc651ecf7cad18),
    ("sobel/fixed4/bursty", 0x43173fc179f47a7f),
    ("sobel/dynamic2-8/bursty", 0xb53230b53c5b7478),
    ("sobel/simd4/bursty", 0x226875835e6a788a),
    ("sobel/incidental2-8/bursty", 0x58630038d2882762),
    ("median/precise/bursty", 0x2d2da25efc60896a),
    ("median/fixed4/bursty", 0x082b4c67d2427695),
    ("median/dynamic2-8/bursty", 0x160af81c17379dcd),
    ("median/simd4/bursty", 0xa2dba8fa38785abb),
    ("median/incidental2-8/bursty", 0xccdf7098d42d551b),
    ("integral/precise/bursty", 0x863847577033ee9d),
    ("integral/fixed4/bursty", 0x95700e6403c0fb96),
    ("integral/dynamic2-8/bursty", 0x2df97ad03bfa03b7),
    ("integral/simd4/bursty", 0x4866267b34a005e5),
    ("integral/incidental2-8/bursty", 0xebe1102fa05590c3),
    ("FFT/precise/bursty", 0x07e339263659c829),
    ("FFT/fixed4/bursty", 0xa737fe712f06cc96),
    ("FFT/dynamic2-8/bursty", 0xad034e48262ae36d),
    ("FFT/simd4/bursty", 0x2afded6291404170),
    ("FFT/incidental2-8/bursty", 0xfaba4389bee126ce),
];

#[test]
fn step_reports_match_golden() {
    assert_table("reports", &report_digests(), REPORT_GOLDEN);
}

const TRACE_GOLDEN: &[(&str, u64)] = &[
    ("median/dynamic2-8/bursty", 0xa300156fb4cd0c46),
    ("sobel/incidental2-8/p1", 0xe9b1b46877d583b2),
];

#[test]
fn step_traces_match_golden() {
    let [(_, p1), (_, bursty)] = profiles();
    let runs = [
        (
            "median/dynamic2-8/bursty",
            KernelId::Median,
            ExecMode::Dynamic(Governor::new(2, 8)),
            bursty,
        ),
        ("sobel/incidental2-8/p1", KernelId::Sobel, modes()[4].1, p1),
    ];
    // At the default run quantum the start threshold sits at its clamp
    // (95 % of the capacitor) for every configuration; a short quantum
    // leaves it tracking the reserve, so the traced thresholds move with
    // the live bitwidth.
    let cfg = SystemConfig {
        run_quantum_ticks: 20,
        ..Default::default()
    };
    let mut got = Vec::new();
    for (label, id, mode, profile) in runs {
        let mut sink = JsonlBufSink::new();
        sim(id, mode, cfg.clone()).run_traced(&profile, &mut sink);
        let trace = sink.into_string();
        assert!(
            trace.contains("\"threshold_cross\""),
            "{label}: the trace must pin the start threshold"
        );
        got.push((label.to_string(), fnv1a64(trace.as_bytes())));
    }
    assert_table("traces", &got, TRACE_GOLDEN);
}

const ENERGY_TABLE_GOLDEN: &[(&str, u64)] = &[("instr_energy", 0xeb8cc2654089d810)];

#[test]
fn instr_energy_table_matches_golden() {
    let model = SystemConfig::default().energy;
    let mut bytes = Vec::new();
    for ac_en in [false, true] {
        for lanes in 1..=4u8 {
            for live in 1..=8u8 {
                for rest in 1..=8u8 {
                    let cfg = ApproxConfig {
                        ac_en,
                        alu_bits: [live, rest, rest, rest],
                        mem_bits: [live, rest, rest, rest],
                        lanes,
                    };
                    for class in InstrClass::ALL {
                        let e = model.instr_energy(class, &cfg).as_nj();
                        bytes.extend_from_slice(&e.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
    let got = [("instr_energy".to_string(), fnv1a64(&bytes))];
    assert_table("energy table", &got, ENERGY_TABLE_GOLDEN);
}
