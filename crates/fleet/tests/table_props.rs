//! The dense cell table against the direct sampling path, over random
//! valid specs with duplicated and weighted axis items.

use nvp_fleet::{cell_for_device, CellKey, CellTable, ScenarioSpec};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;

const KERNELS: [&str; 4] = ["sobel", "median", "integral", "fft"];
const PROFILES: [&str; 5] = ["p1", "p2", "p3", "p4", "p5"];
const CAPS: [&str; 3] = ["500", "2500", "3500"];
const SCOPES: [&str; 3] = ["full", "live", "live-dirty"];
const MODES: [&str; 5] = [
    "precise",
    "simd4",
    "fixed:4",
    "dynamic:2-8",
    "incidental:4-8",
];
const ENGINES: [&str; 3] = ["step", "block", "compiled"];

/// One axis line: the chosen tokens (repeats allowed), each with the next
/// weight from `weights`.
fn axis(tokens: &[&str], picks: &[usize], weights: &mut impl Iterator<Item = u64>) -> String {
    picks
        .iter()
        .map(|&i| format!("{}*{}", tokens[i], weights.next().unwrap()))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Canonical strings of the whole axis cross-product, enumerated entry by
/// entry (duplicates included), sorted and deduplicated.
fn cross_product(spec: &ScenarioSpec) -> BTreeSet<String> {
    let mut all = BTreeSet::new();
    for k in &spec.kernels {
        for p in &spec.profiles {
            for member in 0..spec.members {
                for c in &spec.caps_nj {
                    for s in &spec.scopes {
                        for m in &spec.modes {
                            for e in &spec.engines {
                                let key = CellKey {
                                    kernel: k.item,
                                    img: spec.img,
                                    frames: spec.frames,
                                    trace_ms: spec.trace_ms,
                                    profile: p.item,
                                    member,
                                    cap_nj: c.item,
                                    scope: s.item,
                                    mode: m.item,
                                    engine: e.item,
                                    seed: spec.seed,
                                };
                                all.insert(key.canonical());
                            }
                        }
                    }
                }
            }
        }
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn table_matches_direct_sampling(
        seed: u64,
        members in 1u32..4,
        kernels in vec(0usize..4, 1..5),
        profiles in vec(0usize..5, 1..4),
        caps in vec(0usize..3, 1..4),
        scopes in vec(0usize..3, 1..3),
        modes in vec(0usize..5, 1..4),
        engines in vec(0usize..3, 1..4),
        weights in vec(1u64..5, 24..25),
        devices in vec(any::<u64>(), 64..65)
    ) {
        let mut w = weights.into_iter().cycle();
        let text = format!(
            "fleet-spec-v1\n\
             devices = 10000000\n\
             seed = {seed}\n\
             members = {members}\n\
             kernels = {}\n\
             profiles = {}\n\
             caps_nj = {}\n\
             scopes = {}\n\
             modes = {}\n\
             engines = {}\n",
            axis(&KERNELS, &kernels, &mut w),
            axis(&PROFILES, &profiles, &mut w),
            axis(&CAPS, &caps, &mut w),
            axis(&SCOPES, &scopes, &mut w),
            axis(&MODES, &modes, &mut w),
            axis(&ENGINES, &engines, &mut w),
        );
        let spec = ScenarioSpec::parse(&text).unwrap();
        let table = CellTable::new(&spec);

        // Table order is sorted, deduplicated canonical-string order.
        let order: Vec<&str> = table.cells().iter().map(|c| c.canonical.as_str()).collect();
        let expected = cross_product(&spec);
        prop_assert!(order.iter().copied().eq(expected.iter().map(String::as_str)), "{text}");
        for cell in table.cells() {
            prop_assert_eq!(&cell.canonical, &cell.key.canonical());
            prop_assert_eq!(&cell.cohort, &cell.key.cohort());
        }

        // Every device lands on the cell the direct path expands it to.
        for d in devices.iter().map(|d| d % spec.devices).chain(0..64) {
            let ranked = &table.cells()[table.rank_for_device(d)].key;
            prop_assert_eq!(*ranked, cell_for_device(&spec, d), "device {} of\n{}", d, text);
        }
    }
}
