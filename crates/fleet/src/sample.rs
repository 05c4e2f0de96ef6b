//! Deterministic device-instance expansion: population index → cell.
//!
//! A device-instance is never materialized; its entire identity is the
//! cell it hashes to. Each axis draw is an independent splitmix64 stream
//! keyed by `(spec seed, device index, axis)`, so device `i`'s
//! configuration is a pure function of the spec — independent of chunking,
//! job count and visit order. Weighted choice is draw-mod-total-weight
//! (the tiny modulo bias is irrelevant for population simulation and
//! buys exact cross-platform determinism).
//!
//! The run loop does not build a [`CellKey`] per device: a [`CellTable`]
//! ranks the spec's distinct cells once, in canonical-string order, and
//! maps each device straight to its rank through the same draw routine
//! [`cell_for_device`] uses.

use crate::spec::{engine_tag, scope_tag, FleetMode, ScenarioSpec, Weighted};
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_sim::{BackupScope, ExecEngine};

/// The splitmix64 finalizer: a single pass of the mix function, used both
/// to expand devices into axis draws and to derive reservoir priorities.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One fully-specified device configuration — the unit of simulation and
/// of cache sharing. Every field that can change the outcome is in here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellKey {
    /// Testbench.
    pub kernel: KernelId,
    /// Image edge length in pixels.
    pub img: usize,
    /// Cycled input frames.
    pub frames: usize,
    /// Power-trace length in whole milliseconds.
    pub trace_ms: u64,
    /// Power-profile family.
    pub profile: WatchProfile,
    /// Family member (0 = the canonical paper trace).
    pub member: u32,
    /// Capacitor capacity in nanojoules.
    pub cap_nj: u64,
    /// Backup scope.
    pub scope: BackupScope,
    /// NVP variant.
    pub mode: FleetMode,
    /// Execution engine.
    pub engine: ExecEngine,
    /// Retention-decay seed.
    pub seed: u64,
}

impl CellKey {
    /// Canonical content address, mirroring `nvp-serve`'s key spellings.
    /// Equal cells — and only equal cells — render equal strings; the
    /// string is also the fold-order sort key, so it must be stable.
    pub fn canonical(&self) -> String {
        format!(
            "cell/kernel={}&img={}&frames={}&ms={}&profile=p{}&member={}&cap_nj={}&scope={}&mode={}&engine={}&seed={}",
            self.kernel.name(),
            self.img,
            self.frames,
            self.trace_ms,
            self.profile.index(),
            self.member,
            self.cap_nj,
            scope_tag(self.scope),
            self.mode.canonical(),
            engine_tag(self.engine),
            self.seed,
        )
    }

    /// Cohort this cell aggregates under (the percentile curves are
    /// reported per kernel × mode).
    pub fn cohort(&self) -> String {
        format!(
            "kernel={}&mode={}",
            self.kernel.name(),
            self.mode.canonical()
        )
    }
}

/// Axis indices salt the per-device draw streams.
#[derive(Clone, Copy)]
enum Axis {
    Kernel,
    Profile,
    Member,
    Cap,
    Scope,
    Mode,
    Engine,
}

/// The weighted axes in [`Draws::entries`] order.
const WEIGHTED: [Axis; 6] = [
    Axis::Kernel,
    Axis::Profile,
    Axis::Cap,
    Axis::Scope,
    Axis::Mode,
    Axis::Engine,
];

/// Where one device's draws land: the chosen entry index on every
/// weighted axis (in [`WEIGHTED`] order) and its family member.
#[derive(Debug)]
struct Draws {
    entries: [usize; 6],
    member: u32,
}

/// A spec's axis weights flattened for drawing, with each axis' total
/// weight computed once instead of per device.
#[derive(Debug, Clone)]
struct Sampler {
    seed: u64,
    members: u64,
    weights: [Vec<u64>; 6],
    totals: [u64; 6],
}

impl Sampler {
    fn new(spec: &ScenarioSpec) -> Self {
        fn weights<T>(entries: &[Weighted<T>]) -> Vec<u64> {
            entries.iter().map(|w| w.weight).collect()
        }
        let weights = [
            weights(&spec.kernels),
            weights(&spec.profiles),
            weights(&spec.caps_nj),
            weights(&spec.scopes),
            weights(&spec.modes),
            weights(&spec.engines),
        ];
        let totals = std::array::from_fn(|a| weights[a].iter().sum());
        Sampler {
            seed: spec.seed,
            members: spec.members as u64,
            weights,
            totals,
        }
    }

    /// The one draw routine: every axis draw of device `device` is an
    /// independent stream value
    /// `splitmix64(seed ^ splitmix64(device + C1) ^ axis·C2)`, and the
    /// per-device term is computed once for all seven axes.
    fn draws(&self, device: u64) -> Draws {
        let dev = splitmix64(device.wrapping_add(0x5851_F42D_4C95_7F2D));
        let draw = |axis: Axis| {
            splitmix64(self.seed ^ dev ^ (axis as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        };
        Draws {
            entries: std::array::from_fn(|a| {
                pick(&self.weights[a], self.totals[a], draw(WEIGHTED[a]))
            }),
            member: (draw(Axis::Member) % self.members) as u32,
        }
    }
}

/// Weighted choice over an axis distribution: the index of the entry
/// `r` lands on, given the axis' `total` weight.
fn pick(weights: &[u64], total: u64, r: u64) -> usize {
    let mut rem = r % total;
    for (i, &w) in weights.iter().enumerate() {
        if rem < w {
            return i;
        }
        rem -= w;
    }
    weights.len() - 1
}

/// The cell a set of draws selects.
fn key_of(spec: &ScenarioSpec, d: &Draws) -> CellKey {
    let [kernel, profile, cap, scope, mode, engine] = d.entries;
    CellKey {
        kernel: spec.kernels[kernel].item,
        img: spec.img,
        frames: spec.frames,
        trace_ms: spec.trace_ms,
        profile: spec.profiles[profile].item,
        member: d.member,
        cap_nj: spec.caps_nj[cap].item,
        scope: spec.scopes[scope].item,
        mode: spec.modes[mode].item,
        engine: spec.engines[engine].item,
        seed: spec.seed,
    }
}

/// Expands population member `device` (0-based) of `spec` into its cell.
pub fn cell_for_device(spec: &ScenarioSpec, device: u64) -> CellKey {
    key_of(spec, &Sampler::new(spec).draws(device))
}

/// One cell of a [`CellTable`]: its key with the strings the fold and the
/// report need, rendered once per table instead of once per device.
#[derive(Debug, Clone, PartialEq)]
pub struct TableCell {
    /// The cell.
    pub key: CellKey,
    /// `key.canonical()`.
    pub canonical: String,
    /// `key.cohort()`.
    pub cohort: String,
}

/// Every cell a spec can expand to, densely ranked in canonical-string
/// order, with a direct device → rank mapping.
///
/// The table enumerates the axis cross-product once (at most
/// [`MAX_CELLS`](crate::spec::MAX_CELLS) cells). Duplicate axis items —
/// `caps_nj = 2500, 2500` — collapse onto one distinct value, so every
/// axis entry that names the same item shares one rank, exactly as the
/// devices drawing them share one canonical string.
#[derive(Debug, Clone)]
pub struct CellTable {
    sampler: Sampler,
    /// Per weighted axis, entry index → that entry's distinct-item digit
    /// already multiplied by the axis' stride in the cross-product index.
    offsets: [Vec<usize>; 6],
    /// Cross-product index → rank.
    rank_of: Vec<u32>,
    /// Cells in rank (= canonical-string) order.
    cells: Vec<TableCell>,
}

/// An axis' distinct items, each as the index of the first entry naming
/// it, and the distinct-item slot of every entry.
fn distinct<T: PartialEq>(entries: &[Weighted<T>]) -> (Vec<usize>, Vec<usize>) {
    let mut firsts: Vec<usize> = Vec::new();
    let slots = entries
        .iter()
        .enumerate()
        .map(
            |(i, w)| match firsts.iter().position(|&f| entries[f].item == w.item) {
                Some(slot) => slot,
                None => {
                    firsts.push(i);
                    firsts.len() - 1
                }
            },
        )
        .collect();
    (firsts, slots)
}

impl CellTable {
    /// Builds the table for `spec`.
    pub fn new(spec: &ScenarioSpec) -> Self {
        let axes = [
            distinct(&spec.kernels),
            distinct(&spec.profiles),
            distinct(&spec.caps_nj),
            distinct(&spec.scopes),
            distinct(&spec.modes),
            distinct(&spec.engines),
        ];
        // Mixed-radix cross-product index over the distinct items, axes in
        // `Draws::entries` order, then the member digit (stride 1).
        let members = spec.members as usize;
        let mut strides = [0usize; 6];
        let mut size = members;
        for a in (0..6).rev() {
            strides[a] = size;
            size *= axes[a].0.len();
        }
        let offsets = std::array::from_fn(|a| axes[a].1.iter().map(|s| s * strides[a]).collect());

        let mut cells: Vec<(usize, TableCell)> = (0..size)
            .map(|index| {
                let draws = Draws {
                    entries: std::array::from_fn(|a| {
                        let (firsts, _) = &axes[a];
                        firsts[index / strides[a] % firsts.len()]
                    }),
                    member: (index % members) as u32,
                };
                let key = key_of(spec, &draws);
                let cell = TableCell {
                    canonical: key.canonical(),
                    cohort: key.cohort(),
                    key,
                };
                (index, cell)
            })
            .collect();
        cells.sort_unstable_by(|a, b| a.1.canonical.cmp(&b.1.canonical));
        let mut rank_of = vec![0u32; size];
        for (rank, (index, _)) in cells.iter().enumerate() {
            rank_of[*index] = rank as u32;
        }
        CellTable {
            sampler: Sampler::new(spec),
            offsets,
            rank_of,
            cells: cells.into_iter().map(|(_, cell)| cell).collect(),
        }
    }

    /// Number of distinct cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the table has no cells (never true for a valid spec).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Every cell, in rank (= canonical-string) order.
    pub fn cells(&self) -> &[TableCell] {
        &self.cells
    }

    /// The rank of the cell device `device` expands to: the same draws as
    /// [`cell_for_device`], mapped through the cross-product index.
    pub fn rank_for_device(&self, device: u64) -> usize {
        let d = self.sampler.draws(device);
        let index = (0..6).fold(d.member as usize, |acc, a| {
            acc + self.offsets[a][d.entries[a]]
        });
        self.rank_of[index] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use std::collections::BTreeMap;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::parse(
            "fleet-spec-v1\n\
             devices = 4000\n\
             seed = 7\n\
             kernels = sobel*3, median\n\
             profiles = p1, p3\n\
             members = 3\n\
             caps_nj = 2500, 3500\n\
             modes = precise, fixed:4\n",
        )
        .unwrap()
    }

    #[test]
    fn expansion_is_deterministic_and_order_free() {
        let s = spec();
        let forward: Vec<CellKey> = (0..100).map(|d| cell_for_device(&s, d)).collect();
        let backward: Vec<CellKey> = (0..100).rev().map(|d| cell_for_device(&s, d)).collect();
        for (i, cell) in forward.iter().enumerate() {
            assert_eq!(*cell, backward[99 - i]);
        }
    }

    #[test]
    fn weights_steer_the_population() {
        let s = spec();
        let mut kernels: BTreeMap<&str, u64> = BTreeMap::new();
        for d in 0..s.devices {
            *kernels
                .entry(cell_for_device(&s, d).kernel.name())
                .or_default() += 1;
        }
        let sobel = kernels["sobel"] as f64 / s.devices as f64;
        assert!(
            (0.70..0.80).contains(&sobel),
            "sobel weighted 3:1 should draw ~75%, got {sobel:.3}"
        );
        // Every member of the small cross-product is reachable.
        let mut cells: BTreeMap<String, u64> = BTreeMap::new();
        for d in 0..s.devices {
            *cells.entry(cell_for_device(&s, d).canonical()).or_default() += 1;
        }
        assert_eq!(cells.len() as u64, s.distinct_cells());
        assert_eq!(cells.values().sum::<u64>(), s.devices);
    }

    #[test]
    fn seed_changes_move_the_population() {
        let a = spec();
        let mut b = spec();
        b.seed = 8;
        let moved = (0..1000)
            .filter(|&d| cell_for_device(&a, d) != cell_for_device(&b, d))
            .count();
        assert!(moved > 500, "only {moved}/1000 devices moved on reseed");
    }

    #[test]
    fn canonical_cell_spelling_is_stable() {
        let cell = cell_for_device(&spec(), 0);
        let canon = cell.canonical();
        assert!(canon.starts_with("cell/kernel="), "{canon}");
        assert!(canon.contains("&cap_nj="), "{canon}");
        assert_eq!(canon, cell_for_device(&spec(), 0).canonical());
        assert!(cell.cohort().starts_with("kernel="));
    }
}
