//! Per-kernel static tables: what a simulator derives from the kernel
//! program alone.
//!
//! Block suffixes, backup liveness, the synthesized checkpoint placement,
//! the static safe-bits floor and the compiled superinstruction table are
//! compile-time facts of a kernel at given dimensions: none depends on
//! the power trace, the seed or the mode. [`KernelTables`] holds them,
//! each built on first use, exactly once, and then only read. Share one
//! behind an [`Arc`] across every [`SystemSim::with_tables`] of the same
//! kernel and each analysis runs once for all of them; a run that never
//! reads a table never builds it (a `FullState` run never synthesizes a
//! placement, a `Step` run never compiles).
//!
//! [`SystemSim::with_tables`]: crate::SystemSim::with_tables

use crate::system::{compile_kernel, CheckpointPlan};
use nvp_analysis::{BackupLiveness, Cfg, CkptOptions, Synthesis};
use nvp_isa::CompiledProgram;
use nvp_kernels::KernelSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Instruction counts by class and the suffix length, from one pc
/// through the end of its basic block.
pub(crate) type BlockSuffix = ([u32; 6], u32);

/// Counts of the expensive tables a set of [`KernelTables`] has built.
/// Each count rises once per table actually built, never on a read.
#[derive(Debug, Default)]
pub struct TableBuilds {
    compiles: AtomicU64,
    placements: AtomicU64,
}

impl TableBuilds {
    /// Zero counts (usable in a `static`).
    pub const fn new() -> Self {
        TableBuilds {
            compiles: AtomicU64::new(0),
            placements: AtomicU64::new(0),
        }
    }

    /// Superinstruction tables compiled.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Checkpoint placements synthesized.
    pub fn placements(&self) -> u64 {
        self.placements.load(Ordering::Relaxed)
    }
}

/// One kernel's static tables, built lazily and shared immutably.
#[derive(Debug)]
pub struct KernelTables {
    spec: KernelSpec,
    builds: Option<&'static TableBuilds>,
    cfg: OnceLock<Cfg>,
    block_suffix: OnceLock<Vec<BlockSuffix>>,
    backup_liveness: OnceLock<BackupLiveness>,
    placement: OnceLock<Synthesis>,
    auto_floor: OnceLock<u8>,
    compiled: OnceLock<Arc<CompiledProgram>>,
}

impl KernelTables {
    /// Tables for `spec`, none built yet.
    pub fn new(spec: KernelSpec) -> Self {
        KernelTables {
            spec,
            builds: None,
            cfg: OnceLock::new(),
            block_suffix: OnceLock::new(),
            backup_liveness: OnceLock::new(),
            placement: OnceLock::new(),
            auto_floor: OnceLock::new(),
            compiled: OnceLock::new(),
        }
    }

    /// Like [`KernelTables::new`], counting every compilation and
    /// synthesis these tables perform into `builds`.
    pub fn counted(spec: KernelSpec, builds: &'static TableBuilds) -> Self {
        KernelTables {
            builds: Some(builds),
            ..KernelTables::new(spec)
        }
    }

    /// The kernel these tables describe.
    pub fn spec(&self) -> &KernelSpec {
        &self.spec
    }

    fn cfg(&self) -> &Cfg {
        self.cfg.get_or_init(|| Cfg::build(&self.spec.program))
    }

    /// Per-pc basic-block suffix: the static certificate
    /// `ExecEngine::BlockBudget` prices blocks with.
    pub(crate) fn block_suffix(&self) -> &[BlockSuffix] {
        self.block_suffix.get_or_init(|| {
            let program = &self.spec.program;
            let mut suffix = vec![([0u32; 6], 0u32); program.len()];
            for blk in self.cfg().blocks() {
                let mut counts = [0u32; 6];
                let mut n = 0u32;
                for pc in blk.pcs().rev() {
                    let class = program.fetch(pc).expect("pc in range").class();
                    counts[class.index()] += 1;
                    n += 1;
                    suffix[pc] = (counts, n);
                }
            }
            suffix
        })
    }

    /// Per-pc live register sets (drives `BackupScope::LiveOnly`).
    pub(crate) fn backup_liveness(&self) -> &BackupLiveness {
        self.backup_liveness
            .get_or_init(|| BackupLiveness::compute_with(&self.spec.program, self.cfg()))
    }

    /// The checkpoint placement `BackupScope::LiveDirty` prices backups
    /// with: [`nvp_analysis::synthesize`] over the kernel's declared
    /// bitwidth range and memory size, default search options otherwise.
    ///
    /// The declared placement of the shipped kernels is one whole-program
    /// region (a single resume marker at pc 0), under which every live
    /// register is also dirty; synthesizing is what makes LiveDirty
    /// strictly cheaper than LiveOnly.
    pub fn placement(&self) -> &Synthesis {
        self.placement.get_or_init(|| {
            if let Some(builds) = self.builds {
                builds.placements.fetch_add(1, Ordering::Relaxed);
            }
            let (bits_lo, bits_hi) = self.spec.id.declared_bits();
            let opts = CkptOptions {
                bits_lo,
                bits_hi,
                mem_words: self.spec.mem_words,
                ..Default::default()
            };
            nvp_analysis::synthesize(&self.spec.program, self.cfg(), &opts)
        })
    }

    /// The synthesized placement as an explicit [`CheckpointPlan`], for
    /// pinning a run to a reviewed certificate.
    pub fn checkpoint_plan(&self) -> CheckpointPlan {
        let synthesized = &self.placement().synthesized;
        CheckpointPlan {
            checkpoints: synthesized.checkpoints.iter().map(|&(pc, _)| pc).collect(),
            masks: synthesized.masks.clone(),
        }
    }

    /// The static safe-bits floor `StaticBitsFloor::Auto` clamps to.
    pub(crate) fn auto_floor(&self) -> u8 {
        *self.auto_floor.get_or_init(|| {
            nvp_analysis::static_floor(
                &self.spec.program,
                self.spec.id.sanitized_regs(),
                Some(self.spec.mem_words),
            )
        })
    }

    /// The superinstruction table `ExecEngine::Compiled` dispatches
    /// through (see [`compile_kernel`]).
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        self.compiled.get_or_init(|| {
            if let Some(builds) = self.builds {
                builds.compiles.fetch_add(1, Ordering::Relaxed);
            }
            Arc::new(compile_kernel(&self.spec.program, self.spec.mem_words))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_kernels::KernelId;

    #[test]
    fn each_table_builds_once_across_threads() {
        static BUILDS: TableBuilds = TableBuilds::new();
        let tables = KernelTables::counted(KernelId::Median.spec(8, 8), &BUILDS);
        let masks: Vec<Vec<u16>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        tables.compiled();
                        tables.placement().synthesized.masks.clone()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(masks.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(BUILDS.placements(), 1, "one synthesis for four readers");
        assert_eq!(BUILDS.compiles(), 1, "one compilation for four readers");
    }

    #[test]
    fn reading_the_spec_builds_nothing() {
        static BUILDS: TableBuilds = TableBuilds::new();
        let tables = KernelTables::counted(KernelId::Sobel.spec(8, 8), &BUILDS);
        assert_eq!(tables.spec().id, KernelId::Sobel);
        tables.block_suffix();
        tables.backup_liveness();
        tables.auto_floor();
        assert_eq!((BUILDS.placements(), BUILDS.compiles()), (0, 0));
    }
}
