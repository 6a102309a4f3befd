//! Epoch-keyed analysis caching with preservation-aware invalidation.
//!
//! The paper's §3.7 `O(n·α(n))` bound counts only union-find / forest /
//! rewrite work: liveness and dominators are *assumed available*, the
//! shape a real compiler uses, where analyses are shared between passes.
//! [`AnalysisManager`] makes that assumption real: every consumer pulls
//! `ControlFlowGraph`, `DomTree`, [`Liveness`] (dataflow or SSA-sparse),
//! and [`LoopNesting`] from one cache keyed on the function's
//! modification [epoch](fcc_ir::Function::epoch), so a phase that did not
//! change the code pays nothing for the next phase's analyses.
//!
//! Passes report what they kept intact through a [`PreservedAnalyses`]
//! mask: a pass that rewrites instructions but leaves every edge alone
//! (constant folding without branch resolution, copy propagation, GVN)
//! preserves the CFG, dominator tree, and loop nesting — only liveness
//! is recomputed. [`AnalysisManager::invalidate`] re-stamps the
//! preserved entries to the post-pass epoch and drops the rest.
//!
//! Analyses defined in crates above this one — the `fcc-dataflow`
//! fixpoint and the `fcc-alias` memory solution — live in a type-erased
//! **extension slot** keyed by [`TypeId`]: a type implements
//! [`ExtensionAnalysis`] and is fetched with
//! [`AnalysisManager::extension`]. Extension entries follow the same
//! epoch stamping and anti-laundering re-stamp as the built-in slots,
//! but only a pass that changed nothing ([`PreservedAnalyses::all`])
//! carries them forward; any change, and [`AnalysisManager::clear`],
//! drops them.
//!
//! Analyses are handed out as `Rc<T>` so a caller can hold several at
//! once (and keep them across further `&mut` manager calls) without
//! fighting the borrow checker; hit/miss counters and a peak-bytes
//! high-water mark make cache behaviour observable per phase (see
//! `fcc_bench::PipelineReport`).

use std::any::{Any, TypeId};
use std::rc::Rc;

use fcc_ir::{ControlFlowGraph, Function};

use crate::domtree::DomTree;
use crate::liveness::Liveness;
use crate::loops::LoopNesting;
use crate::pressure::Pressure;

/// Bitmask of analyses a pass left valid. Combine with `|`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PreservedAnalyses {
    bits: u8,
}

impl PreservedAnalyses {
    const CFG: u8 = 1 << 0;
    const DOMTREE: u8 = 1 << 1;
    const LIVENESS: u8 = 1 << 2;
    const LIVENESS_SSA: u8 = 1 << 3;
    const LOOPS: u8 = 1 << 4;
    const PRESSURE: u8 = 1 << 5;
    const EXTENSIONS: u8 = 1 << 6;

    /// Nothing survives: the pass restructured control flow.
    pub const fn none() -> Self {
        PreservedAnalyses { bits: 0 }
    }

    /// Everything survives: the pass did not change the function.
    pub const fn all() -> Self {
        PreservedAnalyses {
            bits: Self::CFG
                | Self::DOMTREE
                | Self::LIVENESS
                | Self::LIVENESS_SSA
                | Self::LOOPS
                | Self::PRESSURE
                | Self::EXTENSIONS,
        }
    }

    /// The pass rewrote instructions but kept every block and edge: the
    /// CFG-derived structures (CFG, dominator tree, loop nesting) stand,
    /// while both liveness variants — and pressure, which derives from
    /// liveness — are dropped, as are the extension analyses.
    pub const fn cfg_core() -> Self {
        PreservedAnalyses {
            bits: Self::CFG | Self::DOMTREE | Self::LOOPS,
        }
    }

    const fn has(self, bit: u8) -> bool {
        self.bits & bit != 0
    }
}

impl std::ops::BitOr for PreservedAnalyses {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        PreservedAnalyses {
            bits: self.bits | rhs.bits,
        }
    }
}

/// Cache hit/miss counts for one analysis kind.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct HitMiss {
    pub hits: u64,
    pub misses: u64,
}

impl std::ops::Sub for HitMiss {
    type Output = HitMiss;
    fn sub(self, rhs: HitMiss) -> HitMiss {
        HitMiss {
            hits: self.hits - rhs.hits,
            misses: self.misses - rhs.misses,
        }
    }
}

impl std::ops::AddAssign for HitMiss {
    fn add_assign(&mut self, rhs: HitMiss) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
    }
}

/// Per-analysis cache counters; subtract two snapshots for a phase delta.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct AnalysisCounters {
    pub cfg: HitMiss,
    pub domtree: HitMiss,
    pub liveness: HitMiss,
    pub liveness_ssa: HitMiss,
    pub loops: HitMiss,
    pub pressure: HitMiss,
    /// The `fcc-dataflow` fixpoint (SCCP + intervals + known bits).
    pub dataflow: HitMiss,
    /// The `fcc-alias` memory-state solution.
    pub memory: HitMiss,
}

impl AnalysisCounters {
    /// Total cache hits across all analysis kinds.
    pub fn total_hits(&self) -> u64 {
        self.cfg.hits
            + self.domtree.hits
            + self.liveness.hits
            + self.liveness_ssa.hits
            + self.loops.hits
            + self.pressure.hits
            + self.dataflow.hits
            + self.memory.hits
    }

    /// Total cache misses (= full recomputations) across all kinds.
    pub fn total_misses(&self) -> u64 {
        self.cfg.misses
            + self.domtree.misses
            + self.liveness.misses
            + self.liveness_ssa.misses
            + self.loops.misses
            + self.pressure.misses
            + self.dataflow.misses
            + self.memory.misses
    }

    /// `(label, hits, misses)` per analysis kind, for table printers.
    pub fn rows(&self) -> [(&'static str, u64, u64); 8] {
        [
            ("cfg", self.cfg.hits, self.cfg.misses),
            ("domtree", self.domtree.hits, self.domtree.misses),
            ("liveness", self.liveness.hits, self.liveness.misses),
            ("live-ssa", self.liveness_ssa.hits, self.liveness_ssa.misses),
            ("loops", self.loops.hits, self.loops.misses),
            ("pressure", self.pressure.hits, self.pressure.misses),
            ("dataflow", self.dataflow.hits, self.dataflow.misses),
            ("memory", self.memory.hits, self.memory.misses),
        ]
    }
}

impl std::ops::Sub for AnalysisCounters {
    type Output = AnalysisCounters;
    fn sub(self, rhs: AnalysisCounters) -> AnalysisCounters {
        AnalysisCounters {
            cfg: self.cfg - rhs.cfg,
            domtree: self.domtree - rhs.domtree,
            liveness: self.liveness - rhs.liveness,
            liveness_ssa: self.liveness_ssa - rhs.liveness_ssa,
            loops: self.loops - rhs.loops,
            pressure: self.pressure - rhs.pressure,
            dataflow: self.dataflow - rhs.dataflow,
            memory: self.memory - rhs.memory,
        }
    }
}

impl std::ops::AddAssign for AnalysisCounters {
    fn add_assign(&mut self, rhs: AnalysisCounters) {
        self.cfg += rhs.cfg;
        self.domtree += rhs.domtree;
        self.liveness += rhs.liveness;
        self.liveness_ssa += rhs.liveness_ssa;
        self.loops += rhs.loops;
        self.pressure += rhs.pressure;
        self.dataflow += rhs.dataflow;
        self.memory += rhs.memory;
    }
}

/// One cached analysis: the epoch it was computed (or re-stamped) at,
/// plus the shared result.
struct Slot<T: ?Sized> {
    entry: Option<(u64, Rc<T>)>,
}

impl<T: ?Sized> Default for Slot<T> {
    fn default() -> Self {
        Slot { entry: None }
    }
}

impl<T> Slot<T> {
    fn put(&mut self, epoch: u64, value: T) -> Rc<T> {
        let rc = Rc::new(value);
        self.entry = Some((epoch, Rc::clone(&rc)));
        rc
    }
}

impl<T: ?Sized> Slot<T> {
    fn get(&self, epoch: u64) -> Option<Rc<T>> {
        match &self.entry {
            Some((e, rc)) if *e == epoch => Some(Rc::clone(rc)),
            _ => None,
        }
    }

    /// Keep the entry but declare it valid for `epoch` too (the pass
    /// that moved the function to `epoch` preserved this analysis).
    ///
    /// Only an entry stamped `valid_at` — the epoch the function had
    /// when the pass started — may be carried forward. An older stamp
    /// means the entry was already stale before the pass ran (e.g. an
    /// analysis computed mid-mutation by an earlier phase), and
    /// re-stamping it would launder it as fresh; such entries are
    /// dropped instead.
    fn restamp(&mut self, valid_at: u64, epoch: u64) {
        match &mut self.entry {
            Some((e, _)) if *e == valid_at => *e = epoch,
            Some(_) => self.entry = None,
            None => {}
        }
    }

    fn clear(&mut self) {
        self.entry = None;
    }
}

/// An analysis defined outside this crate, cached in the manager's
/// extension slot under its [`TypeId`].
///
/// `fcc-analysis` sits below the crates that define these analyses, so
/// the manager cannot name them; the trait supplies what the built-in
/// slots hard-code: how to compute the result, which counter row its
/// hits and misses land in, and its footprint for the peak-bytes mark.
pub trait ExtensionAnalysis: Any {
    /// The counter row for this analysis's hits and misses.
    fn counter(counters: &mut AnalysisCounters) -> &mut HitMiss;

    /// Compute from scratch. May pull other analyses from `am`,
    /// extensions included.
    fn compute(func: &Function, am: &mut AnalysisManager) -> Self;

    /// Heap footprint in bytes.
    fn bytes(&self) -> usize;
}

/// One extension entry: the type-erased slot plus the footprint recorded
/// when it was filled (entries are immutable behind their `Rc`).
struct ExtSlot {
    id: TypeId,
    slot: Slot<dyn Any>,
    bytes: usize,
}

/// Lazily computes and caches the standard function analyses, keyed on
/// [`Function::epoch`].
///
/// One manager serves **one function's pipeline** (clones included while
/// they stay unmodified — epochs are globally unique, so a manager can
/// never confuse two diverged functions; at worst it recomputes).
#[derive(Default)]
pub struct AnalysisManager {
    cfg: Slot<ControlFlowGraph>,
    domtree: Slot<DomTree>,
    liveness: Slot<Liveness>,
    liveness_ssa: Slot<Liveness>,
    loops: Slot<LoopNesting>,
    pressure: Slot<Pressure>,
    extensions: Vec<ExtSlot>,
    counters: AnalysisCounters,
    peak_bytes: usize,
}

impl AnalysisManager {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The control-flow graph (predecessors, successors, postorder).
    pub fn cfg(&mut self, func: &Function) -> Rc<ControlFlowGraph> {
        let epoch = func.epoch();
        if let Some(hit) = self.cfg.get(epoch) {
            self.counters.cfg.hits += 1;
            return hit;
        }
        self.counters.cfg.misses += 1;
        let rc = self.cfg.put(epoch, ControlFlowGraph::compute(func));
        self.note_bytes();
        rc
    }

    /// The dominator tree (computes and caches the CFG on the way).
    pub fn domtree(&mut self, func: &Function) -> Rc<DomTree> {
        let epoch = func.epoch();
        if let Some(hit) = self.domtree.get(epoch) {
            self.counters.domtree.hits += 1;
            return hit;
        }
        let cfg = self.cfg(func);
        self.counters.domtree.misses += 1;
        let rc = self.domtree.put(epoch, DomTree::compute(func, &cfg));
        self.note_bytes();
        rc
    }

    /// φ-aware dataflow liveness (works on non-SSA code too).
    pub fn liveness(&mut self, func: &Function) -> Rc<Liveness> {
        let epoch = func.epoch();
        if let Some(hit) = self.liveness.get(epoch) {
            self.counters.liveness.hits += 1;
            return hit;
        }
        let cfg = self.cfg(func);
        self.counters.liveness.misses += 1;
        let rc = self.liveness.put(epoch, Liveness::compute(func, &cfg));
        self.note_bytes();
        rc
    }

    /// Sparse SSA liveness (requires strict SSA; same sets as
    /// [`Self::liveness`], computed per-variable from def/use chains).
    pub fn liveness_ssa(&mut self, func: &Function) -> Rc<Liveness> {
        let epoch = func.epoch();
        if let Some(hit) = self.liveness_ssa.get(epoch) {
            self.counters.liveness_ssa.hits += 1;
            return hit;
        }
        let cfg = self.cfg(func);
        self.counters.liveness_ssa.misses += 1;
        let rc = self
            .liveness_ssa
            .put(epoch, Liveness::compute_ssa(func, &cfg));
        self.note_bytes();
        rc
    }

    /// Natural-loop nesting (computes and caches CFG + dominators).
    pub fn loops(&mut self, func: &Function) -> Rc<LoopNesting> {
        let epoch = func.epoch();
        if let Some(hit) = self.loops.get(epoch) {
            self.counters.loops.hits += 1;
            return hit;
        }
        let cfg = self.cfg(func);
        let dt = self.domtree(func);
        self.counters.loops.misses += 1;
        let rc = self.loops.put(epoch, LoopNesting::compute(&cfg, &dt));
        self.note_bytes();
        rc
    }

    /// Per-point register pressure from sparse SSA liveness (computes
    /// and caches CFG + SSA liveness on the way). Requires strict SSA;
    /// for post-destruction code compute [`Pressure`] directly from the
    /// dataflow [`Self::liveness`].
    pub fn pressure(&mut self, func: &Function) -> Rc<Pressure> {
        let epoch = func.epoch();
        if let Some(hit) = self.pressure.get(epoch) {
            self.counters.pressure.hits += 1;
            return hit;
        }
        let cfg = self.cfg(func);
        let live = self.liveness_ssa(func);
        self.counters.pressure.misses += 1;
        let rc = self
            .pressure
            .put(epoch, Pressure::compute(func, &cfg, &live));
        self.note_bytes();
        rc
    }

    /// The extension analysis `T` (see [`ExtensionAnalysis`]), computed
    /// on a miss and cached for `func`'s current epoch.
    pub fn extension<T: ExtensionAnalysis>(&mut self, func: &Function) -> Rc<T> {
        if let Some(hit) = self.cached_extension::<T>(func) {
            T::counter(&mut self.counters).hits += 1;
            return hit;
        }
        let value = T::compute(func, self);
        T::counter(&mut self.counters).misses += 1;
        let bytes = value.bytes();
        let rc = Rc::new(value);
        let erased: Rc<dyn Any> = rc.clone();
        let entry = Some((func.epoch(), erased));
        let id = TypeId::of::<T>();
        match self.extensions.iter_mut().find(|e| e.id == id) {
            Some(e) => {
                e.slot.entry = entry;
                e.bytes = bytes;
            }
            None => self.extensions.push(ExtSlot {
                id,
                slot: Slot { entry },
                bytes,
            }),
        }
        self.note_bytes();
        rc
    }

    /// Apply a pass's preservation promise after it mutated `func`:
    /// preserved analyses are re-stamped to the new epoch, the rest are
    /// dropped. Call with the *post-pass* function; `valid_at` is the
    /// epoch the function had **before** the pass ran (snapshot it with
    /// [`Function::epoch`]). Entries stamped earlier than `valid_at`
    /// were stale before the pass started and are dropped even when
    /// nominally preserved — re-stamping them would present an analysis
    /// of some older function state as current.
    pub fn invalidate(&mut self, func: &Function, valid_at: u64, preserved: PreservedAnalyses) {
        let epoch = func.epoch();
        if preserved.has(PreservedAnalyses::CFG) {
            self.cfg.restamp(valid_at, epoch);
        } else {
            self.cfg.clear();
        }
        if preserved.has(PreservedAnalyses::DOMTREE) {
            self.domtree.restamp(valid_at, epoch);
        } else {
            self.domtree.clear();
        }
        if preserved.has(PreservedAnalyses::LIVENESS) {
            self.liveness.restamp(valid_at, epoch);
        } else {
            self.liveness.clear();
        }
        if preserved.has(PreservedAnalyses::LIVENESS_SSA) {
            self.liveness_ssa.restamp(valid_at, epoch);
        } else {
            self.liveness_ssa.clear();
        }
        if preserved.has(PreservedAnalyses::LOOPS) {
            self.loops.restamp(valid_at, epoch);
        } else {
            self.loops.clear();
        }
        if preserved.has(PreservedAnalyses::PRESSURE) {
            self.pressure.restamp(valid_at, epoch);
        } else {
            self.pressure.clear();
        }
        for e in &mut self.extensions {
            if preserved.has(PreservedAnalyses::EXTENSIONS) {
                e.slot.restamp(valid_at, epoch);
            } else {
                e.slot.clear();
            }
        }
    }

    /// Drop every cached analysis (counters and peak survive).
    pub fn clear(&mut self) {
        self.cfg.clear();
        self.domtree.clear();
        self.liveness.clear();
        self.liveness_ssa.clear();
        self.loops.clear();
        self.pressure.clear();
        for e in &mut self.extensions {
            e.slot.clear();
        }
    }

    /// Cumulative hit/miss counters.
    pub fn counters(&self) -> AnalysisCounters {
        self.counters
    }

    /// High-water mark of the cache's heap footprint, in bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Current heap footprint of all cached analyses, in bytes.
    pub fn current_bytes(&self) -> usize {
        let mut total = 0;
        if let Some((_, c)) = &self.cfg.entry {
            total += c.bytes();
        }
        if let Some((_, d)) = &self.domtree.entry {
            total += d.bytes();
        }
        if let Some((_, l)) = &self.liveness.entry {
            total += l.bytes();
        }
        if let Some((_, l)) = &self.liveness_ssa.entry {
            total += l.bytes();
        }
        if let Some((_, l)) = &self.loops.entry {
            total += l.bytes();
        }
        if let Some((_, p)) = &self.pressure.entry {
            total += p.bytes();
        }
        for e in &self.extensions {
            if e.slot.entry.is_some() {
                total += e.bytes;
            }
        }
        total
    }

    // ----- non-computing accessors (for invalidation tests) --------------

    /// The cached CFG, if one is valid for `func`'s current epoch.
    pub fn cached_cfg(&self, func: &Function) -> Option<Rc<ControlFlowGraph>> {
        self.cfg.get(func.epoch())
    }

    /// The cached dominator tree, if valid for `func`'s current epoch.
    pub fn cached_domtree(&self, func: &Function) -> Option<Rc<DomTree>> {
        self.domtree.get(func.epoch())
    }

    /// The cached dataflow liveness, if valid for `func`'s current epoch.
    pub fn cached_liveness(&self, func: &Function) -> Option<Rc<Liveness>> {
        self.liveness.get(func.epoch())
    }

    /// The cached SSA liveness, if valid for `func`'s current epoch.
    pub fn cached_liveness_ssa(&self, func: &Function) -> Option<Rc<Liveness>> {
        self.liveness_ssa.get(func.epoch())
    }

    /// The cached loop nesting, if valid for `func`'s current epoch.
    pub fn cached_loops(&self, func: &Function) -> Option<Rc<LoopNesting>> {
        self.loops.get(func.epoch())
    }

    /// The cached pressure, if valid for `func`'s current epoch.
    pub fn cached_pressure(&self, func: &Function) -> Option<Rc<Pressure>> {
        self.pressure.get(func.epoch())
    }

    /// The cached extension analysis `T`, if valid for `func`'s current
    /// epoch.
    pub fn cached_extension<T: ExtensionAnalysis>(&self, func: &Function) -> Option<Rc<T>> {
        let id = TypeId::of::<T>();
        let e = self.extensions.iter().find(|e| e.id == id)?;
        let rc = e.slot.get(func.epoch())?;
        Some(
            rc.downcast::<T>()
                .expect("extension entries are keyed by TypeId"),
        )
    }

    fn note_bytes(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.current_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_ir::parse::parse_function;
    use fcc_ir::InstKind;

    fn diamond() -> Function {
        parse_function(
            "function @d(1) {
             b0:
                 v0 = param 0
                 branch v0, b1, b2
             b1:
                 v1 = const 1
                 jump b3
             b2:
                 v2 = const 2
                 jump b3
             b3:
                 return v0
             }",
        )
        .unwrap()
    }

    #[test]
    fn second_query_hits() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        let a = am.cfg(&f);
        let b = am.cfg(&f);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(am.counters().cfg, HitMiss { hits: 1, misses: 1 });
    }

    #[test]
    fn mutation_invalidates() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        let a = am.domtree(&f);
        let v = f.new_value();
        f.insert_before_terminator(f.entry(), InstKind::Const { imm: 7 }, Some(v));
        let b = am.domtree(&f);
        assert!(!Rc::ptr_eq(&a, &b), "stale domtree served after mutation");
        assert_eq!(am.counters().domtree.misses, 2);
    }

    #[test]
    fn domtree_primes_cfg() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        am.domtree(&f);
        // The CFG was computed as a dependency; asking for it now hits.
        am.cfg(&f);
        assert_eq!(am.counters().cfg, HitMiss { hits: 1, misses: 1 });
    }

    #[test]
    fn preservation_restamps() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        let dt_before = am.domtree(&f);
        am.liveness(&f);
        let before = f.epoch();

        // An instruction-only rewrite: epoch moves, CFG shape intact.
        let v = f.new_value();
        f.insert_before_terminator(f.entry(), InstKind::Const { imm: 7 }, Some(v));
        am.invalidate(&f, before, PreservedAnalyses::cfg_core());

        // Dominator tree survived (same Rc), liveness did not.
        let dt_after = am.domtree(&f);
        assert!(Rc::ptr_eq(&dt_before, &dt_after));
        assert_eq!(am.counters().domtree, HitMiss { hits: 1, misses: 1 });
        assert!(am.cached_liveness(&f).is_none());
        am.liveness(&f);
        assert_eq!(am.counters().liveness.misses, 2);
    }

    #[test]
    fn invalidate_none_drops_everything() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        am.cfg(&f);
        am.domtree(&f);
        am.loops(&f);
        let before = f.epoch();
        f.bump_epoch();
        am.invalidate(&f, before, PreservedAnalyses::none());
        assert!(am.cached_cfg(&f).is_none());
        assert!(am.cached_domtree(&f).is_none());
        assert!(am.cached_loops(&f).is_none());
    }

    #[test]
    fn invalidate_never_launders_pre_stale_entries() {
        // An analysis computed, then invalidated by a mutation, must not
        // be re-stamped as fresh by a later invalidate whose `valid_at`
        // postdates it — only entries valid at the pass's start epoch
        // may be carried forward.
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        am.liveness(&f); // stamped at epoch E0
        let v = f.new_value();
        f.insert_before_terminator(f.entry(), InstKind::Const { imm: 7 }, Some(v)); // E1
        let before = f.epoch();
        f.bump_epoch(); // a "pass" conservatively bumps without changing anything
        am.invalidate(&f, before, PreservedAnalyses::all());
        // The liveness entry was stale already at `before`; it must be
        // dropped, not presented as valid for the current epoch.
        assert!(
            am.cached_liveness(&f).is_none(),
            "stale liveness was laundered"
        );
    }

    #[test]
    fn peak_bytes_grows_with_cache() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        assert_eq!(am.peak_bytes(), 0);
        am.cfg(&f);
        let after_cfg = am.peak_bytes();
        assert!(after_cfg > 0);
        am.liveness(&f);
        assert!(am.peak_bytes() >= after_cfg);
        assert!(am.current_bytes() <= am.peak_bytes());
    }

    #[test]
    fn distinct_functions_never_share_entries() {
        // Two structurally identical functions have different epochs, so
        // one manager recomputes rather than serving the wrong cache.
        let f = diamond();
        let g = diamond();
        let mut am = AnalysisManager::new();
        am.cfg(&f);
        assert!(am.cached_cfg(&g).is_none());
        am.cfg(&g);
        assert_eq!(am.counters().cfg, HitMiss { hits: 0, misses: 2 });
    }

    /// A stand-in extension: the block count, plus a second extension
    /// that depends on it (the shape of `MemorySolution` over
    /// `FunctionAnalysis`).
    struct BlockCount(usize);
    impl ExtensionAnalysis for BlockCount {
        fn counter(c: &mut AnalysisCounters) -> &mut HitMiss {
            &mut c.dataflow
        }
        fn compute(func: &Function, am: &mut AnalysisManager) -> Self {
            BlockCount(am.cfg(func).postorder().len())
        }
        fn bytes(&self) -> usize {
            std::mem::size_of::<Self>()
        }
    }

    struct DoubledBlocks(usize);
    impl ExtensionAnalysis for DoubledBlocks {
        fn counter(c: &mut AnalysisCounters) -> &mut HitMiss {
            &mut c.memory
        }
        fn compute(func: &Function, am: &mut AnalysisManager) -> Self {
            DoubledBlocks(2 * am.extension::<BlockCount>(func).0)
        }
        fn bytes(&self) -> usize {
            std::mem::size_of::<Self>()
        }
    }

    #[test]
    fn extension_hits_and_counts_its_own_row() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        let a = am.extension::<BlockCount>(&f);
        let b = am.extension::<BlockCount>(&f);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(a.0, 4);
        assert_eq!(am.counters().dataflow, HitMiss { hits: 1, misses: 1 });
        // A dependent extension pulls the cached one through the manager.
        assert_eq!(am.extension::<DoubledBlocks>(&f).0, 8);
        assert_eq!(am.counters().dataflow, HitMiss { hits: 2, misses: 1 });
        assert_eq!(am.counters().memory, HitMiss { hits: 0, misses: 1 });
        assert!(am.current_bytes() >= 2 * std::mem::size_of::<usize>());
    }

    #[test]
    fn extension_survives_a_no_change_pass() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        let a = am.extension::<BlockCount>(&f);
        let before = f.epoch();
        f.bump_epoch(); // a pass that bumped conservatively, changing nothing
        am.invalidate(&f, before, PreservedAnalyses::all());
        let b = am
            .cached_extension::<BlockCount>(&f)
            .expect("carried forward");
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn extension_dropped_after_a_cfg_core_change() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        am.extension::<BlockCount>(&f);
        am.domtree(&f);
        let before = f.epoch();
        let v = f.new_value();
        f.insert_before_terminator(f.entry(), InstKind::Const { imm: 7 }, Some(v));
        am.invalidate(&f, before, PreservedAnalyses::cfg_core());
        // The CFG-derived slots survive an instruction rewrite; the
        // extension (a fact about the instructions) does not.
        assert!(am.cached_domtree(&f).is_some());
        assert!(am.cached_extension::<BlockCount>(&f).is_none());
        am.extension::<BlockCount>(&f);
        assert_eq!(am.counters().dataflow.misses, 2);
    }

    #[test]
    fn extension_never_carried_forward_from_a_stale_epoch() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        am.extension::<BlockCount>(&f); // stamped at E0
        let v = f.new_value();
        f.insert_before_terminator(f.entry(), InstKind::Const { imm: 7 }, Some(v)); // E1
        let before = f.epoch();
        f.bump_epoch();
        am.invalidate(&f, before, PreservedAnalyses::all());
        assert!(
            am.cached_extension::<BlockCount>(&f).is_none(),
            "stale extension was laundered"
        );
    }

    #[test]
    fn clear_empties_the_extension_slot() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        am.extension::<BlockCount>(&f);
        am.extension::<DoubledBlocks>(&f);
        am.clear();
        assert!(am.cached_extension::<BlockCount>(&f).is_none());
        assert!(am.cached_extension::<DoubledBlocks>(&f).is_none());
        assert_eq!(am.current_bytes(), 0);
    }
}
