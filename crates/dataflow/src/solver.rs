//! The sparse conditional worklist solver (Wegman–Zadeck style).
//!
//! Facts live on SSA names, not on program points: strict SSA gives
//! every name one definition that dominates all uses, so a fact can
//! propagate straight down def–use edges instead of being re-merged at
//! every block — the same sparsity argument that lets the paper decide
//! interference from per-block liveness alone (Theorem 2.2).
//!
//! The solver is *conditional*: it starts from the entry block only and
//! marks CFG edges executable as branch conditions admit them, so code
//! behind a provably-one-sided branch is never evaluated and φ-nodes
//! join over executable incoming edges only. On top of the classic
//! scheme it adds **branch-condition refinement**: when a conditional
//! branch tests a comparison, the taken edge implies a constraint on the
//! compared values, which is met (∧) into their facts — on the edge
//! itself for φ arguments, and over the whole dominated region when the
//! edge is the target's sole entry.

use fcc_analysis::AnalysisManager;
use fcc_ir::instr::BinOp;
use fcc_ir::{Block, Function, Inst, InstKind, Value};

use crate::lattice::Lattice;

/// Which successors of a conditional branch remain feasible given the
/// condition's fact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Feasible {
    /// The condition may be zero or nonzero: both edges stay live.
    Both,
    /// Provably nonzero: only the then edge.
    ThenOnly,
    /// Provably zero: only the else edge.
    ElseOnly,
    /// No evidence yet (condition still ⊥): mark nothing.
    Neither,
}

/// The abstract semantics of one analysis: a transfer function over
/// instructions, a branch-feasibility test, and (optionally) the
/// constraint a taken comparison places on its operands.
pub trait Transfer {
    /// The fact domain.
    type Fact: Lattice;

    /// Abstract semantics of one non-φ instruction. `env` yields the
    /// current (refinement-adjusted) fact of an operand; implementations
    /// should return ⊥ when any operand is still ⊥ (its definition has
    /// not been reached) and ⊤ for anything they do not model.
    fn transfer(&self, kind: &InstKind, env: &mut dyn FnMut(Value) -> Self::Fact) -> Self::Fact;

    /// Feasible successors of `branch cond, …` given `cond`'s fact.
    fn branch(&self, cond: &Self::Fact) -> Feasible;

    /// The set of values `x` may hold given that `x op other` (when
    /// `lhs`) or `other op x` (otherwise) evaluated to `taken`, as a
    /// lattice element to be met with `x`'s fact. `None` means the
    /// domain cannot express the constraint. Must be monotone in
    /// `other`: a larger `other` fact must yield a larger constraint.
    fn constraint(
        &self,
        op: BinOp,
        lhs: bool,
        taken: bool,
        other: &Self::Fact,
    ) -> Option<Self::Fact> {
        let _ = (op, lhs, taken, other);
        None
    }
}

/// A fixpoint of one analysis over one function.
pub struct Solution<F> {
    facts: Vec<F>,
    exec_block: Vec<bool>,
    exec_edge: ExecEdges,
    /// Work items processed before the fixpoint (a cost/diagnostic
    /// figure; bounded by the saturation cap).
    pub steps: usize,
}

impl<F: Lattice> Solution<F> {
    /// The fact for `v`. Values defined in unreachable code keep ⊥.
    pub fn fact(&self, v: Value) -> &F {
        &self.facts[v.index()]
    }

    /// Whether any execution can reach `b`.
    pub fn block_executable(&self, b: Block) -> bool {
        self.exec_block.get(b.index()).copied().unwrap_or(false)
    }

    /// Whether any execution can traverse the CFG edge `from → to`.
    pub fn edge_executable(&self, from: Block, to: Block) -> bool {
        self.exec_edge.contains(from, to)
    }

    /// Number of blocks proven reachable.
    pub fn executable_blocks(&self) -> usize {
        self.exec_block.iter().filter(|&&x| x).count()
    }

    /// Heap footprint in bytes (facts, block flags, live edges).
    pub fn bytes(&self) -> usize {
        self.facts.len() * std::mem::size_of::<F>()
            + self.exec_block.len()
            + self.exec_edge.0.len() * std::mem::size_of::<[u32; 2]>()
    }
}

/// Executable CFG edges, by source block. A block ends in a jump, a
/// two-way branch, or a return, so it has at most two targets.
struct ExecEdges(Vec<[u32; 2]>);

const NO_EDGE: u32 = u32::MAX;

impl ExecEdges {
    fn new(blocks: usize) -> ExecEdges {
        ExecEdges(vec![[NO_EDGE; 2]; blocks])
    }

    fn contains(&self, from: Block, to: Block) -> bool {
        self.0
            .get(from.index())
            .is_some_and(|t| t.contains(&(to.index() as u32)))
    }

    /// Mark `from → to`; returns whether it was new.
    fn insert(&mut self, from: Block, to: Block) -> bool {
        let to = to.index() as u32;
        let slots = &mut self.0[from.index()];
        if slots.contains(&to) {
            return false;
        }
        let free = slots
            .iter()
            .position(|&t| t == NO_EDGE)
            .expect("a block has at most two successors");
        slots[free] = to;
        true
    }
}

/// One branch-implied constraint on `value`.
#[derive(Clone, Copy)]
struct RefTerm {
    value: Value,
    op: BinOp,
    /// Whether `value` is the left operand of the comparison.
    lhs: bool,
    /// The truth value the comparison took along the edge.
    taken: bool,
    other: RefOther,
}

#[derive(Clone, Copy)]
enum RefOther {
    Val(Value),
    /// The literal zero the branch itself tests against.
    Zero,
}

fn is_comparison(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

/// φ updates widen early at loop headers, late everywhere else (the
/// safety net for shapes the loop analysis does not classify).
const WIDEN_AT_HEADER: u16 = 3;
const WIDEN_ANYWHERE: u16 = 16;

/// The lattice-independent inputs of the solver: def–use lists, the
/// instruction → block map, the branch-refinement tables, loop headers,
/// and the dominator tree. They depend only on the instructions and the
/// CFG shape, so one harvest serves every analysis run over the same
/// function state — [`crate::FunctionAnalysis`] runs its three lattices
/// over a single harvest.
pub(crate) struct SolverInputs {
    dt: std::rc::Rc<fcc_analysis::DomTree>,
    uses: Vec<Vec<Inst>>,
    /// Owning block per instruction index (`None` for removed ones).
    inst_block: Vec<Option<Block>>,
    /// Constraints per refined value, each valid in the region
    /// dominated by its root block.
    region_refs: Vec<Vec<(Block, RefTerm)>>,
    /// Constraints applying to φ arguments along one CFG edge, by
    /// source block, then target.
    edge_refs: Vec<Vec<(Block, Vec<RefTerm>)>>,
    /// `other → refined values`: when `other`'s fact rises, every use of
    /// the refined value must be revisited.
    refine_deps: Vec<Vec<Value>>,
    is_header: Vec<bool>,
}

impl SolverInputs {
    /// Collect the inputs for the strict-SSA `func`, pulling the CFG,
    /// dominator tree, and loop nesting from `am`.
    pub(crate) fn harvest(func: &Function, am: &mut AnalysisManager) -> SolverInputs {
        let cfg = am.cfg(func);
        let dt = am.domtree(func);
        let loops = am.loops(func);

        let nv = func.num_values();
        let mut uses: Vec<Vec<Inst>> = vec![Vec::new(); nv];
        let mut inst_block = vec![None; func.num_insts()];
        let mut def_of: Vec<Option<Inst>> = vec![None; nv];
        for b in func.blocks() {
            for &i in func.block_insts(b) {
                let data = func.inst(i);
                inst_block[i.index()] = Some(b);
                if let Some(d) = data.dst {
                    def_of[d.index()] = Some(i);
                }
                data.kind.for_each_use(|v| uses[v.index()].push(i));
                if let InstKind::Phi { args } = &data.kind {
                    for a in args {
                        uses[a.value.index()].push(i);
                    }
                }
            }
        }

        // Branch-implied constraints depend only on the (immutable)
        // instructions and CFG shape.
        let mut region_refs: Vec<Vec<(Block, RefTerm)>> = vec![Vec::new(); nv];
        let mut edge_refs: Vec<Vec<(Block, Vec<RefTerm>)>> = vec![Vec::new(); func.num_blocks()];
        let mut refine_deps: Vec<Vec<Value>> = vec![Vec::new(); nv];
        for b in func.blocks() {
            let Some(term) = func.terminator(b) else {
                continue;
            };
            let InstKind::Branch {
                cond,
                then_dst,
                else_dst,
            } = func.inst(term).kind
            else {
                continue;
            };
            if then_dst == else_dst {
                continue;
            }
            for (succ, edge_taken) in [(then_dst, true), (else_dst, false)] {
                let mut terms = vec![RefTerm {
                    value: cond,
                    op: if edge_taken { BinOp::Ne } else { BinOp::Eq },
                    lhs: true,
                    taken: true,
                    other: RefOther::Zero,
                }];
                if let Some(di) = def_of[cond.index()] {
                    if let InstKind::Binary { op, a, b: rhs } = func.inst(di).kind {
                        if is_comparison(op) && a != rhs {
                            terms.push(RefTerm {
                                value: a,
                                op,
                                lhs: true,
                                taken: edge_taken,
                                other: RefOther::Val(rhs),
                            });
                            terms.push(RefTerm {
                                value: rhs,
                                op,
                                lhs: false,
                                taken: edge_taken,
                                other: RefOther::Val(a),
                            });
                        }
                    }
                }
                for t in &terms {
                    if let RefOther::Val(o) = t.other {
                        refine_deps[o.index()].push(t.value);
                    }
                }
                edge_refs[b.index()].push((succ, terms.clone()));
                // The constraint holds throughout the region the edge is
                // the only way into: SSA values are immutable and their
                // defs dominate the branch, so the tested value is the
                // same at every block the edge target dominates.
                let preds = cfg.preds(succ);
                if preds.len() == 1 && preds[0] == b {
                    for t in terms {
                        region_refs[t.value.index()].push((succ, t));
                    }
                }
            }
        }

        let mut is_header = vec![false; func.num_blocks()];
        for &h in loops.headers() {
            is_header[h.index()] = true;
        }

        SolverInputs {
            dt,
            uses,
            inst_block,
            region_refs,
            edge_refs,
            refine_deps,
            is_header,
        }
    }
}

struct Solver<'a, T: Transfer> {
    func: &'a Function,
    t: &'a T,
    inputs: &'a SolverInputs,
    facts: Vec<T::Fact>,
    exec_block: Vec<bool>,
    visited: Vec<bool>,
    exec_edge: ExecEdges,
    raises: Vec<u16>,
    zero: T::Fact,
    flow: Vec<(Block, Block)>,
    ssa: Vec<Inst>,
    steps: usize,
}

/// Run `t` to fixpoint over the strict-SSA function `func`, pulling the
/// CFG, dominator tree, and loop nesting from `am`.
pub fn solve<T: Transfer>(func: &Function, am: &mut AnalysisManager, t: &T) -> Solution<T::Fact> {
    solve_with(func, &SolverInputs::harvest(func, am), t)
}

/// [`solve`] over inputs already harvested from `func`'s current state.
pub(crate) fn solve_with<T: Transfer>(
    func: &Function,
    inputs: &SolverInputs,
    t: &T,
) -> Solution<T::Fact> {
    // Fault-injection point: an armed solver-spin models a transfer
    // function that never converges. Only the installed fuel budget
    // bounds it — with unlimited fuel this genuinely hangs, which is
    // exactly the failure mode the budget exists to contain.
    while fcc_analysis::fault::solver_spin() {
        fcc_analysis::fuel::checkpoint(1);
        std::hint::spin_loop();
    }
    let nv = func.num_values();
    let nb = func.num_blocks();
    let zero = t.transfer(&InstKind::Const { imm: 0 }, &mut |_| T::Fact::bottom());
    let mut s = Solver {
        func,
        t,
        inputs,
        facts: vec![T::Fact::bottom(); nv],
        exec_block: vec![false; nb],
        visited: vec![false; nb],
        exec_edge: ExecEdges::new(nb),
        raises: vec![0; nv],
        zero,
        flow: Vec::new(),
        ssa: Vec::new(),
        steps: 0,
    };
    s.run();

    Solution {
        facts: s.facts,
        exec_block: s.exec_block,
        exec_edge: s.exec_edge,
        steps: s.steps,
    }
}

impl<T: Transfer> Solver<'_, T> {
    fn run(&mut self) {
        let cap = 10_000 + 200 * self.func.num_insts();
        let entry = self.func.entry();
        self.exec_block[entry.index()] = true;
        self.visited[entry.index()] = true;
        self.process_block(entry);

        while !self.flow.is_empty() || !self.ssa.is_empty() {
            if self.steps > cap {
                self.saturate();
                return;
            }
            while let Some((_, to)) = self.flow.pop() {
                self.steps += 1;
                if !self.visited[to.index()] {
                    self.visited[to.index()] = true;
                    self.process_block(to);
                } else {
                    // A new incoming edge only changes the φ joins.
                    let func = self.func;
                    for phi in func.block_phis(to) {
                        self.process_inst(to, phi);
                    }
                }
            }
            while let Some(i) = self.ssa.pop() {
                self.steps += 1;
                let b = self.inputs.inst_block[i.index()].expect("queued uses are placed");
                if self.exec_block[b.index()] {
                    self.process_inst(b, i);
                }
                if !self.flow.is_empty() {
                    break;
                }
            }
        }
    }

    /// Defensive fallback for a non-terminating chain (a domain whose
    /// `widen` is too weak): degrade to the sound answer — every fact
    /// ⊤, every edge executable — rather than loop or return an
    /// unsound partial state.
    fn saturate(&mut self) {
        debug_assert!(false, "sparse solver hit the saturation cap");
        for f in &mut self.facts {
            *f = T::Fact::top();
        }
        for b in self.func.blocks() {
            self.exec_block[b.index()] = true;
            for succ in self.func.successors(b) {
                self.exec_edge.insert(b, succ);
            }
        }
        self.flow.clear();
        self.ssa.clear();
    }

    fn process_block(&mut self, b: Block) {
        let func = self.func;
        for &i in func.block_insts(b) {
            self.steps += 1;
            self.process_inst(b, i);
        }
    }

    fn process_inst(&mut self, b: Block, i: Inst) {
        fcc_analysis::fuel::checkpoint(1);
        let func = self.func;
        let data = func.inst(i);
        match (&data.kind, data.dst) {
            (InstKind::Phi { args }, Some(dst)) => {
                let mut acc = T::Fact::bottom();
                for a in args {
                    if !self.exec_edge.contains(a.pred, b) {
                        continue;
                    }
                    // The argument as known at the end of its edge:
                    // region constraints valid in the predecessor plus
                    // the edge's own constraints.
                    let mut f = self.refined(a.value, a.pred);
                    let edge = self.inputs.edge_refs[a.pred.index()]
                        .iter()
                        .find(|(to, _)| *to == b);
                    if let Some((_, terms)) = edge {
                        for t in terms {
                            if t.value == a.value {
                                f = f.meet(&self.constraint_fact(t));
                            }
                        }
                    }
                    acc = acc.join(&f);
                }
                let widen_ok = self.inputs.is_header[b.index()];
                self.raise(dst, acc, widen_ok);
            }
            (kind, _) if kind.is_terminator() => self.eval_terminator(b, kind),
            (kind, Some(dst)) => {
                let new = {
                    let facts = &self.facts;
                    let region_refs = &self.inputs.region_refs;
                    let dt: &fcc_analysis::DomTree = &self.inputs.dt;
                    let t = self.t;
                    let zero = &self.zero;
                    let mut env = |v: Value| refined_in(facts, region_refs, dt, t, zero, v, b);
                    t.transfer(kind, &mut env)
                };
                self.raise(dst, new, false);
            }
            _ => {}
        }
    }

    fn eval_terminator(&mut self, b: Block, kind: &InstKind) {
        match *kind {
            InstKind::Jump { dst } => self.mark_edge(b, dst),
            InstKind::Branch {
                cond,
                then_dst,
                else_dst,
            } => {
                let f = self.refined(cond, b);
                match self.t.branch(&f) {
                    Feasible::Both => {
                        self.mark_edge(b, then_dst);
                        self.mark_edge(b, else_dst);
                    }
                    Feasible::ThenOnly => self.mark_edge(b, then_dst),
                    Feasible::ElseOnly => self.mark_edge(b, else_dst),
                    Feasible::Neither => {}
                }
            }
            _ => {}
        }
    }

    fn mark_edge(&mut self, from: Block, to: Block) {
        if self.exec_edge.insert(from, to) {
            self.exec_block[to.index()] = true;
            self.flow.push((from, to));
        }
    }

    /// `v`'s fact met with every region constraint whose root dominates
    /// `at`.
    fn refined(&self, v: Value, at: Block) -> T::Fact {
        refined_in(
            &self.facts,
            &self.inputs.region_refs,
            self.inputs.dt.as_ref(),
            self.t,
            &self.zero,
            v,
            at,
        )
    }

    fn constraint_fact(&self, term: &RefTerm) -> T::Fact {
        constraint_fact_in(&self.facts, self.t, &self.zero, term)
    }

    /// Raise `dst`'s fact to cover `new`, widening φ joins that keep
    /// rising. Enqueues the uses of `dst` and of every value whose
    /// branch constraint mentions `dst`.
    fn raise(&mut self, dst: Value, new: T::Fact, at_header: bool) {
        let old = &self.facts[dst.index()];
        if new.leq(old) {
            return;
        }
        let joined = old.join(&new);
        let count = self.raises[dst.index()];
        let widen = count >= WIDEN_ANYWHERE || (at_header && count >= WIDEN_AT_HEADER);
        let next = if widen { old.widen(&joined) } else { joined };
        if next == *old {
            return;
        }
        self.facts[dst.index()] = next;
        self.raises[dst.index()] = count.saturating_add(1);
        let inputs = self.inputs;
        self.ssa.extend_from_slice(&inputs.uses[dst.index()]);
        for v in &inputs.refine_deps[dst.index()] {
            self.ssa.extend_from_slice(&inputs.uses[v.index()]);
        }
    }
}

/// Free-function core of [`Solver::refined`], usable while `facts` is
/// immutably borrowed inside a transfer-function environment.
fn refined_in<T: Transfer>(
    facts: &[T::Fact],
    region_refs: &[Vec<(Block, RefTerm)>],
    dt: &fcc_analysis::DomTree,
    t: &T,
    zero: &T::Fact,
    v: Value,
    at: Block,
) -> T::Fact {
    let mut f = facts[v.index()].clone();
    for (root, term) in &region_refs[v.index()] {
        if dt.dominates(*root, at) {
            f = f.meet(&constraint_fact_in(facts, t, zero, term));
        }
    }
    f
}

fn constraint_fact_in<T: Transfer>(
    facts: &[T::Fact],
    t: &T,
    zero: &T::Fact,
    term: &RefTerm,
) -> T::Fact {
    let bottom = T::Fact::bottom();
    let other = match term.other {
        RefOther::Val(o) => {
            let of = &facts[o.index()];
            // Monotonicity guard: while the compared value is still ⊥
            // the constraint must be ⊥ too, so the met result can only
            // rise as the other side's fact rises.
            if *of == bottom {
                return bottom;
            }
            of.clone()
        }
        RefOther::Zero => zero.clone(),
    };
    t.constraint(term.op, term.lhs, term.taken, &other)
        .unwrap_or_else(T::Fact::top)
}
