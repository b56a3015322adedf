//! The CDCL solver.
//!
//! MiniSat-style search with glucose-style LBD clause management,
//! EMA-driven restarts with trail-depth blocking, and best-phase
//! rephasing. The split modules hold the moving parts: `clause` (storage),
//! `restart` (schedule), `reduce` (DB reduction), `heap` (VSIDS order).

use crate::clause::{Clause, ClauseRef, Watcher, GLUE_LBD};
use crate::heap::ActivityHeap;
use crate::restart::RestartState;
use crate::{Cnf, Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A model was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    Unsat,
}

/// Search statistics, useful in benchmarks and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of clause-database reductions performed.
    pub reductions: u64,
    /// Sum of learnt-clause LBDs over all conflicts; divide by
    /// `conflicts` for the mean LBD (see [`SolverStats::mean_lbd_milli`]).
    pub lbd_sum: u64,
    /// Learned clauses currently kept.
    pub learnt: usize,
}

impl SolverStats {
    /// Mean learnt-clause LBD in thousandths (integer, so reports stay
    /// deterministic); 0 before the first conflict.
    pub fn mean_lbd_milli(&self) -> u64 {
        (self.lbd_sum * 1000)
            .checked_div(self.conflicts)
            .unwrap_or(0)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Assign {
    True,
    False,
    Unassigned,
}

impl Assign {
    fn from_bool(b: bool) -> Assign {
        if b {
            Assign::True
        } else {
            Assign::False
        }
    }
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
/// First reduction after this many conflicts…
const REDUCE_BASE: u64 = 2000;
/// …and each later one after `REDUCE_STEP × reductions` more.
const REDUCE_STEP: u64 = 300;
/// Copy the best phase over saved phases this often.
const REPHASE_INTERVAL: u64 = 10_000;

/// A conflict-driven clause-learning SAT solver.
///
/// Supports incremental use: clauses may be added between `solve` calls and
/// [`Solver::solve_with`] solves under temporary assumptions. See the crate
/// docs for an example.
#[derive(Clone, Debug)]
pub struct Solver {
    pub(crate) clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    pub(crate) assigns: Vec<Assign>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: ActivityHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    pub(crate) reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    seen: Vec<bool>,
    /// False once an empty clause has been derived at level 0.
    ok: bool,
    /// Model snapshot taken before backtracking out of a SAT answer.
    saved_model: Vec<Assign>,
    pub(crate) stats: SolverStats,
    pub(crate) num_learnt: usize,
    restart: RestartState,
    /// Assumption unsat core from the last Unsat answer (empty when the
    /// formula alone is unsatisfiable).
    failed: Vec<Lit>,
    /// Phases of the deepest trail seen since the last rephase.
    best_phase: Vec<bool>,
    best_trail: usize,
    /// Conflict counts that trigger the next reduction / rephase.
    reduce_limit: u64,
    rephase_limit: u64,
    /// Live (non-deleted) clause count, kept O(1) for telemetry.
    pub(crate) live_clauses: usize,
    /// Stamp array indexed by decision level, for O(len) LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_gen: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: ActivityHeap::default(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            reason: Vec::new(),
            level: Vec::new(),
            seen: Vec::new(),
            ok: true,
            saved_model: Vec::new(),
            stats: SolverStats::default(),
            num_learnt: 0,
            restart: RestartState::new(),
            failed: Vec::new(),
            best_phase: Vec::new(),
            best_trail: 0,
            reduce_limit: REDUCE_BASE,
            rephase_limit: REPHASE_INTERVAL,
            live_clauses: 0,
            lbd_stamp: vec![0],
            lbd_gen: 0,
        }
    }

    /// Builds a solver pre-loaded with a formula.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Solver::new();
        while s.num_vars() < cnf.num_vars() {
            s.new_var();
        }
        for c in cnf.clauses() {
            s.add_clause(c);
        }
        s
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(Assign::Unassigned);
        self.polarity.push(false);
        self.best_phase.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        // Decision levels never exceed the variable count.
        self.lbd_stamp.push(0);
        self.order.grow_to(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.assigns.len() as u32
    }

    /// Number of live (non-deleted) clauses, learnt ones included. Attack
    /// telemetry reads this to report CNF growth per iteration.
    pub fn num_clauses(&self) -> usize {
        self.live_clauses
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            learnt: self.num_learnt,
            ..self.stats
        }
    }

    /// After an [`SatResult::Unsat`] answer from [`Solver::solve_with`]:
    /// the subset of the assumptions proven jointly inconsistent with the
    /// formula. Empty when the formula alone is unsatisfiable (and after
    /// any Sat answer), so emptiness distinguishes formula-UNSAT from
    /// assumption-UNSAT.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    fn lit_value(&self, l: Lit) -> Assign {
        Self::lit_value_in(&self.assigns, l)
    }

    fn lit_value_in(assigns: &[Assign], l: Lit) -> Assign {
        match assigns[l.var().index()] {
            Assign::Unassigned => Assign::Unassigned,
            Assign::True => {
                if l.is_neg() {
                    Assign::False
                } else {
                    Assign::True
                }
            }
            Assign::False => {
                if l.is_neg() {
                    Assign::True
                } else {
                    Assign::False
                }
            }
        }
    }

    /// Adds a clause. Returns `false` if the solver is now known
    /// unsatisfiable at level 0 (it stays usable and will keep reporting
    /// [`SatResult::Unsat`]).
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable or if called
    /// mid-search (clauses may only be added between `solve` calls).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(
            self.trail_lim.is_empty(),
            "clauses may only be added at decision level 0"
        );
        if !self.ok {
            return false;
        }
        for l in lits {
            assert!(l.var().0 < self.num_vars(), "literal {l} out of range");
        }
        // Normalize: drop duplicate and false literals, detect tautologies
        // and satisfied clauses.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut sorted = lits.to_vec();
        sorted.sort();
        sorted.dedup();
        for (i, &l) in sorted.iter().enumerate() {
            if i > 0 && sorted[i - 1] == !l {
                return true; // tautology: p and !p adjacent after sort
            }
            match self.lit_value(l) {
                Assign::True => return true, // already satisfied at level 0
                Assign::False => {}          // drop the false literal
                Assign::Unassigned => c.push(l),
            }
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(c, false, 0);
                true
            }
        }
    }

    pub(crate) fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as ClauseRef;
        self.watches[(!lits[0]).code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.num_learnt += 1;
        }
        self.live_clauses += 1;
        self.clauses.push(Clause::new(lits, learnt, lbd));
        cref
    }

    pub(crate) fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), Assign::Unassigned);
        let v = l.var();
        self.assigns[v.index()] = Assign::from_bool(!l.is_neg());
        self.polarity[v.index()] = !l.is_neg();
        self.reason[v.index()] = reason;
        self.level[v.index()] = self.decision_level();
        self.trail.push(l);
    }

    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut i = 0;
            // take the watcher list to appease the borrow checker; put it
            // back (with moved-out entries removed) afterwards.
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut j = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == Assign::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let (first, moved_to) = {
                    let assigns = &self.assigns;
                    let cl = &mut self.clauses[w.cref as usize];
                    if cl.deleted {
                        continue; // lazily drop watchers of deleted clauses
                    }
                    // Ensure the false literal (!p) is in slot 1.
                    if cl.lits[0] == !p {
                        cl.lits.swap(0, 1);
                    }
                    debug_assert_eq!(cl.lits[1], !p);
                    let first = cl.lits[0];
                    if first != w.blocker && Self::lit_value_in(assigns, first) == Assign::True {
                        ws[j] = Watcher {
                            cref: w.cref,
                            blocker: first,
                        };
                        j += 1;
                        continue;
                    }
                    // Look for a new literal to watch.
                    let mut moved_to = None;
                    for k in 2..cl.lits.len() {
                        if Self::lit_value_in(assigns, cl.lits[k]) != Assign::False {
                            cl.lits.swap(1, k);
                            moved_to = Some(cl.lits[1]);
                            break;
                        }
                    }
                    (first, moved_to)
                };
                if let Some(new_watch) = moved_to {
                    self.watches[(!new_watch).code()].push(Watcher {
                        cref: w.cref,
                        blocker: first,
                    });
                    continue 'watchers;
                }
                // Clause is unit or conflicting.
                ws[j] = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                j += 1;
                if self.lit_value(first) == Assign::False {
                    // Conflict: keep remaining watchers and bail out.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(w.cref);
                } else {
                    self.enqueue(first, Some(w.cref));
                }
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order
            .decrease_key_of_increased_activity(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc as f32;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Literal-block distance of a set of assigned literals: the number
    /// of distinct non-zero decision levels among them. O(len) via a
    /// per-level stamp array.
    pub(crate) fn lbd_of(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_gen += 1;
        let gen = self.lbd_gen;
        let mut distinct = 0u32;
        for &l in lits {
            let lvl = self.level[l.var().index()] as usize;
            if lvl == 0 {
                continue;
            }
            if self.lbd_stamp[lvl] != gen {
                self.lbd_stamp[lvl] = gen;
                distinct += 1;
            }
        }
        distinct
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first, max-level literal second), the backtrack level, and
    /// the learnt clause's LBD.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            let lits = self.clauses[confl as usize].lits.clone();
            if self.clauses[confl as usize].learnt {
                self.bump_clause(confl);
                // Dynamic LBD: a clause re-used in conflict analysis whose
                // LBD improved is doing well — refresh the score and shield
                // it from the next reduction.
                let fresh = self.lbd_of(&lits);
                let c = &mut self.clauses[confl as usize];
                if c.lbd != 0 && fresh < c.lbd {
                    c.lbd = fresh.max(1);
                    if c.lbd > GLUE_LBD {
                        c.protected = true;
                    }
                }
            }
            let start = if p.is_some() { 1 } else { 0 };
            for &q in &lits[start..] {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            p = Some(pl);
            confl = self.reason[pl.var().index()]
                .expect("non-decision literal on conflict side must have a reason");
            // Invariant: a reason clause always has its implied literal in
            // slot 0 (propagate enqueues lits[0], and the watch code never
            // moves the slot-0 literal of a clause that is acting as a
            // reason), so `start = 1` below skips it.
            debug_assert_eq!(self.clauses[confl as usize].lits[0], pl);
        }
        // Clear seen flags for the learnt clause.
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }
        let lbd = self.lbd_of(&learnt);
        // Backtrack level: the highest level among learnt[1..].
        let bt = if learnt.len() == 1 {
            0
        } else {
            // Move the max-level literal to slot 1 (second watch).
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt, lbd)
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): the assumption
    /// `p` came up false during assumption extension; walk the
    /// implication trail backwards to collect the subset of assumption
    /// decisions that forced it. Returns the core, `p` included.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.level[p.var().index()] == 0 || self.trail_lim.is_empty() {
            // `!p` holds at level 0: the formula alone refutes `p`.
            return core;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let v = self.trail[i].var();
            if !self.seen[v.index()] {
                continue;
            }
            self.seen[v.index()] = false;
            match self.reason[v.index()] {
                // During assumption extension every decision on the trail
                // is itself an assumption: it belongs in the core.
                None => core.push(self.trail[i]),
                Some(cref) => {
                    let lits = self.clauses[cref as usize].lits.clone();
                    // lits[0] is the implied literal (`trail[i]` itself).
                    for &q in &lits[1..] {
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
        }
        core
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        for i in (target..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assigns[v.index()] = Assign::Unassigned;
            self.reason[v.index()] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v.index()] == Assign::Unassigned {
                return Some(v);
            }
        }
        None
    }

    /// Records the phases of the deepest trail seen since the last
    /// rephase; periodic rephasing restores them wholesale.
    fn snapshot_best_phase(&mut self) {
        if self.trail.len() > self.best_trail {
            self.best_trail = self.trail.len();
            for &l in &self.trail {
                self.best_phase[l.var().index()] = !l.is_neg();
            }
        }
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under temporary assumptions: the formula plus the unit
    /// assumptions. The assumptions do not persist after the call. On an
    /// Unsat answer, [`Solver::failed_assumptions`] holds the assumption
    /// core.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        self.failed.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        let result = self.search(assumptions);
        if result == SatResult::Sat {
            self.saved_model = self.assigns.clone();
        } else {
            self.saved_model.clear();
        }
        self.cancel_until(0);
        result
    }

    fn search(&mut self, assumptions: &[Lit]) -> SatResult {
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                self.snapshot_best_phase();
                let (learnt, bt, lbd) = self.analyze(confl);
                self.stats.lbd_sum += u64::from(lbd);
                self.restart.on_conflict(lbd, self.trail.len());
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    if self.lit_value(learnt[0]) == Assign::False {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    if self.lit_value(learnt[0]) == Assign::Unassigned {
                        self.enqueue(learnt[0], None);
                    }
                } else {
                    let cref = self.attach_clause(learnt, true, lbd.max(1));
                    let first = self.clauses[cref as usize].lits[0];
                    self.bump_clause(cref);
                    self.enqueue(first, Some(cref));
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                if self.stats.conflicts >= self.reduce_limit {
                    self.reduce_learnts();
                    self.reduce_limit =
                        self.stats.conflicts + REDUCE_BASE + REDUCE_STEP * self.stats.reductions;
                }
            } else {
                if self.restart.should_restart() {
                    self.stats.restarts += 1;
                    self.restart.on_restart();
                    self.cancel_until(0);
                    if self.stats.conflicts >= self.rephase_limit {
                        self.polarity.copy_from_slice(&self.best_phase);
                        self.best_trail = 0;
                        self.rephase_limit = self.stats.conflicts + REPHASE_INTERVAL;
                    }
                    continue;
                }
                // Extend with assumptions first.
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        Assign::True => {
                            // Already satisfied: open an empty level so the
                            // index keeps advancing.
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        Assign::False => {
                            self.failed = self.analyze_final(p);
                            return SatResult::Unsat;
                        }
                        Assign::Unassigned => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, None);
                            continue;
                        }
                    }
                }
                // Branch.
                match self.pick_branch_var() {
                    None => return SatResult::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.polarity[v.index()];
                        self.enqueue(Lit::with_sign(v, !phase), None);
                    }
                }
            }
        }
    }

    /// The model value of a variable after a [`SatResult::Sat`] answer;
    /// `None` when unassigned (a don't-care in the found model) or after an
    /// Unsat answer.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.saved_model.get(v.index()) {
            Some(Assign::True) => Some(true),
            Some(Assign::False) => Some(false),
            _ => None,
        }
    }

    /// Snapshot of the full model (unassigned variables default to false).
    pub fn model(&self) -> Vec<bool> {
        (0..self.num_vars())
            .map(|i| self.value(Var(i)) == Some(true))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: Var, pos: bool) -> Lit {
        Lit::with_sign(v, !pos)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a)]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert!(!s.add_clause(&[Lit::neg(a)]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
        // v0, v0->v1, v1->v2, v2->v3, v3->v4
        s.add_clause(&[Lit::pos(vs[0])]);
        for w in vs.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        for &v in &vs {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn solve_with_assumptions_is_temporary() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve_with(&[Lit::neg(a), Lit::neg(b)]), SatResult::Unsat);
        // The core names the assumptions, proving the formula itself is
        // still satisfiable.
        assert!(!s.failed_assumptions().is_empty());
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.failed_assumptions().is_empty());
        assert_eq!(s.solve_with(&[Lit::neg(a)]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var();
        let _ = s.new_var();
        assert_eq!(s.solve_with(&[Lit::pos(a), Lit::neg(a)]), SatResult::Unsat);
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&Lit::pos(a)) && core.contains(&Lit::neg(a)));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn failed_assumptions_distinguish_root_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        // Formula: a, !a — unsatisfiable on its own.
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::neg(a)]);
        assert_eq!(s.solve_with(&[Lit::pos(b)]), SatResult::Unsat);
        assert!(
            s.failed_assumptions().is_empty(),
            "root UNSAT must yield an empty core"
        );
    }

    #[test]
    fn failed_assumptions_core_is_minimal_enough_to_refute() {
        // Chain a -> b -> c plus clause (!c | !d): assuming a and d fails,
        // assuming the unrelated e must stay out of the core.
        let mut s = Solver::new();
        let v: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
        let (a, b, c, d, e) = (v[0], v[1], v[2], v[3], v[4]);
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(b), Lit::pos(c)]);
        s.add_clause(&[Lit::neg(c), Lit::neg(d)]);
        let assumptions = [Lit::pos(e), Lit::pos(a), Lit::pos(d)];
        assert_eq!(s.solve_with(&assumptions), SatResult::Unsat);
        let core = s.failed_assumptions().to_vec();
        assert!(!core.is_empty());
        for l in &core {
            assert!(assumptions.contains(l), "{l} not an assumption");
        }
        assert!(
            !core.contains(&Lit::pos(e)),
            "irrelevant assumption in core {core:?}"
        );
        // The core alone refutes the formula.
        let core_units = core.clone();
        assert_eq!(s.solve_with(&core_units), SatResult::Unsat);
        // And solving without assumptions still works.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn xor_chain_parity() {
        // x1 ^ x2 ^ x3 = 1 encoded directly; satisfiable.
        let mut s = Solver::new();
        let x: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        let clauses: [(bool, bool, bool); 4] = [
            (true, true, true),
            (true, false, false),
            (false, true, false),
            (false, false, true),
        ];
        for (a, b, c) in clauses {
            s.add_clause(&[lit(x[0], a), lit(x[1], b), lit(x[2], c)]);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        let parity = s.value(x[0]).unwrap() as u8
            ^ s.value(x[1]).unwrap() as u8
            ^ s.value(x[2]).unwrap() as u8;
        assert_eq!(parity, 1);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a), Lit::neg(a)])); // tautology
        assert!(s.add_clause(&[Lit::pos(b), Lit::pos(b), Lit::pos(b)]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn from_cnf_matches_brute_force_on_random_formulas() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for round in 0..200 {
            let n_vars = rng.gen_range(3..10u32);
            let n_clauses = rng.gen_range(2..40usize);
            let mut f = Cnf::new();
            for _ in 0..n_vars {
                f.new_var();
            }
            for _ in 0..n_clauses {
                let width = rng.gen_range(1..4usize);
                let lits: Vec<Lit> = (0..width)
                    .map(|_| Lit::with_sign(Var(rng.gen_range(0..n_vars)), rng.gen()))
                    .collect();
                f.add_clause(&lits);
            }
            let expect_sat = f.brute_force().is_some();
            let mut s = Solver::from_cnf(&f);
            let got = s.solve();
            assert_eq!(
                got == SatResult::Sat,
                expect_sat,
                "diverges from brute force in round {round}"
            );
            if got == SatResult::Sat {
                let model = s.model();
                assert!(
                    f.eval(&model),
                    "model must satisfy the formula (round {round})"
                );
            }
        }
    }

    #[test]
    fn lbd_counts_distinct_decision_levels() {
        let mut s = Solver::new();
        let v: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
        // Fake an assignment landscape: levels 0, 1, 1, 2, 3.
        for (i, lvl) in [0u32, 1, 1, 2, 3].iter().enumerate() {
            s.level[i] = *lvl;
        }
        let all: Vec<Lit> = v.iter().map(|&x| Lit::pos(x)).collect();
        // Level 0 does not count; levels {1, 2, 3} are distinct.
        assert_eq!(s.lbd_of(&all), 3);
        assert_eq!(s.lbd_of(&all[..3]), 1, "two lits on one level");
        assert_eq!(s.lbd_of(&[all[0]]), 0, "level-0 only");
        // Stamps do not leak between calls.
        assert_eq!(s.lbd_of(&all), 3);
    }

    #[test]
    fn phase_saving_repeats_the_last_model() {
        // After a Sat answer the saved polarities equal the model, so a
        // re-solve re-decides the same phases (across restarts too).
        let mut s = Solver::new();
        let v: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
        for w in v.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        s.add_clause(&[Lit::pos(v[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        for &x in &v {
            assert_eq!(
                s.polarity[x.index()],
                s.value(x).unwrap(),
                "phase not saved for {x:?}"
            );
        }
        let first = s.model();
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(first, s.model(), "phases drifted");
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.solve();
        let st = s.stats();
        assert!(st.decisions >= 1);
    }

    #[test]
    fn mean_lbd_is_reported_in_milli_units() {
        let stats = SolverStats {
            conflicts: 4,
            lbd_sum: 10,
            ..SolverStats::default()
        };
        assert_eq!(stats.mean_lbd_milli(), 2500);
        assert_eq!(SolverStats::default().mean_lbd_milli(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Draws a random small CNF: `(n_vars, clauses)` with 2–7 variables and
    /// up to 23 clauses of 1–3 literals each.
    fn random_cnf(rng: &mut StdRng) -> (u32, Vec<Vec<(u32, bool)>>) {
        let n_vars = rng.gen_range(2u32..8);
        let n_clauses = rng.gen_range(1usize..24);
        let clauses = (0..n_clauses)
            .map(|_| {
                let len = rng.gen_range(1usize..4);
                (0..len)
                    .map(|_| (rng.gen_range(0..n_vars), rng.gen::<bool>()))
                    .collect()
            })
            .collect();
        (n_vars, clauses)
    }

    fn build_cnf(n_vars: u32, clauses: &[Vec<(u32, bool)>]) -> Cnf {
        let mut f = Cnf::new();
        for _ in 0..n_vars {
            f.new_var();
        }
        for c in clauses {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&(v, neg)| Lit::with_sign(Var(v), neg))
                .collect();
            f.add_clause(&lits);
        }
        f
    }

    /// Solving under assumptions agrees with brute force over the
    /// formula plus the assumption units, and the
    /// failed-assumption core is itself refuting.
    #[test]
    fn assumptions_agree_with_brute_force() {
        let mut rng = StdRng::seed_from_u64(0x5a7_a55);
        for case in 0..96 {
            let (n_vars, clauses) = random_cnf(&mut rng);
            let assume_bits: u8 = rng.gen::<u8>();
            let assume_mask: u8 = rng.gen::<u8>();
            let f = build_cnf(n_vars, &clauses);
            let assumptions: Vec<Lit> = (0..n_vars.min(8))
                .filter(|&i| assume_mask >> i & 1 == 1)
                .map(|i| Lit::with_sign(Var(i), assume_bits >> i & 1 == 0))
                .collect();
            // Brute force with assumption units appended.
            let mut g = f.clone();
            for &l in &assumptions {
                g.add_clause(&[l]);
            }
            let expect_sat = g.brute_force().is_some();
            let mut s = Solver::from_cnf(&f);
            let got = s.solve_with(&assumptions);
            assert_eq!(got == SatResult::Sat, expect_sat, "case {case}");
            if got == SatResult::Sat {
                let model = s.model();
                assert!(
                    g.eval(&model),
                    "case {case}: model must satisfy formula + assumptions"
                );
            } else {
                // The core is a subset of the assumptions and refutes
                // the formula on its own; an empty core means the
                // formula alone is unsatisfiable.
                let core = s.failed_assumptions().to_vec();
                for l in &core {
                    assert!(assumptions.contains(l), "case {case}: {l}");
                }
                if core.is_empty() {
                    assert!(f.brute_force().is_none(), "case {case}");
                } else {
                    assert_eq!(
                        s.solve_with(&core),
                        SatResult::Unsat,
                        "case {case}: core does not refute"
                    );
                }
            }
            // Assumptions must not persist: plain solve matches plain
            // brute force.
            let plain_sat = f.brute_force().is_some();
            assert_eq!(s.solve() == SatResult::Sat, plain_sat, "case {case}");
        }
    }

    /// DIMACS round trip preserves models exactly.
    #[test]
    fn dimacs_round_trip_preserves_models() {
        let mut rng = StdRng::seed_from_u64(0xd1_ac5);
        for case in 0..96 {
            let (n_vars, clauses) = random_cnf(&mut rng);
            let f = build_cnf(n_vars, &clauses);
            let text = crate::dimacs::emit(&f);
            let g = crate::dimacs::parse(&text).unwrap();
            assert_eq!(f.num_clauses(), g.num_clauses(), "case {case}");
            for bits in 0u32..(1 << n_vars) {
                let m: Vec<bool> = (0..n_vars).map(|i| bits >> i & 1 == 1).collect();
                assert_eq!(f.eval(&m), g.eval(&m), "case {case} bits {bits:b}");
            }
        }
    }

    /// Clause-database reduction must not change answers: a formula hard
    /// enough to trigger reductions still solves correctly.
    #[test]
    fn clause_reduction_preserves_soundness() {
        // Pigeonhole 7 generates thousands of conflicts, well past the
        // first reduction threshold.
        let mut s = Solver::new();
        let holes = 7u32;
        let pigeons = 8u32;
        let var = |p: u32, h: u32| Var(p * holes + h);
        for _ in 0..pigeons * holes {
            s.new_var();
        }
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause(&[Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(
            s.stats().reductions >= 1,
            "reduction path not exercised ({} conflicts)",
            s.stats().conflicts
        );
    }
}
