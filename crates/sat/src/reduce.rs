//! Learnt-clause database reduction.
//!
//! The solver periodically deletes a slice of the learnt clauses to keep
//! propagation fast. Victims are ranked by LBD (worst first) with ties
//! broken on activity; glue clauses (LBD ≤ 2), clauses currently acting
//! as a propagation reason, and clauses protected since their LBD
//! improved in a recent conflict are never touched. Binary clauses are
//! exempt too: they are cheap to keep and expensive to relearn.

use crate::clause::ClauseRef;
use crate::solver::{Assign, Solver};

impl Solver {
    /// Is this clause the reason of a currently-assigned literal? Deleting
    /// it would strand conflict analysis, so reduction must skip it. Uses
    /// the invariant that a reason clause keeps its implied literal in
    /// slot 0.
    pub(crate) fn clause_is_reason(&self, cref: ClauseRef) -> bool {
        let c = &self.clauses[cref as usize];
        let v = c.lits[0].var();
        self.assigns[v.index()] != Assign::Unassigned && self.reason[v.index()] == Some(cref)
    }

    fn delete_clause(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref as usize];
        debug_assert!(c.learnt && !c.deleted);
        c.deleted = true;
        self.num_learnt -= 1;
        self.live_clauses -= 1;
    }

    /// Drops the worst half of the reducible learnt
    /// clauses, ranked by LBD (high first) then activity (low first).
    /// Glue, reason, and protected clauses always survive; protection
    /// lasts exactly one round. Safe at any decision level: stale
    /// watchers are dropped lazily and reason clauses are exempt.
    pub(crate) fn reduce_learnts(&mut self) {
        let mut victims: Vec<ClauseRef> = (0..self.clauses.len() as ClauseRef)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learnt
                    && !c.deleted
                    && c.lits.len() > 2
                    && !c.is_glue()
                    && !c.protected
                    && !self.clause_is_reason(i)
            })
            .collect();
        victims.sort_by(|&a, &b| {
            let ca = &self.clauses[a as usize];
            let cb = &self.clauses[b as usize];
            cb.lbd.cmp(&ca.lbd).then(
                ca.activity
                    .partial_cmp(&cb.activity)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_delete = victims.len() / 2;
        for &cref in &victims[..to_delete] {
            self.delete_clause(cref);
        }
        // Protection is a one-round reprieve.
        for c in &mut self.clauses {
            c.protected = false;
        }
        self.stats.reductions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lit, Var};

    /// Builds a solver with `n` free variables and returns them.
    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    /// Attaches a synthetic learnt clause with a given LBD.
    fn learnt(s: &mut Solver, lits: &[Lit], lbd: u32) -> ClauseRef {
        let cref = s.attach_clause(lits.to_vec(), true, lbd);
        s.clauses[cref as usize].activity = 1.0;
        cref
    }

    #[test]
    fn modern_reduction_never_drops_glue_protected_or_reason_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 12);
        let tern = |a: usize, b: usize, c: usize| [Lit::pos(v[a]), Lit::pos(v[b]), Lit::pos(v[c])];

        let glue = learnt(&mut s, &tern(0, 1, 2), 2);
        let shielded = learnt(&mut s, &tern(3, 4, 5), 9);
        s.clauses[shielded as usize].protected = true;
        // Plenty of plain high-LBD clauses so halving deletes some.
        let plain: Vec<ClauseRef> = (0..6)
            .map(|i| learnt(&mut s, &tern(6 + (i % 3), 9 + (i % 2), 11), 8 + i as u32))
            .collect();
        // Make one clause a reason: assign its slot-0 literal with it.
        let locked = plain[0];
        let implied = s.clauses[locked as usize].lits[0];
        s.enqueue(implied, Some(locked));

        let before = s.num_learnt;
        s.reduce_learnts();
        assert!(s.num_learnt < before, "reduction must delete something");
        for (cref, what) in [(glue, "glue"), (shielded, "protected"), (locked, "reason")] {
            assert!(
                !s.clauses[cref as usize].deleted,
                "{what} clause was deleted"
            );
        }
        // Protection is consumed by the round.
        assert!(!s.clauses[shielded as usize].protected);
        assert_eq!(s.stats().reductions, 1);
    }

    #[test]
    fn modern_reduction_prefers_high_lbd_victims() {
        let mut s = Solver::new();
        let v = vars(&mut s, 9);
        let good = learnt(&mut s, &[Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])], 3);
        let bad = learnt(
            &mut s,
            &[Lit::pos(v[3]), Lit::pos(v[4]), Lit::pos(v[5])],
            50,
        );
        let _mid = learnt(
            &mut s,
            &[Lit::pos(v[6]), Lit::pos(v[7]), Lit::pos(v[8])],
            10,
        );
        s.reduce_learnts();
        assert!(s.clauses[bad as usize].deleted, "worst LBD goes first");
        assert!(!s.clauses[good as usize].deleted, "best LBD survives");
    }

    #[test]
    fn live_clause_count_tracks_reduction() {
        let mut s = Solver::new();
        let v = vars(&mut s, 6);
        for i in 0..2 {
            learnt(
                &mut s,
                &[
                    Lit::pos(v[3 * i]),
                    Lit::pos(v[3 * i + 1]),
                    Lit::pos(v[3 * i + 2]),
                ],
                40,
            );
        }
        assert_eq!(s.num_clauses(), 2);
        s.reduce_learnts();
        assert_eq!(s.num_clauses(), 1);
    }
}
