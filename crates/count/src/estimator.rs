//! The ApproxMC-style hash-count loop over one incremental solver.
//!
//! To estimate the number of projected solutions of a formula, each round
//! draws a full stack of random XOR parity rows ([`crate::xor`]), encodes
//! them once with fresh selector variables, and searches for the smallest
//! activated prefix `m` whose residual cell holds at most `pivot`
//! solutions. Activation is pure assumption literals — rows `1..=m` on,
//! the round's other rows assumed off — so **one** solver instance
//! carries every search step and every round. The round estimate is
//! `cells × 2^m`; the median of `t` rounds is within a factor `1+ε` of
//! the true count with probability at least `1−δ` (Chakraborty, Meel,
//! Vardi).
//!
//! The search ([`crossover`]) is ApproxMC2's LogSATSearch: the first
//! round bisects `[1, n]`, later rounds gallop outward from the previous
//! round's crossover, where the next one almost always lies. Rows share a
//! prefix, so `cells(m)` is monotone in `m` and the crossover is unique —
//! where the search starts changes the solver calls spent, never the
//! estimate.
//!
//! A finished round is retired with unit clauses `¬s` on its selectors,
//! which satisfy every clause of its rows for good. Cells are enumerated
//! by projected blocking clauses under a per-probe guard variable,
//! retired the same way, so blocked cells never leak between probes.
//!
//! When the whole projected space already fits under the pivot the count
//! is **exact** and reported as such — the `m = 0` shortcut that also
//! serves the boundary cases (0 solutions, single solution).

use crate::xor::{draw_rows, encode_row_into};
use glitchlock_obs::{self as obs, names};
use glitchlock_sat::{Lit, SatResult, Solver, Var};
use rand::rngs::StdRng;

/// The `(ε, δ)` knobs of one approximate count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CountParams {
    /// Multiplicative tolerance: the estimate lands in
    /// `[C/(1+ε), C·(1+ε)]`.
    pub epsilon: f64,
    /// Failure probability: the envelope holds with probability `≥ 1−δ`.
    pub delta: f64,
}

impl CountParams {
    /// Validates and builds the parameter pair.
    ///
    /// # Errors
    ///
    /// `epsilon` must be positive and `delta` in `(0, 1)`.
    pub fn new(epsilon: f64, delta: f64) -> Result<CountParams, String> {
        if epsilon.is_nan() || epsilon <= 0.0 {
            return Err(format!("epsilon must be positive, got {epsilon}"));
        }
        if delta.is_nan() || delta <= 0.0 || delta >= 1.0 {
            return Err(format!("delta must be in (0, 1), got {delta}"));
        }
        Ok(CountParams { epsilon, delta })
    }

    /// Per-round cell-size threshold `⌈4.94 · (1 + 1/ε)²⌉`.
    pub fn pivot(&self) -> u64 {
        (4.94 * (1.0 + 1.0 / self.epsilon).powi(2)).ceil() as u64
    }

    /// Round count for median amplification: each round lands inside the
    /// ε-envelope with probability ≥ 0.78 at this pivot, so a Chernoff
    /// bound on the median gives `t = ⌈ln(1/δ) / (2 · 0.28²)⌉`, bumped to
    /// odd so the median is a single round's value.
    pub fn iterations(&self) -> usize {
        let t = ((1.0 / self.delta).ln() / (2.0 * 0.28 * 0.28)).ceil() as usize;
        let t = t.max(1);
        t + t.is_multiple_of(2) as usize
    }
}

impl Default for CountParams {
    fn default() -> Self {
        CountParams {
            epsilon: 0.8,
            delta: 0.2,
        }
    }
}

/// One approximate (or exact, when small enough) projected count.
#[derive(Clone, Debug, PartialEq)]
pub struct ApproxCount {
    /// The count estimate (equal to `exact` when that is set).
    pub estimate: f64,
    /// Exact value when enumeration finished below the pivot.
    pub exact: Option<u64>,
    /// Solver invocations spent.
    pub solver_calls: u64,
    /// XOR parity rows drawn and encoded.
    pub xor_rows: u64,
}

/// Enumerates projected solutions under `assumptions`, stopping once the
/// count exceeds `limit` (returns `limit + 1` to mean "more"). Blocking
/// clauses ride a fresh guard variable retired on exit.
fn enumerate_cells(
    solver: &mut Solver,
    assumptions: &[Lit],
    projection: &[Var],
    limit: u64,
    solver_calls: &mut u64,
) -> u64 {
    let guard = solver.new_var();
    let mut assum = assumptions.to_vec();
    assum.push(Lit::pos(guard));
    let mut count = 0u64;
    loop {
        *solver_calls += 1;
        match solver.solve_with(&assum) {
            SatResult::Unsat => break,
            SatResult::Sat => {
                count += 1;
                if count > limit {
                    break;
                }
                // Block this projected cell: a solver may leave a variable
                // unassigned when no clause touches it; read it as 0, and
                // the blocking clause then constrains it for later cells.
                let mut clause = vec![Lit::neg(guard)];
                clause.extend(
                    projection
                        .iter()
                        .map(|&v| Lit::with_sign(v, solver.value(v).unwrap_or(false))),
                );
                solver.add_clause(&clause);
            }
        }
    }
    solver.add_clause(&[Lit::neg(guard)]);
    count
}

/// The smallest `m ∈ [1, n]` with `cells(m) ≤ pivot`, with its cell
/// count; `None` when even `m = n` leaves more than `pivot`.
///
/// `cells` must be monotone non-increasing in `m`, and `cells(0)` is
/// taken to exceed `pivot`; the crossover is then unique and any search
/// that brackets it finds the same one. Without `start` this bisects
/// `[1, n]`. With `start` it first gallops from there — steps of 1, 2,
/// 4, … in the direction `cells(start)` points — until the crossover is
/// bracketed, then bisects the bracket. No `m` is probed twice.
fn crossover(
    n: usize,
    pivot: u64,
    start: Option<usize>,
    mut cells: impl FnMut(usize) -> u64,
) -> Option<(usize, u64)> {
    let mut memo: Vec<Option<u64>> = vec![None; n + 1];
    let mut above = |m: usize| *memo[m].get_or_insert_with(|| cells(m)) > pivot;
    // Invariant: cells(lo) > pivot, and hi = n + 1 or cells(hi) <= pivot.
    let (mut lo, mut hi) = (0, n + 1);
    if let Some(start) = start {
        let mut m = start.clamp(1, n);
        let mut step = 1;
        loop {
            if above(m) {
                lo = m;
                if m + step >= hi {
                    break;
                }
                m += step;
            } else {
                hi = m;
                if m <= lo + step {
                    break;
                }
                m -= step;
            }
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if above(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (hi <= n).then(|| (hi, memo[hi].expect("the crossover was probed")))
}

/// Estimates the number of assignments to `projection` extendable to a
/// model of the solver's formula under `base` assumptions.
///
/// All randomness comes from `rng`; identical seeds give identical
/// estimates regardless of the solver's search state or variable
/// numbering, because rows are drawn over projection positions and cell
/// counts are exact enumerations.
pub fn approx_count(
    solver: &mut Solver,
    base: &[Lit],
    projection: &[Var],
    params: &CountParams,
    rng: &mut StdRng,
) -> ApproxCount {
    let pivot = params.pivot();
    let mut solver_calls = 0u64;
    let mut xor_rows = 0u64;

    // m = 0 shortcut: if the whole projected space fits under the pivot
    // the enumeration *is* the count.
    let whole = enumerate_cells(solver, base, projection, pivot, &mut solver_calls);
    if whole <= pivot {
        obs::add(names::COUNT_SOLVER_CALLS, solver_calls);
        return ApproxCount {
            estimate: whole as f64,
            exact: Some(whole),
            solver_calls,
            xor_rows,
        };
    }

    let n = projection.len();
    let t = params.iterations();
    let mut estimates: Vec<f64> = Vec::with_capacity(t);
    let mut resume: Option<usize> = None;
    for _ in 0..t {
        // One full row stack per round; prefixes share rows so the cell
        // count is monotone non-increasing in m.
        let rows = draw_rows(n, n, rng);
        let sels: Vec<Var> = rows
            .iter()
            .map(|row| {
                let s = solver.new_var();
                encode_row_into(solver, projection, row, Some(s));
                s
            })
            .collect();
        xor_rows += n as u64;

        let found = crossover(n, pivot, resume, |m| {
            let mut assum = base.to_vec();
            assum.extend(
                sels.iter()
                    .enumerate()
                    .map(|(i, &s)| Lit::with_sign(s, i >= m)),
            );
            enumerate_cells(solver, &assum, projection, pivot, &mut solver_calls)
        });
        for &s in &sels {
            solver.add_clause(&[Lit::neg(s)]);
        }
        resume = found.map(|(m, _)| m).or(resume);
        match found {
            // An empty cell at the crossover is a failed round (ApproxMC
            // reports no estimate); skip it rather than log a zero.
            Some((_, 0)) | None => {}
            Some((m, cells)) => estimates.push(cells as f64 * (2f64).powi(m as i32)),
        }
    }

    obs::add(names::COUNT_SOLVER_CALLS, solver_calls);
    obs::add(names::COUNT_XOR_ROWS, xor_rows);

    // Median of the successful rounds; if every round failed (vanishingly
    // unlikely), fall back to the only bound we hold: more than pivot.
    let estimate = if estimates.is_empty() {
        (pivot + 1) as f64
    } else {
        estimates.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
        estimates[estimates.len() / 2]
    };
    ApproxCount {
        estimate,
        exact: None,
        solver_calls,
        xor_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn free_vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        // Touch each variable with a tautological pair so the solver
        // assigns them (a var in no clause may stay unassigned).
        (0..n)
            .map(|_| {
                let v = solver.new_var();
                solver.add_clause(&[Lit::pos(v), Lit::neg(v)]);
                v
            })
            .collect()
    }

    #[test]
    fn small_spaces_come_back_exact() {
        let mut solver = Solver::new();
        let vars = free_vars(&mut solver, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let got = approx_count(&mut solver, &[], &vars, &CountParams::default(), &mut rng);
        assert_eq!(got.exact, Some(16));
        assert_eq!(got.estimate, 16.0);
        assert_eq!(got.xor_rows, 0, "the m = 0 shortcut draws no rows");
    }

    #[test]
    fn unsatisfiable_formulas_count_zero() {
        let mut solver = Solver::new();
        let vars = free_vars(&mut solver, 3);
        solver.add_clause(&[Lit::pos(vars[0])]);
        solver.add_clause(&[Lit::neg(vars[0])]);
        let mut rng = StdRng::seed_from_u64(1);
        let got = approx_count(&mut solver, &[], &vars, &CountParams::default(), &mut rng);
        assert_eq!(got.exact, Some(0));
    }

    #[test]
    fn single_solution_counts_one() {
        let mut solver = Solver::new();
        let vars = free_vars(&mut solver, 5);
        for &v in &vars {
            solver.add_clause(&[Lit::pos(v)]);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let got = approx_count(&mut solver, &[], &vars, &CountParams::default(), &mut rng);
        assert_eq!(got.exact, Some(1));
    }

    #[test]
    fn projection_hides_auxiliary_variables() {
        // y = x0 AND x1 with clause [y]: projected over {x0, x1} exactly
        // one cell survives.
        let mut solver = Solver::new();
        let vars = free_vars(&mut solver, 2);
        let y = solver.new_var();
        solver.add_clause(&[Lit::neg(y), Lit::pos(vars[0])]);
        solver.add_clause(&[Lit::neg(y), Lit::pos(vars[1])]);
        solver.add_clause(&[Lit::pos(y), Lit::neg(vars[0]), Lit::neg(vars[1])]);
        solver.add_clause(&[Lit::pos(y)]);
        let mut rng = StdRng::seed_from_u64(1);
        let got = approx_count(&mut solver, &[], &vars, &CountParams::default(), &mut rng);
        assert_eq!(got.exact, Some(1));
    }

    #[test]
    fn base_assumptions_scope_the_count() {
        let mut solver = Solver::new();
        let vars = free_vars(&mut solver, 4);
        let gate = solver.new_var();
        // Under the gate, x0 must be 1: half the space.
        solver.add_clause(&[Lit::neg(gate), Lit::pos(vars[0])]);
        let mut rng = StdRng::seed_from_u64(1);
        let gated = approx_count(
            &mut solver,
            &[Lit::pos(gate)],
            &vars,
            &CountParams::default(),
            &mut rng,
        );
        assert_eq!(gated.exact, Some(8));
        // Without the assumption the constraint is inert.
        let free = approx_count(&mut solver, &[], &vars, &CountParams::default(), &mut rng);
        assert_eq!(free.exact, Some(16));
    }

    /// The hash path (space larger than the pivot) against the known
    /// count, over pinned seeds with the (ε, δ) envelope.
    #[test]
    fn hash_path_lands_in_the_envelope() {
        let params = CountParams::default();
        let pivot = params.pivot();
        let true_count = 512f64; // 10 free vars, one pinned
        assert!(true_count > pivot as f64, "must exercise the hash path");
        let lo = true_count / (1.0 + params.epsilon);
        let hi = true_count * (1.0 + params.epsilon);
        let seeds: Vec<u64> = (0..20).collect();
        let budget = (params.delta * seeds.len() as f64).ceil() as usize + 2;
        let mut misses = 0;
        for &seed in &seeds {
            let mut solver = Solver::new();
            let vars = free_vars(&mut solver, 10);
            solver.add_clause(&[Lit::pos(vars[0])]);
            let mut rng = StdRng::seed_from_u64(seed);
            let got = approx_count(&mut solver, &[], &vars, &params, &mut rng);
            assert!(got.exact.is_none(), "hash path must not be exact");
            assert!(got.xor_rows > 0);
            if got.estimate < lo || got.estimate > hi {
                misses += 1;
            }
        }
        assert!(
            misses <= budget,
            "{misses} envelope misses over {} seeds (budget {budget})",
            seeds.len()
        );
    }

    /// The estimator as it stood before the crossover search: every round
    /// bisects `[1, n]` from scratch, probes switch on a row prefix and
    /// leave the rest of the round's rows unassumed, and finished rounds
    /// are never retired. Kept as an independent referee for
    /// [`crossover`] and the row switching.
    fn reference_count(
        solver: &mut Solver,
        projection: &[Var],
        params: &CountParams,
        rng: &mut StdRng,
    ) -> ApproxCount {
        let pivot = params.pivot();
        let mut solver_calls = 0u64;
        let whole = enumerate_cells(solver, &[], projection, pivot, &mut solver_calls);
        if whole <= pivot {
            return ApproxCount {
                estimate: whole as f64,
                exact: Some(whole),
                solver_calls,
                xor_rows: 0,
            };
        }
        let n = projection.len();
        let mut estimates = Vec::new();
        for _ in 0..params.iterations() {
            let rows = draw_rows(n, n, rng);
            let sels: Vec<Var> = rows
                .iter()
                .map(|row| {
                    let s = solver.new_var();
                    encode_row_into(solver, projection, row, Some(s));
                    s
                })
                .collect();
            let (mut lo, mut hi) = (1usize, n);
            let mut found: Option<(usize, u64)> = None;
            while lo <= hi {
                let mid = lo + (hi - lo) / 2;
                let assum: Vec<Lit> = sels[..mid].iter().map(|&s| Lit::pos(s)).collect();
                let cells = enumerate_cells(solver, &assum, projection, pivot, &mut solver_calls);
                if cells <= pivot {
                    found = Some((mid, cells));
                    if mid == 1 {
                        break;
                    }
                    hi = mid - 1;
                } else {
                    lo = mid + 1;
                }
            }
            if let Some((m, cells)) = found.filter(|&(_, c)| c > 0) {
                estimates.push(cells as f64 * (2f64).powi(m as i32));
            }
        }
        estimates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ApproxCount {
            estimate: estimates
                .get(estimates.len() / 2)
                .copied()
                .unwrap_or((pivot + 1) as f64),
            exact: None,
            solver_calls,
            xor_rows: (n * params.iterations()) as u64,
        }
    }

    /// A random CNF over `p` projected and 3 hidden variables: short
    /// clauses over all of them, few enough that the projected count
    /// usually clears the pivot.
    fn random_cnf(solver: &mut Solver, p: usize, rng: &mut StdRng) -> Vec<Var> {
        let projection = free_vars(solver, p);
        let hidden = free_vars(solver, 3);
        let all: Vec<Var> = projection.iter().chain(&hidden).copied().collect();
        for _ in 0..p / 2 {
            let clause: Vec<Lit> = (0..3)
                .map(|_| Lit::with_sign(all[rng.gen_range(0..all.len())], rng.gen::<bool>()))
                .collect();
            solver.add_clause(&clause);
        }
        projection
    }

    #[test]
    fn crossover_search_matches_the_bisecting_reference() {
        let mut hashed = 0;
        for seed in 0..24u64 {
            let mut draw = StdRng::seed_from_u64(1000 + seed);
            let p = draw.gen_range(8..13usize);
            let params = if seed % 2 == 0 {
                CountParams::default()
            } else {
                CountParams::new(3.0, 0.3).unwrap()
            };
            let run = |reference: bool| {
                let mut solver = Solver::new();
                let projection = random_cnf(&mut solver, p, &mut StdRng::seed_from_u64(seed));
                let mut rng = StdRng::seed_from_u64(7 * seed + 1);
                if reference {
                    reference_count(&mut solver, &projection, &params, &mut rng)
                } else {
                    approx_count(&mut solver, &[], &projection, &params, &mut rng)
                }
            };
            let (got, want) = (run(false), run(true));
            assert_eq!(got.estimate, want.estimate, "seed {seed}: estimate");
            assert_eq!(got.exact, want.exact, "seed {seed}: exact");
            assert!(
                got.solver_calls <= want.solver_calls,
                "seed {seed}: {} solver calls vs the reference's {}",
                got.solver_calls,
                want.solver_calls
            );
            hashed += want.exact.is_none() as usize;
        }
        assert!(
            hashed >= 20,
            "only {hashed} instances reached the hash path"
        );
    }

    #[test]
    fn crossover_finds_the_first_cell_at_or_below_the_pivot() {
        // cells(m) = 2^(10 - m): the crossover for pivot 9 is m = 7.
        for start in [None, Some(1), Some(5), Some(7), Some(8), Some(10), Some(30)] {
            let mut probed = Vec::new();
            let got = crossover(10, 9, start, |m| {
                probed.push(m);
                1 << (10 - m)
            });
            assert_eq!(got, Some((7, 8)), "start {start:?}");
            assert!(probed.contains(&6), "start {start:?}: must see 6 above");
            let mut unique = probed.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), probed.len(), "start {start:?}: {probed:?}");
        }
        assert_eq!(crossover(4, 1, Some(2), |_| 5), None, "never at or below");
        assert_eq!(crossover(4, 9, Some(3), |_| 5), Some((1, 5)));
    }

    #[test]
    fn estimates_are_deterministic_and_search_state_independent() {
        // `offset` unrelated variables shift every solver variable id, and
        // a warm-up solve leaves saved phases and activities behind: the
        // estimate must not notice either.
        let build = |offset: usize, warm: bool| {
            let mut solver = Solver::new();
            free_vars(&mut solver, offset);
            let vars = free_vars(&mut solver, 9);
            solver.add_clause(&[Lit::pos(vars[0]), Lit::pos(vars[1])]);
            if warm {
                let flip: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
                assert_eq!(solver.solve_with(&flip), SatResult::Sat);
            }
            let mut rng = StdRng::seed_from_u64(5);
            approx_count(&mut solver, &[], &vars, &CountParams::default(), &mut rng).estimate
        };
        let cold = build(0, false);
        assert_eq!(cold, build(0, false));
        assert_eq!(cold, build(7, false));
        assert_eq!(cold, build(0, true));
    }

    #[test]
    fn params_validate_and_derive() {
        assert!(CountParams::new(0.0, 0.2).is_err());
        assert!(CountParams::new(0.8, 0.0).is_err());
        assert!(CountParams::new(0.8, 1.0).is_err());
        let p = CountParams::new(0.8, 0.2).unwrap();
        assert_eq!(p.pivot(), 26);
        assert_eq!(p.iterations() % 2, 1);
        assert!(p.iterations() >= 9);
        // Tighter δ needs more rounds.
        let tight = CountParams::new(0.8, 0.01).unwrap();
        assert!(tight.iterations() > p.iterations());
    }
}
