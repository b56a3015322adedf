//! AppSAT-style approximate deobfuscation (Shamsi et al. \[10\], cited by
//! the paper as the attack that cracks SAT-resistant schemes by exploiting
//! their reliance on conventional key-gates for corruptibility).
//!
//! The exact SAT attack must eliminate *every* wrong key — against a point
//! function (SARLock/Anti-SAT) that costs one DIP per key. AppSAT settles
//! for an **approximately correct** key: it interleaves DIP rounds with
//! random-pattern probes and stops once the candidate key's observed error
//! rate drops below a threshold. Against compound schemes
//! (point-function + XOR), it quickly recovers the XOR portion and returns
//! a key that is wrong only on the point function's single pattern.
//!
//! Against GK locking the DIP loop is empty (the miter is UNSAT
//! immediately), so AppSAT inherits the exact attack's failure: any key it
//! returns looks perfect in the static view — the probes measure zero
//! error — and is still useless on the timed chip.

use crate::cancel::CancelToken;
use crate::sat_attack::MiterSession;
use glitchlock_netlist::{NetId, Netlist};
use glitchlock_obs::{self as obs, names};
use rand::Rng;

/// Result of an AppSAT run.
#[derive(Clone, Debug)]
pub struct AppSatResult {
    /// The candidate key.
    pub key: Vec<bool>,
    /// Observed error rate of the candidate on the final probe round
    /// (fraction of probed patterns whose outputs differ from the oracle).
    pub error_rate: f64,
    /// DIP iterations performed.
    pub dip_iterations: usize,
    /// True when the miter became UNSAT (exact convergence) rather than an
    /// early approximate settle.
    pub exact: bool,
    /// True when the run was stopped by a [`CancelToken`] before settling;
    /// `key` and `error_rate` then reflect the last completed round.
    pub cancelled: bool,
}

/// Configuration of the approximate attack.
#[derive(Clone, Copy, Debug)]
pub struct AppSat {
    /// DIP rounds between probe rounds.
    pub dips_per_round: usize,
    /// Random patterns per probe round.
    pub probes: usize,
    /// Settle threshold: stop when the observed error rate is at or below
    /// this value.
    pub settle_error_rate: f64,
    /// Hard cap on total DIP iterations.
    pub max_iterations: usize,
}

impl Default for AppSat {
    fn default() -> Self {
        AppSat {
            dips_per_round: 4,
            probes: 64,
            settle_error_rate: 0.01,
            max_iterations: 512,
        }
    }
}

impl AppSat {
    /// Runs the approximate attack.
    ///
    /// # Panics
    ///
    /// Panics when the locked view's non-key inputs do not align with the
    /// oracle (same contract as [`crate::SatAttack`]).
    pub fn run<R: Rng>(
        &self,
        locked: &Netlist,
        key_inputs: &[NetId],
        oracle: &Netlist,
        rng: &mut R,
    ) -> AppSatResult {
        self.run_with_cancel(locked, key_inputs, oracle, rng, None)
    }

    /// [`AppSat::run`] with a cooperative [`CancelToken`], polled once per
    /// round (DIP burst + probe batch).
    ///
    /// # Panics
    ///
    /// Same contract as [`AppSat::run`].
    pub fn run_with_cancel<R: Rng>(
        &self,
        locked: &Netlist,
        key_inputs: &[NetId],
        oracle: &Netlist,
        rng: &mut R,
        cancel: Option<&CancelToken>,
    ) -> AppSatResult {
        let _span = obs::span("attack.appsat");
        let round_counter = obs::counter(names::APPSAT_ROUNDS);
        let dip_counter = obs::counter(names::APPSAT_DIPS);
        let probe_counter = obs::counter(names::APPSAT_PROBES);
        let mut session = MiterSession::new(locked, key_inputs, &[], oracle);
        let mut dip_iterations = 0;
        loop {
            if cancel.is_some_and(|c| c.is_cancelled()) {
                let key = session.extract_key().unwrap_or_default();
                obs::event("result", "appsat")
                    .str("outcome", "cancelled")
                    .u64("dip_iterations", dip_iterations as u64)
                    .emit();
                return AppSatResult {
                    key,
                    error_rate: 1.0,
                    dip_iterations,
                    exact: false,
                    cancelled: true,
                };
            }
            round_counter.incr();
            // A burst of exact DIP rounds.
            let mut exhausted = false;
            for _ in 0..self.dips_per_round {
                if dip_iterations >= self.max_iterations {
                    exhausted = true;
                    break;
                }
                match session.find_dip() {
                    None => {
                        exhausted = true;
                        break;
                    }
                    Some(dip) => {
                        dip_iterations += 1;
                        dip_counter.incr();
                        obs::event("dip", "appsat")
                            .u64("iter", dip_iterations as u64)
                            .str_with("pattern", || crate::sat_attack::bits(&dip))
                            .emit();
                        let response = session.query_oracle(&dip);
                        session.add_io_constraint(&dip, &response);
                    }
                }
            }
            let key = session.extract_key().unwrap_or_default();
            // Probe round: measure the candidate's error rate on random
            // patterns; failing patterns become extra IO constraints
            // (AppSAT's reinforcement step).
            let data_batch: Vec<Vec<bool>> = (0..self.probes)
                .map(|_| (0..session.data_width()).map(|_| rng.gen()).collect())
                .collect();
            let expect_batch = session.query_oracle_many(&data_batch);
            let got_batch = session.eval_locked_many(&data_batch, &key);
            let mut errors = 0usize;
            let mut failing: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
            for ((data, expect), got) in data_batch.into_iter().zip(expect_batch).zip(got_batch) {
                if got != expect {
                    errors += 1;
                    failing.push((data, expect));
                }
            }
            probe_counter.add(self.probes as u64);
            let error_rate = errors as f64 / self.probes as f64;
            if exhausted || error_rate <= self.settle_error_rate {
                obs::gauge_set("appsat.error_rate", error_rate);
                obs::event("result", "appsat")
                    .str("outcome", if exhausted { "exhausted" } else { "settled" })
                    .u64("dip_iterations", dip_iterations as u64)
                    .f64("error_rate", error_rate)
                    .emit();
                return AppSatResult {
                    key,
                    error_rate,
                    dip_iterations,
                    exact: exhausted && error_rate == 0.0,
                    cancelled: false,
                };
            }
            for (data, expect) in failing {
                session.add_io_constraint(&data, &expect);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_core::locking::{LockScheme, SarLock, XorLock};
    use glitchlock_netlist::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn circuit() -> Netlist {
        let mut nl = Netlist::new("c");
        let ins: Vec<_> = (0..6).map(|i| nl.add_input(format!("i{i}"))).collect();
        let w1 = nl.add_gate(GateKind::Nand, &[ins[0], ins[1]]).unwrap();
        let w2 = nl.add_gate(GateKind::Nor, &[ins[2], ins[3]]).unwrap();
        let w3 = nl.add_gate(GateKind::Xor, &[w1, w2]).unwrap();
        let w4 = nl.add_gate(GateKind::And, &[ins[4], ins[5], w3]).unwrap();
        let w5 = nl.add_gate(GateKind::Or, &[w3, w4]).unwrap();
        nl.mark_output(w4, "y0");
        nl.mark_output(w5, "y1");
        nl
    }

    /// Compound locking: SARLock + XOR — the scenario AppSAT was built
    /// for. The approximate key must recover the XOR portion (near-zero
    /// error) in far fewer DIPs than the exact attack needs.
    #[test]
    fn appsat_approximately_cracks_sarlock_xor_compound() {
        let nl = circuit();
        let mut rng = StdRng::seed_from_u64(61);
        let xor_locked = XorLock::new(6).lock(&nl, &mut rng).unwrap();
        let compound = SarLock::new(6).lock(&xor_locked.netlist, &mut rng).unwrap();
        // Key layout in the compound netlist: XOR keys then SARLock keys.
        let mut all_keys = xor_locked.key_inputs.clone();
        all_keys.extend(compound.key_inputs.iter().copied());
        let cfg = AppSat {
            settle_error_rate: 0.02,
            max_iterations: 40,
            ..AppSat::default()
        };
        let result = cfg.run(&compound.netlist, &all_keys, &nl, &mut rng);
        assert!(
            result.error_rate <= 0.02,
            "approximate key must be almost always right (rate {})",
            result.error_rate
        );
        assert!(
            result.dip_iterations <= 40,
            "AppSAT must settle quickly; exact needs ~2^6 DIPs"
        );
    }

    #[test]
    fn appsat_converges_exactly_on_plain_xor() {
        let nl = circuit();
        let mut rng = StdRng::seed_from_u64(62);
        let locked = XorLock::new(5).lock(&nl, &mut rng).unwrap();
        // A large DIP burst exhausts the miter before the first probe
        // round, giving exact convergence.
        let cfg = AppSat {
            dips_per_round: 64,
            ..AppSat::default()
        };
        let result = cfg.run(&locked.netlist, &locked.key_inputs, &nl, &mut rng);
        assert!(result.exact, "plain XOR locking converges exactly");
        assert_eq!(result.error_rate, 0.0);

        // With small bursts it may settle early instead — still zero
        // observed error, flagged approximate.
        let mut rng = StdRng::seed_from_u64(62);
        let result = AppSat::default().run(&locked.netlist, &locked.key_inputs, &nl, &mut rng);
        assert_eq!(result.error_rate, 0.0);
    }

    #[test]
    fn appsat_is_blind_against_gk() {
        use glitchlock_core::GkEncryptor;
        use glitchlock_sta::ClockModel;
        use glitchlock_stdcell::{Library, Ps};
        let nl = glitchlock_circuits::generate(&glitchlock_circuits::tiny(63));
        let lib = Library::cl013g_like();
        let clock = ClockModel::new(Ps::from_ns(3));
        let mut rng = StdRng::seed_from_u64(63);
        let locked = GkEncryptor::new(3)
            .encrypt(&nl, &lib, &clock, &mut rng)
            .unwrap();
        let result = AppSat::default().run(
            &locked.attack_view,
            &locked.attack_key_inputs,
            &nl,
            &mut rng,
        );
        // No DIP ever exists (the miter is UNSAT at once), so AppSAT gets
        // zero leverage from the solver. Its probes *do* observe that the
        // static view disagrees with the chip at the GK-fed state bits —
        // but no key assignment explains the error, so the attack cannot
        // settle on anything useful. (Acting on that observation is the
        // enhanced removal attack, which the paper counters with
        // withholding.)
        assert_eq!(result.dip_iterations, 0);
        assert!(
            result.error_rate > 0.5,
            "probes expose unexplainable corruption: rate {}",
            result.error_rate
        );
        assert!(!result.exact);
    }
}
