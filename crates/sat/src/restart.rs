//! The restart policy.
//!
//! Glucose-style dynamic restarts: restart when the short-term average
//! conflict LBD rises above the long-term average (search is learning
//! poorly here), and *block* an imminent restart when the assignment
//! trail is much deeper than usual (search may be close to a model).

/// Exponential moving average with a fixed smoothing factor.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ema {
    value: f64,
    alpha: f64,
    /// Updates seen; the average is meaningless before a few samples.
    samples: u64,
}

impl Ema {
    pub(crate) fn new(alpha: f64) -> Ema {
        Ema {
            value: 0.0,
            alpha,
            samples: 0,
        }
    }

    pub(crate) fn update(&mut self, x: f64) {
        // Warm-up: seed with the first sample instead of decaying from 0,
        // so slow EMAs are comparable to fast ones from the start.
        if self.samples == 0 {
            self.value = x;
        } else {
            self.value += self.alpha * (x - self.value);
        }
        self.samples += 1;
    }

    pub(crate) fn get(&self) -> f64 {
        self.value
    }
}

/// Fast EMA smoothing (~last 32 conflicts).
const FAST_ALPHA: f64 = 1.0 / 32.0;
/// Slow EMA smoothing (~last 4096 conflicts).
const SLOW_ALPHA: f64 = 1.0 / 4096.0;
/// Trail-depth EMA smoothing.
const TRAIL_ALPHA: f64 = 1.0 / 4096.0;
/// Restart when `fast > MARGIN × slow`.
const MARGIN: f64 = 1.25;
/// Block a restart when the trail is this factor deeper than average.
const BLOCK_FACTOR: f64 = 1.4;
/// Minimum conflicts between restarts.
const MIN_CONFLICTS: u64 = 50;

/// All restart bookkeeping for one solver.
#[derive(Clone, Debug)]
pub(crate) struct RestartState {
    /// Conflicts since the last restart (or block).
    since: u64,
    fast: Ema,
    slow: Ema,
    trail: Ema,
    /// Restarts suppressed by the trail-depth block.
    pub(crate) blocked: u64,
}

impl RestartState {
    pub(crate) fn new() -> RestartState {
        RestartState {
            since: 0,
            fast: Ema::new(FAST_ALPHA),
            slow: Ema::new(SLOW_ALPHA),
            trail: Ema::new(TRAIL_ALPHA),
            blocked: 0,
        }
    }

    /// Records one conflict: its learnt-clause LBD and the trail depth at
    /// the moment of conflict.
    pub(crate) fn on_conflict(&mut self, lbd: u32, trail_len: usize) {
        self.since += 1;
        self.fast.update(f64::from(lbd));
        self.slow.update(f64::from(lbd));
        // Blocking: a much-deeper-than-usual trail suggests progress
        // toward a model; postpone the restart by restarting the conflict
        // window.
        if self.since >= MIN_CONFLICTS && trail_len as f64 > BLOCK_FACTOR * self.trail.get() {
            self.since = 0;
            self.blocked += 1;
        }
        self.trail.update(trail_len as f64);
    }

    /// Should the solver restart now?
    pub(crate) fn should_restart(&self) -> bool {
        self.since >= MIN_CONFLICTS && self.fast.get() > MARGIN * self.slow.get()
    }

    /// Resets the per-restart window after a restart was performed.
    pub(crate) fn on_restart(&mut self) {
        self.since = 0;
        // Forget the fast window so the next restart needs fresh evidence
        // of bad LBDs, not the ones that caused this restart.
        self.fast = Ema::new(FAST_ALPHA);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ema_seeds_from_first_sample_then_smooths() {
        let mut e = Ema::new(0.5);
        e.update(8.0);
        assert_eq!(e.get(), 8.0);
        e.update(0.0);
        assert_eq!(e.get(), 4.0);
        e.update(0.0);
        assert_eq!(e.get(), 2.0);
    }

    #[test]
    fn glucose_restarts_when_recent_lbd_degrades() {
        let mut r = RestartState::new();
        // A long run of good (low-LBD) conflicts: no restart.
        for _ in 0..500 {
            r.on_conflict(3, 10);
        }
        assert!(!r.should_restart(), "steady LBD must not restart");
        // A burst of bad conflicts lifts the fast EMA above the slow one.
        for _ in 0..60 {
            r.on_conflict(30, 10);
        }
        assert!(r.should_restart(), "degrading LBD must trigger a restart");
        r.on_restart();
        assert!(!r.should_restart(), "window resets after restart");
    }

    #[test]
    fn glucose_blocks_restart_on_deep_trail() {
        let mut r = RestartState::new();
        for _ in 0..500 {
            r.on_conflict(3, 100);
        }
        for _ in 0..60 {
            r.on_conflict(30, 100);
        }
        assert!(r.should_restart());
        // A conflict with a trail far deeper than the average blocks the
        // pending restart by resetting the conflict window.
        r.on_conflict(30, 100_000);
        assert!(!r.should_restart(), "deep trail must block the restart");
        assert_eq!(r.blocked, 1);
    }
}
