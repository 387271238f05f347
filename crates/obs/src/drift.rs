//! Cost-model drift detection.
//!
//! The scheduler converts the planner's predicted linear work into each
//! window's processing ticks. That prediction is only trustworthy while the
//! workload the cost model was calibrated on still resembles the workload
//! being served; nothing in the paper's §4 validation covers a *moving*
//! distribution. This module watches the residual online: for each
//! completed window it folds the relative error between the predicted and
//! the measured linear work — the paper's §4 metric — into an EWMA, and
//! flags once the smoothed residual stays beyond a threshold for a
//! sustained run of windows. One noisy window never flags; a real
//! mis-calibration (say the cost constant drifting 2×) flags within a
//! handful of windows and clears again once predictions match.
//!
//! The tracker is pure observation: nothing here feeds back into
//! scheduling.

/// EWMA smoothing factor for the residual.
const ALPHA: f64 = 0.35;
/// Absolute smoothed relative error beyond which a window counts as
/// mis-calibrated.
const THRESHOLD: f64 = 0.2;
/// Consecutive beyond-threshold windows required before flagging.
const SUSTAIN: u32 = 3;

/// One channel: an EWMA of signed relative errors plus the sustained-run
/// flag logic.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResidualEwma {
    ewma: f64,
    primed: bool,
    beyond: u32,
    flagged: bool,
}

impl ResidualEwma {
    /// Folds one window's signed relative error in and re-evaluates the
    /// flag. Non-finite samples are ignored (a zero-denominator window
    /// says nothing about calibration).
    pub fn observe(&mut self, rel_err: f64) {
        if !rel_err.is_finite() {
            return;
        }
        if self.primed {
            self.ewma = ALPHA * rel_err + (1.0 - ALPHA) * self.ewma;
        } else {
            self.ewma = rel_err;
            self.primed = true;
        }
        if self.ewma.abs() > THRESHOLD {
            self.beyond = self.beyond.saturating_add(1);
            if self.beyond >= SUSTAIN {
                self.flagged = true;
            }
        } else {
            self.beyond = 0;
            self.flagged = false;
        }
    }

    /// The smoothed signed relative error.
    pub fn residual(&self) -> f64 {
        self.ewma
    }

    /// True while mis-calibration has been sustained for three
    /// consecutive windows and the residual has not yet returned under
    /// threshold.
    pub fn flagged(&self) -> bool {
        self.flagged
    }
}

/// One completed window's model-vs-measurement facts, as the scheduler
/// (or a ledger replay) sees them.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriftObservation {
    /// Planner-predicted linear work.
    pub predicted_work: f64,
    /// Measured linear work.
    pub measured_work: f64,
    /// Events in the batch.
    pub events: u64,
}

/// Whether the model is currently flagged as drifting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriftFlags {
    /// Predicted-vs-measured linear work.
    pub work: bool,
}

/// The drift detector: the work residual plus a window count.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriftTracker {
    work: ResidualEwma,
    windows: u64,
}

impl DriftTracker {
    /// Folds one completed window in. Zero-event windows are skipped —
    /// they carry no calibration information.
    pub fn observe(&mut self, o: &DriftObservation) {
        if o.events == 0 {
            return;
        }
        self.windows += 1;
        let work_err = (o.measured_work - o.predicted_work) / o.predicted_work.abs().max(1.0);
        self.work.observe(work_err);
    }

    /// Windows observed (zero-event windows excluded).
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Smoothed relative error of measured vs predicted linear work.
    pub fn work_residual(&self) -> f64 {
        self.work.residual()
    }

    /// Current flag state.
    pub fn flags(&self) -> DriftFlags {
        DriftFlags {
            work: self.work.flagged(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(predicted: f64, measured: f64) -> DriftObservation {
        DriftObservation {
            predicted_work: predicted,
            measured_work: measured,
            events: 50,
        }
    }

    fn stationary_window(i: u64) -> DriftObservation {
        // A perfectly calibrated, mildly noisy workload: measured work
        // wobbles ±4% around prediction, deterministic in `i`.
        let noise = 1.0 + 0.04 * (((i * 7919) % 13) as f64 - 6.0) / 6.0;
        window(1000.0, 1000.0 * noise)
    }

    #[test]
    fn stationary_workload_never_flags() {
        let mut t = DriftTracker::default();
        for i in 0..64 {
            t.observe(&stationary_window(i));
            assert!(!t.flags().work, "spurious flag at window {i}: {t:?}");
        }
        assert_eq!(t.windows(), 64);
        assert!(t.work_residual().abs() < 0.1);
    }

    #[test]
    fn cost_perturbation_flags_within_five_windows() {
        let mut t = DriftTracker::default();
        for i in 0..20 {
            t.observe(&stationary_window(i));
        }
        assert!(!t.flags().work);
        // The model's cost constant is suddenly 2× wrong: predictions are
        // half of what actually runs.
        let mut flagged_at = None;
        for i in 0..10 {
            t.observe(&window(1000.0, 2000.0));
            if t.flags().work && flagged_at.is_none() {
                flagged_at = Some(i + 1);
            }
        }
        let n = flagged_at.expect("2x perturbation must flag");
        assert!(n <= 5, "flagged only after {n} windows");
    }

    #[test]
    fn flags_clear_when_residual_returns_under_threshold() {
        let mut ch = ResidualEwma::default();
        for i in 0..SUSTAIN {
            assert!(!ch.flagged(), "flagged after only {i} bad windows");
            ch.observe(0.5);
        }
        assert!(ch.flagged());
        while ch.residual().abs() > THRESHOLD {
            ch.observe(0.0);
        }
        assert!(!ch.flagged());
    }

    #[test]
    fn zero_event_windows_and_nonfinite_samples_are_ignored() {
        let mut t = DriftTracker::default();
        t.observe(&DriftObservation::default());
        assert_eq!(t.windows(), 0);
        let mut ch = ResidualEwma::default();
        ch.observe(f64::NAN);
        assert_eq!(ch.residual(), 0.0);
    }
}
