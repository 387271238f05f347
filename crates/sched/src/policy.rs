//! The cut rule: when the scheduler cuts the next micro-batch.
//!
//! An event's staleness is the time from its arrival to the install that
//! publishes it: roughly *(time spent waiting for the cut)* plus *(time the
//! window takes to process)*. Long windows amortize per-window planning and
//! maximize cross-expression sharing, but events wait longer; short windows
//! publish promptly but pay the per-window overhead more often. Two
//! stateless rules cover the trade: `fixed` cuts on a period, `greedy` cuts
//! every tick, so a window's span is whatever the previous window's
//! processing let queue up. (A third, SLA-steered rule was measured against
//! both and deleted — EXPERIMENTS.md § "Window sizing".)
//!
//! The rule reads nothing but the configuration, never measured wall time,
//! so a crashed run resumes through the identical window sequence.

/// When the scheduler cuts a micro-batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Cut every `window` ticks, no matter what arrived.
    Fixed,
    /// Cut as soon as anything is queued (a one-tick span each time).
    Greedy,
}

impl Policy {
    /// Parses a CLI policy name.
    pub fn parse(s: &str) -> Result<Policy, String> {
        match s {
            "fixed" => Ok(Policy::Fixed),
            "greedy" => Ok(Policy::Greedy),
            other => Err(format!("unknown policy: {other} (expected fixed|greedy)")),
        }
    }

    /// The CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            Policy::Fixed => "fixed",
            Policy::Greedy => "greedy",
        }
    }

    /// Ticks to accumulate before the next cut, given the configured
    /// `window`.
    pub(crate) fn next_span(self, window: u64) -> u64 {
        match self {
            Policy::Fixed => window.max(1),
            Policy::Greedy => 1,
        }
    }
}

/// The service model of the virtual clock and the staleness target runs are
/// reported against.
#[derive(Clone, Copy, Debug)]
pub struct SlaConfig {
    /// Target mean staleness in ticks (arrival → install).
    pub target_staleness: f64,
    /// Service rate: linear-work rows the engine retires per tick. Converts
    /// the planner's predicted work into processing ticks; must be finite
    /// and positive.
    pub service_rate: f64,
}

impl Default for SlaConfig {
    fn default() -> Self {
        SlaConfig {
            target_staleness: 24.0,
            service_rate: 200.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in [Policy::Fixed, Policy::Greedy] {
            assert_eq!(Policy::parse(p.as_str()).unwrap(), p);
        }
        assert!(Policy::parse("nightly").is_err());
        let gone = Policy::parse("adaptive").unwrap_err();
        assert!(gone.contains("greedy"), "{gone}");
    }

    #[test]
    fn spans_depend_only_on_the_configured_window() {
        assert_eq!(Policy::Fixed.next_span(12), 12);
        assert_eq!(Policy::Fixed.next_span(0), 1);
        assert_eq!(Policy::Greedy.next_span(12), 1);
    }
}
