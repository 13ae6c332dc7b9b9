//! Simulation reports.

use pg_inference::accuracy::OnlineAccuracy;
use serde::Serialize;

use crate::fault::{FaultRecord, HealthSummary};
use crate::telemetry::TelemetrySnapshot;

/// Result of one [`RoundSimulator`](crate::round::RoundSimulator) run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RoundSimReport {
    /// Gate policy name.
    pub policy: String,
    /// Number of streams.
    pub streams: usize,
    /// Rounds simulated.
    pub rounds: u64,
    /// Per-round budget in cost units.
    pub budget_per_round: f64,
    /// Total packets offered (streams × rounds).
    pub packets_total: u64,
    /// Packets decoded in their arrival round (counting only arrival-round
    /// targets, not dependency back-fill).
    pub packets_decoded: u64,
    /// Extra packets decoded as dependency closure back-fill.
    pub packets_backfilled: u64,
    /// Total decode cost spent, in cost units.
    pub cost_spent: f64,
    /// Primary accuracy accumulator (overall + per segment): the paper's
    /// per-packet correctness (skipping a necessary packet is wrong).
    pub accuracy: OnlineAccuracy,
    /// Secondary accuracy accumulator: published-result correctness (a
    /// missed change stays wrong until the next decode).
    pub staleness: OnlineAccuracy,
    /// Ground-truth necessary packets offered.
    pub necessary_total: u64,
    /// Necessary packets that were decoded in time.
    pub necessary_decoded: u64,
    /// Classified faults observed during the run (bounded; see
    /// [`crate::fault::MAX_FAULT_RECORDS`]). Empty on a clean run.
    pub faults: Vec<FaultRecord>,
    /// Stream-health roll-up (degraded/recovered/dead counts).
    pub health: HealthSummary,
    /// Per-stage telemetry, when a [`crate::telemetry::Telemetry`] handle
    /// was attached to the simulator (`None` otherwise).
    pub telemetry: Option<TelemetrySnapshot>,
}

impl RoundSimReport {
    /// Fraction of offered packets *not* decoded — the paper's filtering
    /// rate.
    pub fn filtering_rate(&self) -> f64 {
        if self.packets_total == 0 {
            return 0.0;
        }
        1.0 - self.packets_decoded as f64 / self.packets_total as f64
    }

    /// Overall online inference accuracy.
    pub fn accuracy_overall(&self) -> f64 {
        self.accuracy.overall()
    }

    /// Overall published-result (staleness) accuracy.
    pub fn staleness_overall(&self) -> f64 {
        self.staleness.overall()
    }

    /// Recall on necessary packets.
    pub fn recall(&self) -> f64 {
        if self.necessary_total == 0 {
            return 1.0;
        }
        self.necessary_decoded as f64 / self.necessary_total as f64
    }

    /// Mean decode cost spent per round.
    pub fn mean_cost_per_round(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.cost_spent / self.rounds as f64
    }

    /// Budget utilisation: mean spend over budget.
    pub fn budget_utilisation(&self) -> f64 {
        if self.budget_per_round <= 0.0 {
            return 0.0;
        }
        self.mean_cost_per_round() / self.budget_per_round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RoundSimReport {
        let mut acc = OnlineAccuracy::with_segments(2);
        acc.record(0, true, true);
        acc.record(1, false, true);
        RoundSimReport {
            policy: "test".into(),
            streams: 2,
            rounds: 1,
            budget_per_round: 4.0,
            packets_total: 2,
            packets_decoded: 1,
            packets_backfilled: 0,
            cost_spent: 2.0,
            accuracy: acc,
            staleness: OnlineAccuracy::with_segments(2),
            necessary_total: 2,
            necessary_decoded: 1,
            faults: Vec::new(),
            health: HealthSummary::default(),
            telemetry: None,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.filtering_rate() - 0.5).abs() < 1e-9);
        assert!((r.accuracy_overall() - 0.5).abs() < 1e-9);
        assert!((r.recall() - 0.5).abs() < 1e-9);
        assert!((r.mean_cost_per_round() - 2.0).abs() < 1e-9);
        assert!((r.budget_utilisation() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RoundSimReport {
            policy: "empty".into(),
            streams: 0,
            rounds: 0,
            budget_per_round: 0.0,
            packets_total: 0,
            packets_decoded: 0,
            packets_backfilled: 0,
            cost_spent: 0.0,
            accuracy: OnlineAccuracy::with_segments(0),
            staleness: OnlineAccuracy::with_segments(0),
            necessary_total: 0,
            necessary_decoded: 0,
            faults: Vec::new(),
            health: HealthSummary::default(),
            telemetry: None,
        };
        assert_eq!(r.filtering_rate(), 0.0);
        assert_eq!(r.recall(), 1.0);
        assert_eq!(r.budget_utilisation(), 0.0);
    }
}
