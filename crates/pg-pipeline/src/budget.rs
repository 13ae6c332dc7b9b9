//! Decoding budget accounting.
//!
//! Experiments express the decoder's capacity as a per-round budget `B` in
//! [`pg_codec::CostModel`] units (P/B packet = 1). This module converts
//! between that and FPS-style capacities, and tracks per-round spending.

use pg_inference::modules::STREAM_FPS;

/// Per-round decoding budget with spend tracking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundBudget {
    /// Budget per round, in cost units.
    pub per_round: f64,
    spent_this_round: f64,
    total_spent: f64,
    rounds: u64,
}

impl RoundBudget {
    /// A budget of `per_round` cost units per round.
    pub fn new(per_round: f64) -> Self {
        assert!(per_round >= 0.0 && per_round.is_finite());
        RoundBudget {
            per_round,
            spent_this_round: 0.0,
            total_spent: 0.0,
            rounds: 0,
        }
    }

    /// Budget implied by a decoder capacity of `decode_fps` frames/s with a
    /// mean per-frame cost (in units), at [`STREAM_FPS`] rounds per second.
    ///
    /// Example (paper §4.1): 870 FPS CPU decoding at mean cost 1 unit and
    /// 25 rounds/s gives ≈ 34.8 units/round.
    ///
    /// Panics on non-finite or negative inputs; use
    /// [`RoundBudget::try_from_decode_fps`] to handle them recoverably.
    pub fn from_decode_fps(decode_fps: f64, mean_cost_per_frame: f64) -> Self {
        match Self::try_from_decode_fps(decode_fps, mean_cost_per_frame) {
            Ok(b) => b,
            Err(e) => panic!("invalid decode budget: {e}"),
        }
    }

    /// Fallible form of [`RoundBudget::from_decode_fps`]. Both inputs must
    /// be finite and non-negative — otherwise NaN/∞ (e.g. `∞ × 0`) would
    /// propagate into `per_round`, where only the product is checked and a
    /// NaN would silently disable `can_spend`.
    pub fn try_from_decode_fps(decode_fps: f64, mean_cost_per_frame: f64) -> Result<Self, String> {
        if !decode_fps.is_finite() || decode_fps < 0.0 {
            return Err(format!(
                "decode_fps must be finite and non-negative, got {decode_fps}"
            ));
        }
        if !mean_cost_per_frame.is_finite() || mean_cost_per_frame < 0.0 {
            return Err(format!(
                "mean_cost_per_frame must be finite and non-negative, got {mean_cost_per_frame}"
            ));
        }
        Ok(Self::new(decode_fps / STREAM_FPS * mean_cost_per_frame))
    }

    /// Equivalent decode FPS of this budget at a mean per-frame cost.
    pub fn to_decode_fps(&self, mean_cost_per_frame: f64) -> f64 {
        self.per_round * STREAM_FPS / mean_cost_per_frame.max(f64::MIN_POSITIVE)
    }

    /// Start a new round.
    pub fn begin_round(&mut self) {
        self.spent_this_round = 0.0;
        self.rounds += 1;
    }

    /// Whether more spending is allowed this round. Per the approximately-
    /// fractional model (Lemma 1), spending is allowed while strictly below
    /// the budget; the final item may overshoot.
    pub fn can_spend(&self) -> bool {
        self.spent_this_round < self.per_round
    }

    /// Units charged since [`RoundBudget::begin_round`].
    pub(crate) fn spent_this_round(&self) -> f64 {
        self.spent_this_round
    }

    /// Remaining budget this round (may go negative after the final,
    /// overshooting item).
    pub fn remaining(&self) -> f64 {
        self.per_round - self.spent_this_round
    }

    /// Charge `cost` units.
    pub fn charge(&mut self, cost: f64) {
        debug_assert!(cost >= 0.0);
        self.spent_this_round += cost;
        self.total_spent += cost;
    }

    /// Total units spent across all rounds.
    pub fn total_spent(&self) -> f64 {
        self.total_spent
    }

    /// Mean units spent per round.
    pub fn mean_spent_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_spent / self.rounds as f64
        }
    }

    /// Rounds elapsed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fps_conversion_roundtrips() {
        let b = RoundBudget::from_decode_fps(870.0, 1.29);
        assert!((b.to_decode_fps(1.29) - 870.0).abs() < 1e-6);
    }

    #[test]
    fn paper_example_budget() {
        let b = RoundBudget::from_decode_fps(870.1, 1.0);
        assert!((b.per_round - 34.804).abs() < 0.01);
    }

    #[test]
    fn spending_and_overshoot_semantics() {
        let mut b = RoundBudget::new(3.0);
        b.begin_round();
        assert!(b.can_spend());
        b.charge(2.9);
        assert!(b.can_spend(), "still strictly below budget");
        b.charge(2.9); // the allowed overshooting item
        assert!(!b.can_spend());
        assert!(b.remaining() < 0.0);
        assert_eq!(b.total_spent(), 5.8);
    }

    #[test]
    fn rounds_reset_spending() {
        let mut b = RoundBudget::new(1.0);
        b.begin_round();
        b.charge(1.0);
        assert!(!b.can_spend());
        b.begin_round();
        assert!(b.can_spend());
        assert_eq!(b.rounds(), 2);
        assert!((b.mean_spent_per_round() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn negative_budget_rejected() {
        let _ = RoundBudget::new(-1.0);
    }

    #[test]
    fn non_finite_fps_inputs_rejected() {
        // NaN cost would otherwise yield per_round = NaN, making
        // can_spend() permanently false without tripping new()'s assert.
        assert!(RoundBudget::try_from_decode_fps(870.0, f64::NAN).is_err());
        assert!(RoundBudget::try_from_decode_fps(f64::NAN, 1.0).is_err());
        // ∞ × 0 = NaN sneaks past a product-only check; inputs must be
        // validated individually.
        assert!(RoundBudget::try_from_decode_fps(f64::INFINITY, 0.0).is_err());
        assert!(RoundBudget::try_from_decode_fps(870.0, -1.0).is_err());
        assert!(RoundBudget::try_from_decode_fps(-870.0, 1.0).is_err());
        // Valid inputs still go through.
        let b = RoundBudget::try_from_decode_fps(870.0, 1.0).expect("valid");
        assert!(b.per_round > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid decode budget")]
    fn from_decode_fps_panics_on_nan_cost() {
        let _ = RoundBudget::from_decode_fps(870.0, f64::NAN);
    }
}
