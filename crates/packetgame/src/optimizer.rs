//! Combinatorial optimizer (paper §5.3).
//!
//! Given per-stream gating confidences and (dependency-closure) decode
//! costs, select packets under the budget by greedy confidence-per-cost
//! ratio — an approximately-fractional knapsack with approximation ratio
//! `1 − c/B` (Lemma 1, verified empirically in [`crate::theory`]).
//! Complexity is `O(m log m)` per round (the sort), giving the linear
//! scalability the paper requires for 1000+ streams.
//!
//! When a [`Telemetry`] handle is attached to the gate,
//! [`CombinatorialOptimizer::select_audited`] additionally records one
//! [`GateAuditEntry`] per candidate — kept or dropped, with the confidence
//! and closure cost that drove the decision.

use pg_pipeline::insight::SelectionEntry;
use pg_pipeline::telemetry::{AuditReason, GateAuditEntry, Telemetry};

/// One candidate item for the knapsack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Caller-side identifier (stream index).
    pub idx: usize,
    /// Gating confidence (value), ≥ 0.
    pub confidence: f64,
    /// Decode cost including the dependency closure, > 0.
    pub cost: f64,
}

/// Reusable per-round buffers for [`CombinatorialOptimizer`]: the
/// priority-order permutation, the insight selection entries, and the
/// selected indices. Grow-only — a caller that holds one across rounds
/// (as the gate does) makes steady-state selection allocation-free.
#[derive(Debug, Default)]
pub struct SelectScratch {
    /// Positions into the `items` slice, sorted by priority.
    order: Vec<usize>,
    entries: Vec<SelectionEntry>,
    selected: Vec<usize>,
}

impl SelectScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        SelectScratch::default()
    }

    /// The selection produced by the last `select*_with` call: item `idx`s
    /// in priority order.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }
}

/// The greedy ratio optimizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct CombinatorialOptimizer;

/// Sort `order` (positions into `items`) by descending confidence/cost
/// ratio, ties broken by lower cost then lower index for determinism.
fn sort_by_priority(items: &[Item], order: &mut [usize]) {
    order.sort_by(|&a, &b| {
        let ra = ratio(&items[a]);
        let rb = ratio(&items[b]);
        rb.partial_cmp(&ra)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                items[a]
                    .cost
                    .partial_cmp(&items[b].cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| items[a].idx.cmp(&items[b].idx))
    });
}

impl CombinatorialOptimizer {
    /// Full priority order: items sorted by descending confidence/cost
    /// ratio (ties broken by lower cost, then lower index for
    /// determinism). The caller walks this order charging costs until the
    /// budget is exhausted. Allocating convenience wrapper; the hot path
    /// sorts inside [`SelectScratch`] instead.
    pub fn priority_order(&self, items: &[Item]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..items.len()).collect();
        sort_by_priority(items, &mut order);
        order.into_iter().map(|i| items[i].idx).collect()
    }

    /// Greedy selection under `budget` (Alg. 1 lines 7–12): walk the
    /// priority order, adding items while the running cost is strictly
    /// below the budget — the final item may overshoot (the
    /// approximately-fractional model). Returns selected `idx`s in
    /// priority order and the total cost charged.
    ///
    /// Allocating wrapper over [`CombinatorialOptimizer::select_with`].
    pub fn select(&self, items: &[Item], budget: f64) -> (Vec<usize>, f64) {
        let mut scratch = SelectScratch::new();
        let spent = self.select_inner(items, budget, 0, None, &mut scratch);
        (scratch.selected, spent)
    }

    /// [`CombinatorialOptimizer::select`] plus gate-decision auditing:
    /// every candidate is recorded in `telemetry`'s audit ring with its
    /// confidence, cost and kept/dropped reason. Greedy walks the whole
    /// priority order, so every dropped candidate was dropped because the
    /// budget ran out before its turn.
    ///
    /// Allocating wrapper over
    /// [`CombinatorialOptimizer::select_audited_with`].
    pub fn select_audited(
        &self,
        items: &[Item],
        budget: f64,
        round: u64,
        telemetry: &Telemetry,
    ) -> (Vec<usize>, f64) {
        let mut scratch = SelectScratch::new();
        let spent = self.select_inner(items, budget, round, Some(telemetry), &mut scratch);
        (scratch.selected, spent)
    }

    /// [`CombinatorialOptimizer::select`] into caller-owned scratch: the
    /// selection lands in [`SelectScratch::selected`] and the total cost
    /// charged is returned. No heap allocation once the scratch has grown
    /// to the round's candidate count.
    pub fn select_with(&self, items: &[Item], budget: f64, scratch: &mut SelectScratch) -> f64 {
        self.select_inner(items, budget, 0, None, scratch)
    }

    /// [`CombinatorialOptimizer::select_audited`] into caller-owned
    /// scratch (audit entries go to the telemetry ring, which never
    /// allocates on record).
    pub fn select_audited_with(
        &self,
        items: &[Item],
        budget: f64,
        round: u64,
        telemetry: &Telemetry,
        scratch: &mut SelectScratch,
    ) -> f64 {
        self.select_inner(items, budget, round, Some(telemetry), scratch)
    }

    fn select_inner(
        &self,
        items: &[Item],
        budget: f64,
        round: u64,
        telemetry: Option<&Telemetry>,
        scratch: &mut SelectScratch,
    ) -> f64 {
        scratch.order.clear();
        scratch.order.extend(0..items.len());
        sort_by_priority(items, &mut scratch.order);
        scratch.entries.clear();
        scratch.selected.clear();
        let insight = telemetry.map(Telemetry::insight).filter(|i| i.is_enabled());
        let mut spent = 0.0f64;
        for k in 0..scratch.order.len() {
            let item = &items[scratch.order[k]];
            let kept = spent < budget;
            if let Some(t) = telemetry {
                t.audit(GateAuditEntry {
                    stream_idx: item.idx,
                    round,
                    confidence: item.confidence,
                    cost: item.cost,
                    kept,
                    reason: if kept {
                        AuditReason::Selected
                    } else {
                        AuditReason::BudgetExhausted
                    },
                });
            }
            if insight.is_some() {
                scratch.entries.push(SelectionEntry {
                    value: item.confidence,
                    cost: item.cost,
                    kept,
                });
            }
            if !kept {
                if telemetry.is_none() {
                    break; // nothing left to record; the walk is done
                }
                continue;
            }
            scratch.selected.push(item.idx);
            spent += item.cost;
        }
        if let Some(ins) = insight {
            // Feed the Lemma-1 slack gauge: realized value vs the
            // fractional-knapsack bound over this round's candidates.
            ins.record_selection(round, budget, &scratch.entries);
        }
        spent
    }

    /// Total value (sum of confidences) of a selection.
    pub fn value_of(items: &[Item], selection: &[usize]) -> f64 {
        let by_idx: std::collections::HashMap<usize, &Item> =
            items.iter().map(|it| (it.idx, it)).collect();
        selection
            .iter()
            .filter_map(|i| by_idx.get(i))
            .map(|it| it.confidence)
            .sum()
    }
}

fn ratio(item: &Item) -> f64 {
    item.confidence / item.cost.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(idx: usize, confidence: f64, cost: f64) -> Item {
        Item {
            idx,
            confidence,
            cost,
        }
    }

    #[test]
    fn orders_by_ratio() {
        let opt = CombinatorialOptimizer;
        let items = vec![
            item(0, 0.9, 3.0), // ratio 0.30
            item(1, 0.5, 1.0), // ratio 0.50
            item(2, 0.1, 1.0), // ratio 0.10
        ];
        assert_eq!(opt.priority_order(&items), vec![1, 0, 2]);
    }

    #[test]
    fn selection_respects_budget_with_one_overshoot() {
        let opt = CombinatorialOptimizer;
        let items = vec![
            item(0, 1.0, 2.0),
            item(1, 0.9, 2.0),
            item(2, 0.8, 2.0),
            item(3, 0.7, 2.0),
        ];
        let (sel, spent) = opt.select(&items, 5.0);
        // 2.0 + 2.0 = 4.0 < 5.0, third item overshoots to 6.0, fourth not taken.
        assert_eq!(sel, vec![0, 1, 2]);
        assert!((spent - 6.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let opt = CombinatorialOptimizer;
        let items = vec![item(0, 1.0, 1.0)];
        let (sel, spent) = opt.select(&items, 0.0);
        assert!(sel.is_empty());
        assert_eq!(spent, 0.0);
    }

    #[test]
    fn ties_broken_by_cost_then_idx() {
        let opt = CombinatorialOptimizer;
        let items = vec![
            item(5, 0.6, 2.0), // ratio 0.3
            item(2, 0.3, 1.0), // ratio 0.3, cheaper
            item(1, 0.3, 1.0), // ratio 0.3, cheaper, smaller idx
        ];
        assert_eq!(opt.priority_order(&items), vec![1, 2, 5]);
    }

    #[test]
    fn deterministic_under_permutation() {
        let opt = CombinatorialOptimizer;
        let a = vec![item(0, 0.2, 1.0), item(1, 0.9, 2.9), item(2, 0.5, 1.0)];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(opt.priority_order(&a), opt.priority_order(&b));
    }

    #[test]
    fn value_of_sums_selected_confidences() {
        let items = vec![item(0, 0.2, 1.0), item(1, 0.9, 1.0)];
        assert!((CombinatorialOptimizer::value_of(&items, &[1]) - 0.9).abs() < 1e-9);
        assert!((CombinatorialOptimizer::value_of(&items, &[0, 1]) - 1.1).abs() < 1e-9);
    }

    #[test]
    fn nan_confidence_does_not_poison_order() {
        let opt = CombinatorialOptimizer;
        let items = vec![item(0, f64::NAN, 1.0), item(1, 0.9, 1.0), item(2, 0.1, 1.0)];
        let order = opt.priority_order(&items);
        assert_eq!(order.len(), 3);
        // The finite-ratio items must keep their relative order.
        let pos1 = order.iter().position(|&i| i == 1).unwrap();
        let pos2 = order.iter().position(|&i| i == 2).unwrap();
        assert!(pos1 < pos2);
    }

    #[test]
    fn scales_to_many_items() {
        let opt = CombinatorialOptimizer;
        let items: Vec<Item> = (0..10_000)
            .map(|i| item(i, (i % 97) as f64 / 97.0, 1.0 + (i % 3) as f64))
            .collect();
        let start = std::time::Instant::now();
        let (sel, _) = opt.select(&items, 500.0);
        assert!(!sel.is_empty());
        assert!(
            start.elapsed() < std::time::Duration::from_millis(100),
            "10k-item selection took {:?}",
            start.elapsed()
        );
    }
}
