//! A [`GatePolicy`] decorator that observes the policy from outside.
//!
//! It implements only `name`, `select` and `feedback`. Every rep it stamps
//! when each decision came out and re-derives, from the candidates and the
//! returned priority order alone, what the runtime's budget rule will
//! spend; the rep's report must then agree with that sum. Span boundaries,
//! feedback lag and the thread census are taken in traced reps only.

use std::time::Instant;

use crate::inputs::Digest;
use crate::procfs;
use crate::source::ns_since;
use crate::spans::{Span, SpanBuf, Track};
use crate::surface::{FeedbackEvent, GatePolicy, PacketContext};

/// Tolerance when comparing sums of decode costs. The runtime and this
/// decorator add the same costs in different orders, so a spend that lands
/// exactly on the budget may stop one closure apart; [`GateLog::spend`]
/// brackets both outcomes.
pub const COST_EPS: f64 = 1e-6;

/// What the decorator saw over one rep.
pub struct GateLog {
    /// When `select(r)` returned, nanoseconds since the rep's epoch.
    pub select_out_ns: Vec<u64>,
    /// Candidates offered in round r.
    pub candidates: Vec<u32>,
    /// What the budget rule spends on round r's selection: `(low, high)`,
    /// equal unless a prefix of the selection lands on the budget to
    /// within [`COST_EPS`].
    pub spend: Vec<(f64, f64)>,
    /// Streams the budget rule dispatches, over all rounds: `(low, high)`.
    pub kept: (u64, u64),
    /// Largest `spend − budget` over the rounds, in cost units.
    pub overshoot_max: f64,
    /// Rounds whose overshoot exceeded the last dispatched closure
    /// (Lemma 1 allows exactly one).
    pub contract_breaks: u64,
    /// FNV-1a over every round's selection, in order.
    pub digest: Digest,
    /// Feedback events delivered, and the sum of their lags in rounds
    /// (round about to be decided minus the event's round).
    pub feedback_events: u64,
    pub feedback_lag_sum: u64,
    /// Traced reps: time inside `select`, per round.
    pub select_ns: Vec<u64>,
    /// Traced reps: total time inside `feedback`.
    pub feedback_ns: u64,
    /// Traced reps: live threads and context switches a quarter and three
    /// quarters of the way through, while every stage thread is alive (the
    /// kernel forgets a thread's switches when it exits).
    pub census_first: Option<(u64, u64)>,
    pub census_last: Option<(u64, u64)>,
    pub spans: Option<SpanBuf>,
}

/// The two rounds at which a traced rep takes its thread census.
pub fn census_rounds(rounds: u64) -> (u64, u64) {
    (rounds / 4, (3 * rounds / 4).max(rounds / 4 + 1))
}

/// The decorator. `G` is the policy under test.
pub struct TimedGate<G: GatePolicy> {
    inner: G,
    epoch: Instant,
    rounds: u64,
    /// Pending cost per stream for the round being decided; NaN marks "no
    /// candidate" and "already dispatched".
    cost_of: Vec<f64>,
    log: GateLog,
}

impl<G: GatePolicy> TimedGate<G> {
    pub fn new(inner: G, epoch: Instant, streams: usize, rounds: u64, traced: bool) -> Self {
        let r = rounds as usize;
        TimedGate {
            inner,
            epoch,
            rounds,
            cost_of: vec![f64::NAN; streams],
            log: GateLog {
                select_out_ns: Vec::with_capacity(r),
                candidates: Vec::with_capacity(r),
                spend: Vec::with_capacity(r),
                kept: (0, 0),
                overshoot_max: 0.0,
                contract_breaks: 0,
                digest: Digest::new(),
                feedback_events: 0,
                feedback_lag_sum: 0,
                select_ns: Vec::with_capacity(if traced { r } else { 0 }),
                feedback_ns: 0,
                census_first: None,
                census_last: None,
                // One select and at most one feedback span per round.
                spans: traced.then(|| SpanBuf::with_capacity(2 * r + 2)),
            },
        }
    }

    pub fn into_log(self) -> GateLog {
        self.log
    }

    /// Replay the runtime's budget rule on `selection`: entries are taken
    /// in order while the spend is strictly below the budget; unknown,
    /// duplicate and candidate-less entries are skipped.
    fn account(
        &mut self,
        round: u64,
        candidates: &[PacketContext],
        budget: f64,
        selection: &[usize],
    ) {
        self.cost_of.fill(f64::NAN);
        for c in candidates {
            if let Some(slot) = self.cost_of.get_mut(c.stream_idx) {
                *slot = c.pending_cost;
            }
        }
        // `low` stops as soon as the spend is within rounding of the
        // budget, `high` only once it is clearly past it.
        let (mut low, mut high, mut last) = (0.0f64, 0.0f64, 0.0f64);
        self.log.digest.word(round);
        for &idx in selection {
            self.log.digest.word(idx as u64);
            let Some(cost) = self.cost_of.get(idx).copied().filter(|c| !c.is_nan()) else {
                continue;
            };
            self.cost_of[idx] = f64::NAN;
            if low < budget - COST_EPS {
                low += cost;
                self.log.kept.0 += 1;
            }
            if high < budget + COST_EPS {
                high += cost;
                last = cost;
                self.log.kept.1 += 1;
            }
        }
        let overshoot = (high - budget).max(0.0);
        self.log.overshoot_max = self.log.overshoot_max.max(overshoot);
        if overshoot > last + COST_EPS {
            self.log.contract_breaks += 1;
        }
        self.log.candidates.push(candidates.len() as u32);
        self.log.spend.push((low, high));
    }
}

impl<G: GatePolicy> GatePolicy for TimedGate<G> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, round: u64, candidates: &[PacketContext], budget: f64) -> Vec<usize> {
        let traced = self.log.spans.is_some();
        let t_in = traced.then(Instant::now);
        let selection = self.inner.select(round, candidates, budget);
        let t_out = Instant::now();
        let out_ns = ns_since(self.epoch, t_out);
        self.log.select_out_ns.push(out_ns);
        if let (Some(t_in), Some(spans)) = (t_in, &mut self.log.spans) {
            let in_ns = ns_since(self.epoch, t_in);
            self.log.select_ns.push(out_ns - in_ns);
            spans.push(Span {
                name: "gate.select",
                track: Track::Gate,
                start_ns: in_ns,
                end_ns: out_ns,
                round,
            });
            let (first, last) = census_rounds(self.rounds);
            if round == first {
                self.log.census_first = Some(procfs::threads_and_ctx_switches());
            } else if round == last {
                self.log.census_last = Some(procfs::threads_and_ctx_switches());
            }
        }
        self.account(round, candidates, budget, &selection);
        selection
    }

    fn feedback(&mut self, events: &[FeedbackEvent]) {
        let t_in = self.log.spans.is_some().then(Instant::now);
        self.inner.feedback(events);
        // The next decision is for the round after the last one decided.
        let deciding = self.log.select_out_ns.len() as u64;
        self.log.feedback_events += events.len() as u64;
        self.log.feedback_lag_sum += events
            .iter()
            .map(|e| deciding.saturating_sub(e.round))
            .sum::<u64>();
        if let (Some(t_in), Some(spans)) = (t_in, &mut self.log.spans) {
            let (start_ns, end_ns) = (
                ns_since(self.epoch, t_in),
                ns_since(self.epoch, Instant::now()),
            );
            self.log.feedback_ns += end_ns - start_ns;
            if !events.is_empty() {
                spans.push(Span {
                    name: "gate.feedback",
                    track: Track::Gate,
                    start_ns,
                    end_ns,
                    round: deciding,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{Codec, RandomGate};

    fn ctx(stream_idx: usize, pending_cost: f64) -> PacketContext {
        let meta = {
            // Build one real packet's metadata through the public encoder
            // path: a parsed chunk of a tiny generated input.
            let enc = crate::surface::EncoderConfig::new(Codec::H264);
            let inputs = crate::inputs::Inputs::generate(
                crate::surface::TaskKind::AnomalyDetection,
                enc,
                1,
                1,
                1,
            );
            let mut parser = crate::surface::PacketParser::new();
            parser.push_shared(inputs.headers[0].clone());
            parser.push_shared(inputs.chunk(0, 0).clone());
            parser
                .next_packet()
                .expect("clean input parses")
                .expect("one packet")
                .meta
        };
        PacketContext {
            stream_idx,
            meta,
            pending_cost,
            codec: Codec::H264,
            oracle_necessary: None,
        }
    }

    /// A policy that returns a fixed priority order.
    struct Fixed(Vec<usize>);
    impl GatePolicy for Fixed {
        fn name(&self) -> &'static str {
            "Fixed"
        }
        fn select(&mut self, _: u64, _: &[PacketContext], _: f64) -> Vec<usize> {
            self.0.clone()
        }
        fn feedback(&mut self, _: &[FeedbackEvent]) {}
    }

    #[test]
    fn budget_rule_is_replayed_like_the_runtime() {
        let candidates = [ctx(0, 2.0), ctx(1, 3.0), ctx(3, 1.0)];
        // 9 is out of range, 2 has no candidate, the second 0 is a
        // duplicate; budget 4 admits 0 (2.0) and 1 (→ 5.0), then stops.
        let order = vec![9, 0, 2, 0, 1, 3];
        let mut gate = TimedGate::new(Fixed(order.clone()), Instant::now(), 4, 1, false);
        assert_eq!(gate.select(0, &candidates, 4.0), order);
        let log = gate.into_log();
        assert_eq!(log.spend, vec![(5.0, 5.0)]);
        assert_eq!(log.kept, (2, 2));
        assert_eq!(log.candidates, vec![3]);
        assert_eq!(log.overshoot_max, 1.0);
        assert_eq!(
            log.contract_breaks, 0,
            "one closure of overshoot is allowed"
        );
        assert_eq!(log.select_out_ns.len(), 1);
        assert!(log.spans.is_none() && log.select_ns.is_empty());
    }

    #[test]
    fn a_spend_that_lands_on_the_budget_is_bracketed() {
        // 2.0 + 2.0 hits the budget exactly: the runtime, adding the same
        // costs in another order, may or may not take the third closure.
        let candidates = [ctx(0, 2.0), ctx(1, 2.0), ctx(2, 3.0)];
        let mut gate = TimedGate::new(Fixed(vec![0, 1, 2]), Instant::now(), 3, 1, false);
        gate.select(0, &candidates, 4.0);
        let log = gate.into_log();
        assert_eq!(log.spend, vec![(4.0, 7.0)]);
        assert_eq!(log.kept, (2, 3));
        assert_eq!(log.contract_breaks, 0);
    }

    #[test]
    fn digest_depends_on_the_decisions_only() {
        let candidates = [ctx(0, 1.0), ctx(1, 1.0), ctx(2, 1.0)];
        let run = |seed: u64, traced: bool| {
            let mut gate = TimedGate::new(RandomGate::new(seed), Instant::now(), 3, 5, traced);
            for round in 0..5 {
                gate.select(round, &candidates, 2.0);
                gate.feedback(&[FeedbackEvent {
                    stream_idx: 0,
                    round,
                    necessary: true,
                }]);
            }
            gate.into_log()
        };
        let (a, b, c) = (run(4, false), run(4, true), run(5, false));
        assert_eq!(
            a.digest, b.digest,
            "same seed, same decisions, traced or not"
        );
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.feedback_events, 5);
        // Feedback for round r arrives while round r+1 is being decided.
        assert_eq!(a.feedback_lag_sum, 5);
        let spans = b.spans.expect("traced").into_spans().0;
        assert_eq!(spans.iter().filter(|s| s.name == "gate.select").count(), 5);
        assert_eq!(
            spans.iter().filter(|s| s.name == "gate.feedback").count(),
            5
        );
        assert_eq!(b.select_ns.len(), 5);
        assert!(b.census_first.is_some() && b.census_last.is_some());
    }
}
