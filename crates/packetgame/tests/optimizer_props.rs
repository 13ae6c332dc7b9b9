//! Property tests for the combinatorial optimizer (paper §5.3, Lemma 1).
//!
//! Three families of properties:
//!
//! 1. **Budget discipline** — the greedy walk adds items only while strictly
//!    under budget, so dropping the final (possibly-overshooting) item must
//!    always bring the spend back under the budget.
//! 2. **Lemma 1 vs brute force** — on instances small enough to enumerate
//!    (≤ 12 packets), the greedy value is at least `(1 − c/B)` of the exact
//!    0/1 optimum, where `c` is the maximal item cost. The fractional
//!    optimum upper-bounds the 0/1 optimum, so the bound is checked against
//!    both.
//! 3. **GOP dependency closure** — for packets from a real encoded stream
//!    with an arbitrary (reference-consistent) decode history, the pending
//!    closure the optimizer prices is sorted in decode order, contains the
//!    target, contains no already-decoded frame, satisfies every reference
//!    internally, and its cost is exactly the sum of its members' costs.

use packetgame::optimizer::{CombinatorialOptimizer, Item};
use packetgame::theory::{fractional_optimum, greedy_value, lemma1_bound};
use pg_codec::{Codec, CostModel, DependencyTracker, Encoder, EncoderConfig, Packet};
use pg_scene::{PersonSceneGen, SceneGenerator};
use proptest::prelude::*;

fn build_items(values: &[f64], costs: &[f64]) -> Vec<Item> {
    values
        .iter()
        .zip(costs)
        .enumerate()
        .map(|(idx, (&confidence, &cost))| Item {
            idx,
            confidence,
            cost,
        })
        .collect()
}

/// Exact 0/1 knapsack optimum by subset enumeration (n ≤ 12 ⇒ ≤ 4096
/// subsets — cheap enough for a property test).
fn brute_force_optimum(items: &[Item], budget: f64) -> f64 {
    let n = items.len();
    assert!(n <= 12, "enumeration only meant for tiny instances");
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let mut cost = 0.0;
        let mut value = 0.0;
        for (i, it) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                cost += it.cost;
                value += it.confidence;
            }
        }
        if cost <= budget && value > best {
            best = value;
        }
    }
    best
}

/// Encode `n` frames and replay a reference-consistent decode history:
/// frame `i` is decoded iff `wants[i]` *and* all its references are already
/// decoded (mirroring a decoder that refuses broken references).
fn tracked_stream(
    gop: u32,
    b_frames: u32,
    n: usize,
    seed: u64,
    wants: &[bool],
) -> (DependencyTracker, Vec<Packet>) {
    let config = EncoderConfig::new(Codec::H264)
        .with_gop(gop)
        .with_b_frames(b_frames);
    let mut enc = Encoder::new(config, seed);
    let mut scene = PersonSceneGen::new(seed, 25.0);
    let packets: Vec<Packet> = (0..n).map(|_| enc.encode(&scene.next_frame())).collect();
    let mut tracker = DependencyTracker::new();
    for p in &packets {
        tracker.note_arrival(p);
    }
    for (i, p) in packets.iter().enumerate() {
        let decodable = p.refs.iter().all(|&r| tracker.is_decoded(r));
        if wants.get(i).copied().unwrap_or(false) && decodable {
            tracker.mark_decoded(p.meta.seq);
        }
    }
    (tracker, packets)
}

proptest! {
    /// Dropping the last selected item always lands strictly under budget,
    /// and the reported spend is exactly the sum of selected costs.
    #[test]
    fn budget_is_respected_up_to_one_overshoot(
        values in proptest::collection::vec(0.0f64..1.0, 1..25),
        costs in proptest::collection::vec(0.05f64..4.0, 1..25),
        budget in 0.5f64..12.0,
    ) {
        let n = values.len().min(costs.len());
        let items = build_items(&values[..n], &costs[..n]);
        let opt = CombinatorialOptimizer;
        let (selection, spent) = opt.select(&items, budget);

        // No duplicates, every idx valid.
        let mut seen = std::collections::HashSet::new();
        for &idx in &selection {
            prop_assert!(idx < n, "selected unknown idx {idx}");
            prop_assert!(seen.insert(idx), "idx {idx} selected twice");
        }

        let cost_of = |sel: &[usize]| -> f64 {
            sel.iter().map(|&i| items[i].cost).sum()
        };
        prop_assert!((spent - cost_of(&selection)).abs() < 1e-9);

        if !selection.is_empty() {
            let without_last = &selection[..selection.len() - 1];
            prop_assert!(
                cost_of(without_last) < budget,
                "all-but-last cost {} must stay under budget {}",
                cost_of(without_last),
                budget
            );
        }
    }

    /// Lemma 1 against the exact optimum on enumerable instances:
    /// greedy ≥ (1 − c/B) · OPT, with OPT from brute force (0/1) and its
    /// fractional upper bound.
    #[test]
    fn lemma1_holds_against_brute_force(
        values in proptest::collection::vec(0.01f64..1.0, 1..12),
        costs in proptest::collection::vec(0.1f64..3.0, 1..12),
        budget in 0.5f64..8.0,
    ) {
        let n = values.len().min(costs.len());
        let items = build_items(&values[..n], &costs[..n]);
        let greedy = greedy_value(&items, budget);
        let bound = lemma1_bound(&items, budget);

        let opt_strict = brute_force_optimum(&items, budget);
        prop_assert!(
            greedy >= bound * opt_strict - 1e-9,
            "greedy {} < bound {} x strict OPT {}",
            greedy, bound, opt_strict
        );

        let opt_frac = fractional_optimum(&items, budget);
        prop_assert!(
            opt_frac >= opt_strict - 1e-9,
            "fractional {} must upper-bound strict {}",
            opt_frac, opt_strict
        );
        prop_assert!(
            greedy >= bound * opt_frac - 1e-9,
            "greedy {} < bound {} x fractional OPT {}",
            greedy, bound, opt_frac
        );
    }

    /// The dependency closure the optimizer prices is well-formed: decode
    /// order, target-terminated, reference-complete, undecoded-only, and
    /// priced as the exact sum of its members' frame costs.
    #[test]
    fn gop_closure_is_consistent_and_sufficient(
        gop in 4u32..26,
        b_frames in 0u32..3,
        seed in 0u64..1000,
        want_bits in proptest::collection::vec(0u8..2, 40),
    ) {
        let wants: Vec<bool> = want_bits.iter().map(|&b| b == 1).collect();
        let n = wants.len();
        let (mut tracker, packets) = tracked_stream(gop, b_frames, n, seed, &wants);
        let costs = CostModel::default();
        let refs_of: std::collections::HashMap<u64, Vec<u64>> = packets
            .iter()
            .map(|p| (p.meta.seq, p.refs.to_vec()))
            .collect();

        let mut checked = 0usize;
        for p in &packets {
            let seq = p.meta.seq;
            if !tracker.knows(seq) {
                continue; // pruned: older than the 2-GOP retention window
            }
            checked += 1;
            let closure = tracker.pending_closure(seq);
            prop_assert!(closure.is_some(), "tracked packet {seq} must have a closure");
            let closure = closure.unwrap();

            // Decode order, ending at the target.
            prop_assert!(
                closure.windows(2).all(|w| w[0] < w[1]),
                "closure {closure:?} not strictly ascending"
            );
            prop_assert_eq!(*closure.last().unwrap(), seq);

            // Only undecoded work is pending (the target itself may be a
            // decoded frame being re-queried).
            for &s in &closure {
                if s != seq {
                    prop_assert!(
                        !tracker.is_decoded(s),
                        "decoded frame {s} must not appear in the closure of {seq}"
                    );
                }
            }

            // Sufficiency: every member's references are satisfied either
            // by the decode history or by an earlier closure member.
            for &s in &closure {
                for r in &refs_of[&s] {
                    let in_closure = closure.binary_search(r).is_ok();
                    prop_assert!(
                        tracker.is_decoded(*r) || in_closure,
                        "ref {r} of {s} neither decoded nor scheduled in {closure:?}"
                    );
                    if in_closure {
                        prop_assert!(*r < s, "ref {r} scheduled after {s}");
                    }
                }
            }

            // The priced cost is exactly the closure's summed frame costs.
            let expect: f64 = closure
                .iter()
                .map(|&s| costs.cost(tracker.frame_type(s).unwrap()))
                .sum();
            let got = tracker.pending_cost(seq, &costs).unwrap();
            prop_assert!(
                (got - expect).abs() < 1e-9,
                "pending cost {got} != closure sum {expect}"
            );
        }
        // The retention window always covers the newest GOP.
        prop_assert!(checked >= (gop as usize).min(n), "only {checked} packets tracked");
    }
}
