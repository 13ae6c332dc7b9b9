//! GOP decode-dependency tracking (paper Fig. 6).
//!
//! The *actual* cost of decoding a packet depends on previous gating
//! decisions: if its references were skipped, they must be decoded first
//! (transitively, back to the nearest already-decoded frame or the GOP's
//! I frame). This module tracks, per stream, which recent packets arrived
//! and which were decoded, and answers two queries the optimizer needs:
//!
//! * [`DependencyTracker::pending_closure`] — the undecoded transitive
//!   dependency set of a packet (including itself), in decode order;
//! * [`DependencyTracker::pending_cost`] — the total cost of that closure.
//!
//! The paper's Fig. 6 examples map directly onto these queries: a B packet
//! whose GOP-opening I was skipped costs `1I + 1B + 1P`; an I packet always
//! costs `1I`; a P packet three places behind the last decoded P costs `2P`
//! (its own P plus the skipped one in between... traced transitively).
//!
//! # The window
//!
//! Everything a stream remembers per packet lives in a [`GopRing`]: a
//! sequence-sorted ring holding the current and the previous GOP. The
//! tracker keeps its bookkeeping entries in one; [`Decoder`](crate::Decoder)
//! keeps its arrived [`Packet`]s in another, fed the same arrivals, so the
//! two always hold the same sequence numbers.
//! The optimizer asks for every stream's pending cost every round, so the
//! queries are written to touch neither the allocator nor a hasher in
//! steady state: lookups are an index probe (binary search only when
//! arrivals left gaps), the closure's visited set is a bitmap over window
//! positions, and bitmap and stack are scratch the tracker owns and reuses.
//! [`DependencyTracker::closure_into`] writes into a caller's buffer;
//! [`DependencyTracker::pending_closure`] is the owned-`Vec` convenience
//! over the same walk.

use std::collections::VecDeque;

use crate::cost::CostModel;
use crate::frame::FrameType;
use crate::packet::{Packet, RefList};

/// Hard bound on the entries one [`GopRing`] holds. GOP pruning needs a
/// *larger* GOP id to arrive; one framed-but-damaged record with a huge id
/// sets the high-water mark and disables it for the rest of the run. The
/// cap is far above two honest GOPs (encoders here use GOPs of 8–300), so
/// clean input never reaches it; damaged input loses its oldest entry per
/// arrival instead of growing without bound.
pub const WINDOW_CAP: usize = 4096;

/// What a [`GopRing`] reads off the values it holds.
pub trait WindowItem {
    /// Decode-order sequence number — the ring's sort key.
    fn seq(&self) -> u64;
    /// GOP the item belongs to — the ring's pruning key.
    fn gop_id(&self) -> u64;
}

impl WindowItem for Packet {
    fn seq(&self) -> u64 {
        self.meta.seq
    }
    fn gop_id(&self) -> u64 {
        self.meta.gop_id
    }
}

/// A stream's recent packets (or per-packet state), sorted by sequence
/// number, covering the current and the previous GOP.
///
/// Behaves like an ordered map keyed by sequence number: an arrival with
/// a sequence number already present **replaces** the old value (a
/// replayed record starts over), and out-of-order arrivals are inserted in
/// place. When an arrival raises the highest GOP id seen to `g`,
/// everything with a GOP id below `g − 1` is dropped — by a full sweep,
/// not from the front, so out-of-order or damaged GOP ids prune exactly
/// what their id says. Decode-order arrivals take the push-back path and
/// contiguous windows answer lookups with one index probe.
#[derive(Debug, Clone)]
pub struct GopRing<T> {
    /// Sorted by `seq`, no duplicates.
    slots: VecDeque<T>,
    newest_gop: u64,
}

impl<T> Default for GopRing<T> {
    fn default() -> Self {
        GopRing {
            slots: VecDeque::new(),
            newest_gop: 0,
        }
    }
}

impl<T: WindowItem> GopRing<T> {
    /// Empty ring. Grows with its content; nothing is reserved up front.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of items held (bounded by ~2 GOPs, and by [`WINDOW_CAP`]).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Record an arrival; see the type docs for the duplicate,
    /// out-of-order and pruning rules.
    pub fn insert(&mut self, item: T) {
        let (seq, gop) = (item.seq(), item.gop_id());
        if self.slots.back().is_none_or(|last| last.seq() < seq) {
            self.slots.push_back(item);
        } else {
            match self.slots.binary_search_by_key(&seq, T::seq) {
                Ok(pos) => self.slots[pos] = item,
                Err(pos) => self.slots.insert(pos, item),
            }
        }
        if gop > self.newest_gop {
            self.newest_gop = gop;
            let keep_from = gop.saturating_sub(1);
            self.slots.retain(|e| e.gop_id() >= keep_from);
        }
        if self.slots.len() > WINDOW_CAP {
            self.slots.pop_front();
        }
    }

    /// Window position of `seq`, if held. Positions ascend with `seq` and
    /// stay valid until the next [`insert`](Self::insert).
    pub fn position(&self, seq: u64) -> Option<usize> {
        let front = self.slots.front()?.seq();
        // Decode-order arrivals without loss sit at `seq − front`.
        if let Some(probe) = seq.checked_sub(front).and_then(|d| usize::try_from(d).ok()) {
            if self.slots.get(probe).is_some_and(|e| e.seq() == seq) {
                return Some(probe);
            }
        }
        self.slots.binary_search_by_key(&seq, T::seq).ok()
    }

    /// The item with sequence number `seq`, if held.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.position(seq).map(|pos| &self.slots[pos])
    }

    /// Mutable access to the item with sequence number `seq`, if held.
    /// The caller must leave its `seq` and `gop_id` unchanged.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        self.position(seq).map(|pos| &mut self.slots[pos])
    }
}

impl<T> std::ops::Index<usize> for GopRing<T> {
    type Output = T;
    /// The item at a window position (see [`GopRing::position`]).
    fn index(&self, pos: usize) -> &T {
        &self.slots[pos]
    }
}

/// Per-packet bookkeeping entry.
#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    gop_id: u64,
    refs: RefList,
    frame_type: FrameType,
    decoded: bool,
}

impl WindowItem for Entry {
    fn seq(&self) -> u64 {
        self.seq
    }
    fn gop_id(&self) -> u64 {
        self.gop_id
    }
}

/// Reused working memory of the closure walk.
#[derive(Debug, Clone, Default)]
struct ClosureScratch {
    /// Window positions still to visit.
    stack: Vec<usize>,
    /// Visited set: one bit per window position. After a successful walk
    /// its set bits are exactly the closure, in ascending sequence order.
    visited: Vec<u64>,
}

impl ClosureScratch {
    /// Window positions of the closure found by the last walk, ascending.
    fn members(&self) -> impl Iterator<Item = usize> + '_ {
        self.visited.iter().enumerate().flat_map(|(word, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    word * 64 + bit
                })
            })
        })
    }
}

/// Tracks arrival and decode status of recent packets in one stream.
///
/// Old GOPs are pruned automatically: once a packet from GOP `g` arrives,
/// everything before GOP `g − 1` is dropped (no dependency can reach back
/// further than the previous GOP boundary in our closed-GOP model; in fact
/// dependencies never cross GOPs, but keeping one extra GOP makes the
/// pruning obviously safe).
///
/// The closure queries take `&mut self` only to reuse the tracker's own
/// scratch; they do not change what is tracked.
#[derive(Debug, Clone, Default)]
pub struct DependencyTracker {
    window: GopRing<Entry>,
    scratch: ClosureScratch,
}

impl DependencyTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `packet` arrived (not yet decoded).
    pub fn note_arrival(&mut self, packet: &Packet) {
        self.window.insert(Entry {
            seq: packet.meta.seq,
            gop_id: packet.meta.gop_id,
            refs: packet.refs.clone(),
            frame_type: packet.meta.frame_type,
            decoded: false,
        });
    }

    /// Mark a packet as decoded. Unknown packets are ignored (they may have
    /// been pruned).
    pub fn mark_decoded(&mut self, seq: u64) {
        if let Some(e) = self.window.get_mut(seq) {
            e.decoded = true;
        }
    }

    /// Whether `seq` is known and decoded.
    pub fn is_decoded(&self, seq: u64) -> bool {
        self.window.get(seq).is_some_and(|e| e.decoded)
    }

    /// Whether `seq` is known (arrived and not pruned).
    pub fn knows(&self, seq: u64) -> bool {
        self.window.position(seq).is_some()
    }

    /// Number of tracked packets (bounded by ~2 GOPs).
    pub fn tracked(&self) -> usize {
        self.window.len()
    }

    /// Walk the undecoded transitive dependency closure of `seq` into
    /// `scratch.visited`. `None` if `seq` or any undecoded transitive
    /// reference is not in the window.
    ///
    /// Explicit stack and visited set, so a damaged reference that points
    /// at its own packet or a later one cannot loop; decoded ancestors
    /// terminate the trace-back.
    fn walk(window: &GopRing<Entry>, scratch: &mut ClosureScratch, seq: u64) -> Option<()> {
        let ClosureScratch { stack, visited } = scratch;
        visited.clear();
        visited.resize(window.len().div_ceil(64), 0);
        stack.clear();
        stack.push(window.position(seq)?);
        while let Some(pos) = stack.pop() {
            let (word, bit) = (pos / 64, 1u64 << (pos % 64));
            if visited[word] & bit != 0 {
                continue;
            }
            visited[word] |= bit;
            for &r in &window[pos].refs {
                let ref_pos = window.position(r)?;
                if !window[ref_pos].decoded {
                    stack.push(ref_pos);
                }
            }
        }
        Some(())
    }

    /// Write the undecoded transitive dependency closure of `seq`,
    /// **including `seq` itself**, into `out` (cleared first), sorted in
    /// decode order (ascending sequence number). Returns `None`, leaving
    /// `out` empty, if `seq` is unknown or any transitive reference has
    /// been pruned while still undecoded (cannot happen in normal
    /// operation). Allocation-free once `out` has grown to closure size.
    pub fn closure_into(&mut self, seq: u64, out: &mut Vec<u64>) -> Option<()> {
        out.clear();
        Self::walk(&self.window, &mut self.scratch, seq)?;
        out.extend(self.scratch.members().map(|pos| self.window[pos].seq));
        Some(())
    }

    /// [`closure_into`](Self::closure_into) as an owned `Vec`.
    pub fn pending_closure(&mut self, seq: u64) -> Option<Vec<u64>> {
        let mut closure = Vec::new();
        self.closure_into(seq, &mut closure)?;
        Some(closure)
    }

    /// Total decode cost of [`pending_closure`](Self::pending_closure)
    /// under `costs`. Returns `None` when the closure is unavailable.
    ///
    /// Costs are summed in ascending sequence order. Float addition is not
    /// associative and the decoders charge a closure in that order, so any
    /// other order would move quoted costs — and with them budget ledgers
    /// and knapsack decisions — in their last bits.
    pub fn pending_cost(&mut self, seq: u64, costs: &CostModel) -> Option<f64> {
        Self::walk(&self.window, &mut self.scratch, seq)?;
        Some(
            self.scratch
                .members()
                .map(|pos| costs.cost(self.window[pos].frame_type))
                .sum(),
        )
    }

    /// Frame type of a tracked packet.
    pub fn frame_type(&self, seq: u64) -> Option<FrameType> {
        self.window.get(seq).map(|e| e.frame_type)
    }
}

/// The ordered-map tracker this module replaced, kept verbatim (only
/// `refs.clone()` became `refs.to_vec()`) as the model the differential
/// test compares [`DependencyTracker`] against.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, HashMap};

    use crate::cost::CostModel;
    use crate::frame::FrameType;
    use crate::packet::Packet;

    /// Per-packet bookkeeping entry.
    #[derive(Debug, Clone)]
    struct Entry {
        frame_type: FrameType,
        refs: Vec<u64>,
        gop_id: u64,
        decoded: bool,
    }

    /// Tracks arrival and decode status of recent packets in one stream.
    ///
    /// Old GOPs are pruned automatically: once a packet from GOP `g` arrives,
    /// everything before GOP `g − 1` is dropped (no dependency can reach back
    /// further than the previous GOP boundary in our closed-GOP model; in fact
    /// dependencies never cross GOPs, but keeping one extra GOP makes the
    /// pruning obviously safe).
    #[derive(Debug, Clone, Default)]
    pub struct DependencyTracker {
        entries: BTreeMap<u64, Entry>,
        newest_gop: u64,
    }

    impl DependencyTracker {
        /// Empty tracker.
        pub fn new() -> Self {
            Self::default()
        }

        /// Record that `packet` arrived (not yet decoded).
        pub fn note_arrival(&mut self, packet: &Packet) {
            self.entries.insert(
                packet.meta.seq,
                Entry {
                    frame_type: packet.meta.frame_type,
                    refs: packet.refs.to_vec(),
                    gop_id: packet.meta.gop_id,
                    decoded: false,
                },
            );
            if packet.meta.gop_id > self.newest_gop {
                self.newest_gop = packet.meta.gop_id;
                self.prune();
            }
        }

        /// Mark a packet as decoded. Unknown packets are ignored (they may have
        /// been pruned).
        pub fn mark_decoded(&mut self, seq: u64) {
            if let Some(e) = self.entries.get_mut(&seq) {
                e.decoded = true;
            }
        }

        /// Whether `seq` is known and decoded.
        pub fn is_decoded(&self, seq: u64) -> bool {
            self.entries.get(&seq).map(|e| e.decoded).unwrap_or(false)
        }

        /// Whether `seq` is known (arrived and not pruned).
        pub fn knows(&self, seq: u64) -> bool {
            self.entries.contains_key(&seq)
        }

        /// Number of tracked packets (bounded by ~2 GOPs).
        pub fn tracked(&self) -> usize {
            self.entries.len()
        }

        /// The undecoded transitive dependency closure of `seq`, **including
        /// `seq` itself**, sorted in decode order (ascending sequence number).
        /// Returns `None` if `seq` is unknown or any transitive reference has
        /// been pruned while still undecoded (cannot happen in normal operation).
        pub fn pending_closure(&self, seq: u64) -> Option<Vec<u64>> {
            let mut pending: HashMap<u64, bool> = HashMap::new();
            let mut stack = vec![seq];
            while let Some(s) = stack.pop() {
                if pending.contains_key(&s) {
                    continue;
                }
                let entry = self.entries.get(&s)?;
                if entry.decoded && s != seq {
                    // Decoded ancestors terminate the trace-back.
                    continue;
                }
                pending.insert(s, true);
                for &r in &entry.refs {
                    if !self.is_decoded(r) {
                        stack.push(r);
                    }
                }
            }
            let mut closure: Vec<u64> = pending.into_keys().collect();
            closure.sort_unstable();
            Some(closure)
        }

        /// Total decode cost of [`pending_closure`](Self::pending_closure)
        /// under `costs`. Returns `None` when the closure is unavailable.
        pub fn pending_cost(&self, seq: u64, costs: &CostModel) -> Option<f64> {
            let closure = self.pending_closure(seq)?;
            Some(
                closure
                    .iter()
                    .map(|s| costs.cost(self.entries[s].frame_type))
                    .sum(),
            )
        }

        /// Frame type of a tracked packet.
        pub fn frame_type(&self, seq: u64) -> Option<FrameType> {
            self.entries.get(&seq).map(|e| e.frame_type)
        }

        fn prune(&mut self) {
            let keep_from_gop = self.newest_gop.saturating_sub(1);
            self.entries.retain(|_, e| e.gop_id >= keep_from_gop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Codec, EncoderConfig};
    use crate::encoder::Encoder;
    use pg_scene::{PersonSceneGen, SceneGenerator};

    /// Encode an IPBBPBB… stream and ingest everything.
    fn setup(gop: u32, b: u32, n: usize) -> (DependencyTracker, Vec<Packet>) {
        let config = EncoderConfig::new(Codec::H264)
            .with_gop(gop)
            .with_b_frames(b);
        let mut enc = Encoder::new(config, 9);
        let mut scene = PersonSceneGen::new(9, 25.0);
        let packets: Vec<Packet> = (0..n).map(|_| enc.encode(&scene.next_frame())).collect();
        let mut tracker = DependencyTracker::new();
        for p in &packets {
            tracker.note_arrival(p);
        }
        (tracker, packets)
    }

    #[test]
    fn i_packet_closure_is_itself() {
        let (mut t, _) = setup(9, 2, 9);
        assert_eq!(t.pending_closure(0), Some(vec![0]));
        assert_eq!(t.pending_cost(0, &CostModel::default()), Some(32.0 / 11.0));
    }

    #[test]
    fn fig6_stream1_case_b_with_skipped_i() {
        // seq: 0=I 1=P 2=B ...; nothing decoded. Decoding B2 requires I0
        // and P1: cost = 1I + 1P + 1B.
        let (mut t, _) = setup(9, 2, 9);
        let costs = CostModel::default();
        assert_eq!(t.pending_closure(2), Some(vec![0, 1, 2]));
        let expect = costs.c_i + costs.c_p + costs.c_b;
        assert!((t.pending_cost(2, &costs).unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn fig6_stream2_case_i_has_no_dependency() {
        let (mut t, _) = setup(9, 2, 18);
        // Second GOP's I at seq 9.
        assert_eq!(t.pending_closure(9), Some(vec![9]));
    }

    #[test]
    fn fig6_stream3_case_trace_back_to_decoded_p() {
        // IPPPP… stream: decode P1; skip P2; cost of P3 = 2P (P2 + P3).
        let (mut t, _) = setup(10, 0, 10);
        t.mark_decoded(0);
        t.mark_decoded(1);
        let costs = CostModel::default();
        assert_eq!(t.pending_closure(3), Some(vec![2, 3]));
        assert!((t.pending_cost(3, &costs).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn decoded_references_drop_out_of_closure() {
        let (mut t, _) = setup(9, 2, 9);
        t.mark_decoded(0);
        t.mark_decoded(1);
        // B2 now only needs itself.
        assert_eq!(t.pending_closure(2), Some(vec![2]));
        assert_eq!(t.pending_cost(2, &CostModel::default()), Some(1.0));
    }

    #[test]
    fn closure_of_decoded_packet_is_itself() {
        // Re-requesting a decoded packet is the caller's business; the
        // closure still reports the packet itself.
        let (mut t, _) = setup(9, 2, 9);
        t.mark_decoded(0);
        assert_eq!(t.pending_closure(0), Some(vec![0]));
    }

    #[test]
    fn unknown_seq_yields_none() {
        let (mut t, _) = setup(9, 2, 9);
        assert_eq!(t.pending_closure(99), None);
        assert_eq!(t.pending_cost(99, &CostModel::default()), None);
    }

    #[test]
    fn pruning_bounds_memory() {
        let (t, _) = setup(10, 2, 500); // 50 GOPs
        assert!(
            t.tracked() <= 20,
            "tracker holds {} entries, expected ≤ 2 GOPs",
            t.tracked()
        );
    }

    #[test]
    fn long_p_chain_accumulates_cost() {
        // IPPPPPPPPP, nothing decoded: cost of P9 = 1I + 9P? No - trace back
        // to the I (undecoded): closure = 0..=9.
        let (mut t, _) = setup(10, 0, 10);
        let costs = CostModel::default();
        let closure = t.pending_closure(9).unwrap();
        assert_eq!(closure, (0..=9).collect::<Vec<u64>>());
        let expect = costs.c_i + 9.0 * costs.c_p;
        assert!((t.pending_cost(9, &costs).unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn closure_is_sorted_decode_order() {
        let (mut t, _) = setup(25, 2, 25);
        for seq in 0..25 {
            let c = t.pending_closure(seq).unwrap();
            assert!(c.windows(2).all(|w| w[0] < w[1]), "unsorted closure {c:?}");
            assert_eq!(*c.last().unwrap(), seq);
        }
    }

    fn entry(seq: u64, gop_id: u64) -> Entry {
        Entry {
            seq,
            gop_id,
            refs: RefList::new(),
            frame_type: FrameType::P,
            decoded: false,
        }
    }

    fn seqs(ring: &GopRing<Entry>) -> Vec<u64> {
        (0..ring.len()).map(|pos| ring[pos].seq).collect()
    }

    #[test]
    fn ring_sorts_out_of_order_arrivals_and_finds_them() {
        let mut ring = GopRing::new();
        for seq in [5, 9, 7, 2, 8] {
            ring.insert(entry(seq, 0));
        }
        assert_eq!(seqs(&ring), vec![2, 5, 7, 8, 9]);
        for (pos, seq) in [2u64, 5, 7, 8, 9].into_iter().enumerate() {
            assert_eq!(ring.position(seq), Some(pos));
        }
        for missing in [0, 3, 6, 10, u64::MAX] {
            assert_eq!(ring.position(missing), None);
        }
    }

    #[test]
    fn ring_replaces_a_duplicate_sequence_number() {
        let mut t = DependencyTracker::new();
        let (_, packets) = setup(9, 2, 3);
        for p in &packets {
            t.note_arrival(p);
        }
        t.mark_decoded(1);
        assert!(t.is_decoded(1));
        // A replayed record starts over: same slot, undecoded again.
        t.note_arrival(&packets[1]);
        assert_eq!(t.tracked(), 3);
        assert!(!t.is_decoded(1));
    }

    #[test]
    fn ring_prunes_by_gop_id_not_by_position() {
        let mut ring = GopRing::new();
        // Seq 1 carries a damaged (too new) GOP id in the middle of GOP 0.
        for (seq, gop) in [(0, 0), (1, 3), (2, 0), (3, 0)] {
            ring.insert(entry(seq, gop));
        }
        // GOP 3 pruned GOP 0's earlier entry; later GOP-0 arrivals stay,
        // because only a *larger* GOP id prunes.
        assert_eq!(seqs(&ring), vec![1, 2, 3]);
        ring.insert(entry(4, 4));
        assert_eq!(seqs(&ring), vec![1, 4]);
    }

    #[test]
    fn one_absurd_gop_id_cannot_grow_the_window_without_bound() {
        let (_, packets) = setup(10, 2, 50_000);
        let mut t = DependencyTracker::new();
        for (k, p) in packets.iter().enumerate() {
            let mut p = p.clone();
            if k == 100 {
                p.meta.gop_id = u64::MAX - 7;
            }
            t.note_arrival(&p);
            assert!(t.tracked() <= WINDOW_CAP, "window grew to {}", t.tracked());
        }
        assert_eq!(t.tracked(), WINDOW_CAP);
        // The newest packets are the ones kept.
        assert!(t.knows(49_999));
        assert!(!t.knows(100));
    }

    #[test]
    fn a_clean_stream_never_reaches_the_cap() {
        // The longest GOP any config in the workspace uses is 300.
        let (_, packets) = setup(300, 2, 5_000);
        let mut t = DependencyTracker::new();
        let mut peak = 0;
        for p in &packets {
            t.note_arrival(p);
            peak = peak.max(t.tracked());
        }
        assert_eq!(peak, 2 * 300);
        assert!(peak < WINDOW_CAP / 4);
    }

    #[test]
    fn closure_into_reuses_the_callers_buffer() {
        let (mut t, _) = setup(9, 2, 9);
        let mut buf = vec![77, 78];
        assert_eq!(t.closure_into(2, &mut buf), Some(()));
        assert_eq!(buf, vec![0, 1, 2]);
        assert_eq!(t.closure_into(99, &mut buf), None);
        assert!(buf.is_empty());
    }

    mod differential {
        use super::super::reference;
        use super::*;
        use bytes::Bytes;
        use pg_scene::{SceneFrame, SceneState};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// A packet drawn to break assumptions: sequence numbers wander
        /// (gaps, repeats, steps back), references may point at the
        /// packet itself, at later or unknown packets, and come in lists
        /// longer than the inline capacity; GOP ids are occasionally junk.
        fn hostile_packet(rng: &mut StdRng, cursor: &mut u64, gop: &mut u64) -> Packet {
            let seq = match rng.gen_range(0..10u32) {
                0 => cursor.saturating_sub(rng.gen_range(1..6u64)),
                1 => *cursor + rng.gen_range(2..5u64),
                2 => *cursor,
                _ => *cursor + 1,
            };
            *cursor = (*cursor).max(seq);
            if rng.gen_range(0..8u32) == 0 {
                *gop += 1;
            }
            let gop_id = match rng.gen_range(0..24u32) {
                0 => rng.gen_range(0..40u64),
                1 => gop.saturating_sub(rng.gen_range(1..4u64)),
                _ => *gop,
            };
            let n_refs = match rng.gen_range(0..12u32) {
                0 => rng.gen_range(5..9u32),
                1 => 0,
                _ => rng.gen_range(0..3u32),
            };
            let refs = (0..n_refs)
                .map(|_| match rng.gen_range(0..12u32) {
                    0 => seq,
                    1 => seq + rng.gen_range(1..4u64),
                    2 => rng.gen_range(0..200u64),
                    _ => seq.saturating_sub(rng.gen_range(1..5u64)),
                })
                .collect();
            let frame_type = [FrameType::I, FrameType::P, FrameType::B][rng.gen_range(0..3usize)];
            Packet {
                meta: crate::packet::PacketMeta {
                    stream_id: 0,
                    seq,
                    pts: seq,
                    frame_type,
                    size: 100,
                    gop_id,
                },
                refs,
                scene: SceneFrame::new(0, 0.5, 0.1, SceneState::Fire(false)),
                payload: Bytes::new(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200))]

            /// The ring-backed tracker answers every query exactly as the
            /// ordered-map tracker did, `pending_cost` bit for bit, under
            /// arbitrary interleavings of arrivals, decodes and queries.
            #[test]
            fn ring_tracker_matches_the_reference_model(
                seed in any::<u64>(),
                steps in 10usize..300,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                // Unequal, non-dyadic costs: a changed summation order
                // would show in the low bits.
                let costs = CostModel { c_i: 32.0 / 11.0, c_p: 1.1, c_b: 0.7 };
                let mut new = DependencyTracker::new();
                let mut old = reference::DependencyTracker::new();
                let (mut cursor, mut gop) = (0u64, 0u64);
                for _ in 0..steps {
                    match rng.gen_range(0..10u32) {
                        0..=5 => {
                            let p = hostile_packet(&mut rng, &mut cursor, &mut gop);
                            new.note_arrival(&p);
                            old.note_arrival(&p);
                        }
                        6 | 7 => {
                            let seq = cursor.saturating_sub(rng.gen_range(0..12u64));
                            new.mark_decoded(seq);
                            old.mark_decoded(seq);
                        }
                        _ => {}
                    }
                    prop_assert_eq!(new.tracked(), old.tracked());
                    let lo = cursor.saturating_sub(30);
                    for seq in lo..=cursor + 4 {
                        prop_assert_eq!(new.knows(seq), old.knows(seq), "knows({})", seq);
                        prop_assert_eq!(new.is_decoded(seq), old.is_decoded(seq));
                        prop_assert_eq!(new.frame_type(seq), old.frame_type(seq));
                        prop_assert_eq!(
                            new.pending_closure(seq),
                            old.pending_closure(seq),
                            "closure({})", seq
                        );
                        prop_assert_eq!(
                            new.pending_cost(seq, &costs).map(f64::to_bits),
                            old.pending_cost(seq, &costs).map(f64::to_bits),
                            "cost({})", seq
                        );
                    }
                }
            }
        }
    }
}
