//! Encoded video packets and their pre-decode metadata.

use std::fmt;
use std::ops::Deref;

use bytes::Bytes;
use serde::{de, Deserialize, Serialize, Value};

use pg_scene::SceneFrame;

use crate::frame::FrameType;

/// Pre-decode packet metadata — everything a packet gate is allowed to see
/// (paper §3.1: "only some metadata of the video packet is available, such
/// as video codec, picture type, packet size").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketMeta {
    /// Stream the packet belongs to.
    pub stream_id: u32,
    /// Decode-order sequence number within the stream (0-based).
    pub seq: u64,
    /// Presentation timestamp in frame units (display order).
    pub pts: u64,
    /// Picture type.
    pub frame_type: FrameType,
    /// Encoded payload size in bytes.
    pub size: u32,
    /// Index of the GOP this packet belongs to.
    pub gop_id: u64,
}

/// References a [`RefList`] holds without touching the heap.
const INLINE_REFS: usize = 4;

/// A packet's decode references: a list of sequence numbers that lives
/// inline up to four entries and spills to the heap beyond.
///
/// The encoder emits at most two references per packet, so on honest input
/// building, cloning and dropping a `RefList` never allocates — which is
/// what keeps [`Packet::clone`] and the per-packet parse path off the
/// allocator. The wire format's count byte allows up to 255, and a damaged
/// record that still frames may carry that many; those spill rather than
/// being rejected, so every record the parser accepted with a `Vec<u64>`
/// is still accepted with the same references.
///
/// Reads like a slice: it derefs to `[u64]`, compares with `Vec<u64>` and
/// slices, `Debug`-prints as a list, and serializes as the same JSON array
/// a `Vec<u64>` does.
#[derive(Clone)]
pub struct RefList(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u64; INLINE_REFS] },
    Spilled(Vec<u64>),
}

impl RefList {
    /// Empty list.
    pub const fn new() -> Self {
        RefList(Repr::Inline {
            len: 0,
            buf: [0; INLINE_REFS],
        })
    }

    /// Append a reference, spilling to the heap past the inline capacity.
    pub fn push(&mut self, seq: u64) {
        match &mut self.0 {
            Repr::Inline { len, buf } if (*len as usize) < INLINE_REFS => {
                buf[*len as usize] = seq;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_REFS);
                spilled.extend_from_slice(buf);
                spilled.push(seq);
                self.0 = Repr::Spilled(spilled);
            }
            Repr::Spilled(v) => v.push(seq),
        }
    }

    /// The references as a slice.
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }
}

impl Default for RefList {
    fn default() -> Self {
        RefList::new()
    }
}

impl Deref for RefList {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a RefList {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<u64> for RefList {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut list = RefList::new();
        for seq in iter {
            list.push(seq);
        }
        list
    }
}

impl From<Vec<u64>> for RefList {
    fn from(v: Vec<u64>) -> Self {
        v.into_iter().collect()
    }
}

impl<const N: usize> From<[u64; N]> for RefList {
    fn from(a: [u64; N]) -> Self {
        a.into_iter().collect()
    }
}

impl fmt::Debug for RefList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for RefList {
    fn eq(&self, other: &RefList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RefList {}

impl PartialEq<Vec<u64>> for RefList {
    fn eq(&self, other: &Vec<u64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u64]> for RefList {
    fn eq(&self, other: &[u64]) -> bool {
        self.as_slice() == other
    }
}

impl Serialize for RefList {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl Deserialize for RefList {
    fn from_value(value: &Value) -> Result<RefList, de::Error> {
        match value {
            Value::Array(items) => items.iter().map(u64::from_value).collect(),
            other => Err(de::Error::type_mismatch("RefList", "array", other)),
        }
    }
}

/// A complete encoded packet: gate-visible metadata, decode dependencies,
/// and the opaque payload.
///
/// `refs` and `scene` model what a real bitstream carries implicitly: the
/// reference structure is recoverable from the GOP pattern (and *is*
/// metadata — a parser can derive it), while `scene` stands in for the
/// pixel payload and is **only** readable after decoding (the
/// [`Decoder`](crate::Decoder) enforces this by refusing packets with
/// missing references).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Packet {
    /// Gate-visible metadata.
    pub meta: PacketMeta,
    /// Decode-order sequence numbers of the packets this one references.
    /// Always strictly smaller than `meta.seq` (references have already
    /// arrived when a packet arrives in decode order).
    pub refs: RefList,
    /// Ground-truth scene content (the "pixels"); recovered by decoding.
    pub scene: SceneFrame,
    /// The raw encoded payload bytes as they appeared on the wire, as a
    /// refcounted slice of the arrival buffer (zero-copy through the
    /// pipeline). Empty for packets that never crossed a bitstream — the
    /// encoder emits packets before serialization, so only parsed packets
    /// carry one.
    pub payload: Bytes,
}

/// Packets compare by decoded content; `payload` is a transport detail
/// (encoder-made packets have an empty one, parsed packets carry the wire
/// bytes) and deliberately does not participate in equality.
impl PartialEq for Packet {
    fn eq(&self, other: &Packet) -> bool {
        self.meta == other.meta && self.refs == other.refs && self.scene == other.scene
    }
}

impl Packet {
    /// Whether this packet can be decoded with no references at all.
    pub fn is_independent(&self) -> bool {
        self.refs.is_empty()
    }

    /// Sanity-check the invariants a well-formed packet must satisfy.
    /// Used by tests and debug assertions throughout the workspace.
    pub fn validate(&self) -> Result<(), String> {
        if self.meta.frame_type == FrameType::I && !self.refs.is_empty() {
            return Err(format!(
                "I packet seq={} must have no references",
                self.meta.seq
            ));
        }
        if self.meta.frame_type != FrameType::I && self.refs.is_empty() {
            return Err(format!(
                "{} packet seq={} must have references",
                self.meta.frame_type, self.meta.seq
            ));
        }
        for &r in &self.refs {
            if r >= self.meta.seq {
                return Err(format!(
                    "packet seq={} references future/self packet {}",
                    self.meta.seq, r
                ));
            }
        }
        if self.meta.size == 0 {
            return Err(format!("packet seq={} has zero size", self.meta.seq));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_scene::SceneState;

    fn scene() -> SceneFrame {
        SceneFrame::new(0, 0.5, 0.1, SceneState::Fire(false))
    }

    fn packet(frame_type: FrameType, seq: u64, refs: Vec<u64>) -> Packet {
        Packet {
            meta: PacketMeta {
                stream_id: 0,
                seq,
                pts: seq,
                frame_type,
                size: 1000,
                gop_id: 0,
            },
            refs: refs.into(),
            scene: scene(),
            payload: Bytes::new(),
        }
    }

    #[test]
    fn i_packet_is_independent() {
        let p = packet(FrameType::I, 0, vec![]);
        assert!(p.is_independent());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn p_packet_needs_refs() {
        let bad = packet(FrameType::P, 3, vec![]);
        assert!(bad.validate().is_err());
        let good = packet(FrameType::P, 3, vec![0]);
        assert!(good.validate().is_ok());
        assert!(!good.is_independent());
    }

    #[test]
    fn i_packet_with_refs_is_invalid() {
        let bad = packet(FrameType::I, 5, vec![0]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn forward_references_are_invalid() {
        let bad = packet(FrameType::B, 2, vec![1, 3]);
        assert!(bad.validate().is_err());
        let self_ref = packet(FrameType::B, 2, vec![2]);
        assert!(self_ref.validate().is_err());
    }

    #[test]
    fn zero_size_is_invalid() {
        let mut p = packet(FrameType::I, 0, vec![]);
        p.meta.size = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn ref_lists_of_every_length_survive_the_wire_and_json() {
        use crate::bitstream::serialize_stream;
        use crate::config::{Codec, EncoderConfig};
        use crate::parser::parse_stream;

        // 0..=4 stay inline, 5 and 6 spill; all must read the same.
        for n in 0..=6u64 {
            let refs: Vec<u64> = (0..n).map(|k| 3 * k + 1).collect();
            let mut p = packet(FrameType::B, 100, refs.clone());
            assert_eq!(p.refs, refs);
            assert_eq!(p.refs, refs[..]);
            assert_eq!(p.refs.len(), n as usize);
            assert_eq!(format!("{:?}", p.refs), format!("{refs:?}"));
            assert_eq!(p.refs.clone(), p.refs);
            assert_eq!(p.refs.iter().copied().collect::<RefList>(), p.refs);

            // Serializer → parser.
            p.meta.stream_id = 7;
            let config = EncoderConfig::new(Codec::H264);
            let bytes = serialize_stream(7, &config, std::slice::from_ref(&p));
            let (_, parsed) = parse_stream(&bytes).expect("parses");
            assert_eq!(parsed, vec![p.clone()]);
            assert_eq!(parsed[0].refs, refs);

            // JSON: the same array a `Vec<u64>` writes, readable as either.
            let json = serde_json::to_string(&p.refs).expect("serializes");
            assert_eq!(json, serde_json::to_string(&refs).expect("serializes"));
            let back: RefList = serde_json::from_str(&json).expect("deserializes");
            assert_eq!(back, refs);
            let whole: Packet =
                serde_json::from_str(&serde_json::to_string(&p).expect("serializes"))
                    .expect("deserializes");
            assert_eq!(whole, p);
        }
        assert_eq!(RefList::from([4, 9]), vec![4, 9]);
        assert_eq!(RefList::new(), Vec::<u64>::new());
        assert!(serde_json::from_str::<RefList>("{}").is_err());
    }
}
