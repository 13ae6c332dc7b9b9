//! Pre-generated inputs: the program receives only these bytes.
//!
//! Chunks are produced once per set-up with the repo's own [`StreamFeed`]
//! (scene generator → encoder → bitstream serialization), exactly the
//! bytes its in-process producer would emit for the same seed, and shared
//! by all reps as refcounted [`Bytes`].

use std::time::{Duration, Instant};

use crate::surface::{Bytes, EncoderConfig, FaultPlan, StreamFeed, TaskKind};

/// One workload's input bytes: a header per stream, then one chunk per
/// stream per round, round-major.
pub struct Inputs {
    pub streams: usize,
    pub rounds: u64,
    pub headers: Vec<Bytes>,
    chunks: Vec<Bytes>,
    /// Payload bytes over all chunks and headers.
    pub bytes: u64,
    /// Wall time `StreamFeed::next_chunk` took over all chunks.
    pub encode_time: Duration,
}

impl Inputs {
    pub fn generate(
        task: TaskKind,
        encoder: EncoderConfig,
        seed: u64,
        streams: usize,
        rounds: u64,
    ) -> Inputs {
        let clean = FaultPlan::default();
        let mut feeds: Vec<StreamFeed> = (0..streams)
            .map(|i| StreamFeed::new(task, encoder, seed, i))
            .collect();
        let headers: Vec<Bytes> = feeds
            .iter()
            .map(|f| Bytes::from(f.header_chunk(&clean)))
            .collect();
        let mut chunks = Vec::with_capacity(streams * rounds as usize);
        let mut encode_time = Duration::ZERO;
        for round in 0..rounds {
            for feed in &mut feeds {
                let t = Instant::now();
                let mut chunk = feed.next_chunk(round, &clean);
                encode_time += t.elapsed();
                // The serializer hands out 4 KiB-capacity vectors; held for
                // a whole run they would cost 8× the payload.
                chunk.shrink_to_fit();
                chunks.push(Bytes::from(chunk));
            }
        }
        let bytes = headers.iter().chain(&chunks).map(|c| c.len() as u64).sum();
        Inputs {
            streams,
            rounds,
            headers,
            chunks,
            bytes,
            encode_time,
        }
    }

    /// The chunk of `stream` for `round`.
    pub fn chunk(&self, round: u64, stream: usize) -> &Bytes {
        &self.chunks[round as usize * self.streams + stream]
    }

    pub fn chunk_count(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// FNV-1a over every input byte: the same seed must give the same
    /// inputs.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for c in self.headers.iter().chain(&self.chunks) {
            d.bytes(c.as_slice());
        }
        d.finish()
    }
}

/// FNV-1a, for input and decision digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::Codec;

    fn small(seed: u64) -> Inputs {
        let enc = EncoderConfig::new(Codec::H264).with_bitrate(400_000);
        Inputs::generate(TaskKind::AnomalyDetection, enc, seed, 4, 30)
    }

    #[test]
    fn digest_is_stable_per_seed_and_differs_across_seeds() {
        let (a, b, c) = (small(7), small(7), small(8));
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.chunk_count(), 120);
        assert_eq!(a.chunk(29, 3).len(), b.chunk(29, 3).len());
        assert!(a.bytes > 0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64 test vectors: "" and "a".
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::new();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
        let (mut x, mut y) = (Digest::new(), Digest::new());
        x.word(1);
        x.word(2);
        y.word(2);
        y.word(1);
        assert_ne!(x.finish(), y.finish(), "order matters");
    }
}
