//! The load generator: replays pre-generated chunks into the pipeline.
//!
//! One thread per workload. `Pace::Flood` is a closed loop: the next chunk
//! is offered as soon as the bounded ingest channel accepts the previous
//! one, so a slower pipeline receives less load. `Pace::Every` is an open
//! loop: round r is due at `t0 + r·period` whatever the pipeline does,
//! and a round's latency is counted from its due time, never from the
//! moment the generator got round to sending it.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::inputs::Inputs;
use crate::procfs;
use crate::spans::{Span, SpanBuf, Track};
use crate::surface::{ChunkSource, IngestSink};

/// How the generator spaces rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Closed loop: as fast as backpressure allows.
    Flood,
    /// Open loop: one round per period.
    Every(Duration),
}

/// Head start between the generator coming up and round 0's due time, so
/// the header chunks and thread start-up are not charged to round 0.
pub const PACED_LEAD: Duration = Duration::from_millis(20);

/// An open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub t0: Instant,
    pub period: Duration,
}

impl Schedule {
    pub fn due(&self, round: u64) -> Instant {
        self.t0 + self.period * round as u32
    }
}

/// What the generator observed, handed back when it finishes. All times
/// are nanoseconds since the rep's epoch.
pub struct SourceLog {
    /// When round r's input began to arrive: its due time on a schedule,
    /// the start of its first delivery in a closed loop.
    pub arrive_ns: Vec<u64>,
    /// How far behind its due time the generator started round r (0 in a
    /// closed loop).
    pub late_ns: Vec<u64>,
    /// When the last chunk of round r had been handed over.
    pub delivered_ns: Vec<u64>,
    /// Generator thread CPU and wall time over the data rounds.
    pub cpu: Duration,
    pub wall: Duration,
    pub spans: Option<SpanBuf>,
}

impl SourceLog {
    pub fn new(rounds: u64, traced: bool) -> Self {
        SourceLog {
            arrive_ns: Vec::with_capacity(rounds as usize),
            late_ns: Vec::with_capacity(rounds as usize),
            delivered_ns: Vec::with_capacity(rounds as usize),
            cpu: Duration::ZERO,
            wall: Duration::ZERO,
            spans: traced.then(|| SpanBuf::with_capacity(2 * rounds as usize)),
        }
    }

    /// Note that round `round` started now. On a schedule the round
    /// *arrives* at its due time even when the generator is late; the
    /// lateness is kept separately as a validity measure.
    pub fn begin_round(&mut self, epoch: Instant, due: Option<Instant>, now: Instant) {
        let arrive = due.unwrap_or(now);
        self.arrive_ns.push(ns_since(epoch, arrive));
        self.late_ns
            .push(due.map_or(0, |d| now.saturating_duration_since(d).as_nanos() as u64));
    }

    /// Share of the generator's wall time it was not on a CPU: waiting for
    /// the pipeline to accept more. Near 1 means the pipeline, not the
    /// generator, set the pace.
    pub fn blocked_share(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        (1.0 - self.cpu.as_secs_f64() / self.wall.as_secs_f64()).clamp(0.0, 1.0)
    }
}

pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Sleep until `deadline` (no spinning: the generator must not add a busy
/// thread to the machine it measures).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Where a finished generator leaves its log.
pub type LogSlot = Arc<Mutex<Option<SourceLog>>>;

/// A [`ChunkSource`] that replays [`Inputs`].
pub struct ReplaySource {
    pub inputs: Arc<Inputs>,
    pub rounds: u64,
    pub pace: Pace,
    pub epoch: Instant,
    pub traced: bool,
    pub slot: LogSlot,
}

impl ReplaySource {
    fn replay(&self, sink: &IngestSink, log: &mut SourceLog) {
        let m = self.inputs.streams;
        // Headers ride round 0, as the in-process producer sends them.
        for (i, header) in self.inputs.headers.iter().enumerate() {
            if !sink.deliver(i, 0, header.clone()) {
                return;
            }
        }
        let schedule = match self.pace {
            Pace::Flood => None,
            Pace::Every(period) => Some(Schedule {
                t0: Instant::now() + PACED_LEAD,
                period,
            }),
        };
        let (cpu0, wall0) = (procfs::thread_cpu(), Instant::now());
        for round in 0..self.rounds {
            let due = schedule.map(|s| s.due(round));
            if let Some(due) = due {
                sleep_until(due);
            }
            let start = Instant::now();
            log.begin_round(self.epoch, due, start);
            for i in 0..m {
                if !sink.deliver(i, round, self.inputs.chunk(round, i).clone()) {
                    return;
                }
            }
            let end = ns_since(self.epoch, Instant::now());
            log.delivered_ns.push(end);
            if let Some(spans) = &mut log.spans {
                spans.push(Span {
                    name: "source.deliver",
                    track: Track::Source,
                    start_ns: ns_since(self.epoch, start),
                    end_ns: end,
                    round,
                });
            }
        }
        log.cpu = procfs::thread_cpu() - cpu0;
        log.wall = wall0.elapsed();
    }
}

impl ChunkSource for ReplaySource {
    fn run(self: Box<Self>, sink: IngestSink) {
        let mut log = SourceLog::new(self.rounds, self.traced);
        self.replay(&sink, &mut log);
        *self.slot.lock().expect("no holder of the log slot panics") = Some(log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_in_advance() {
        let s = Schedule {
            t0: Instant::now(),
            period: Duration::from_millis(40),
        };
        assert_eq!(s.due(0), s.t0);
        assert_eq!(s.due(25) - s.t0, Duration::from_secs(1));
    }

    #[test]
    fn open_loop_rounds_arrive_at_their_due_time_not_their_send_time() {
        let epoch = Instant::now();
        let s = Schedule {
            t0: epoch + Duration::from_millis(10),
            period: Duration::from_millis(40),
        };
        let mut log = SourceLog::new(2, false);
        // Round 0 is sent on time; round 1 is sent 7 ms late (a stall).
        log.begin_round(epoch, Some(s.due(0)), s.due(0));
        log.begin_round(epoch, Some(s.due(1)), s.due(1) + Duration::from_millis(7));
        assert_eq!(log.arrive_ns, vec![10_000_000, 50_000_000]);
        assert_eq!(log.late_ns, vec![0, 7_000_000]);
        // A decision 9 ms after the late send is 16 ms after the due time:
        // the stall counts against the round.
        let decided = ns_since(epoch, s.due(1) + Duration::from_millis(16));
        assert_eq!(decided - log.arrive_ns[1], 16_000_000);
        // A closed loop has no due time: the round arrives when it is sent.
        let mut log = SourceLog::new(1, false);
        log.begin_round(epoch, None, epoch + Duration::from_millis(3));
        assert_eq!((log.arrive_ns[0], log.late_ns[0]), (3_000_000, 0));
    }

    #[test]
    fn blocked_share_is_the_off_cpu_share() {
        let mut log = SourceLog::new(0, false);
        log.wall = Duration::from_millis(100);
        log.cpu = Duration::from_millis(5);
        assert!((log.blocked_share() - 0.95).abs() < 1e-9);
        log.cpu = Duration::from_millis(200);
        assert_eq!(log.blocked_share(), 0.0);
    }
}
