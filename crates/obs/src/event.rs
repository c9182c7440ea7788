//! Per-worker event rings: bounded, allocation-free, drop-counting.
//!
//! Each worker owns its ring exclusively — events are recorded by the
//! thread that produced them and only read back after the run — so the
//! hot path is a bounds check and a slot write: no locks, no atomics,
//! no allocation (the buffer is sized once up front). When the ring is
//! full the oldest event is overwritten and the drop counter advances;
//! a truncated timeline always says how much it lost.

use std::time::Instant;

/// Default per-worker ring capacity (events). At ~32 bytes per event
/// this is ~2 MiB per worker — enough for tens of thousands of batches
/// before wrap-around, while still bounding a pathological run.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Which side of the half-full/half-empty gate failed for a blocked
/// segment — the *reason* a traced stall could not run it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallReason {
    /// An input ring held less than the blocked segment's next granule
    /// reads — the first granule of a batch it could not start, or the
    /// next one of a batch it is running: the upstream producer had not
    /// caught up (the blocked segment is being *starved*).
    ProducerEmpty,
    /// An output ring lacked space for one batch: the downstream
    /// consumer was backed up (the blocked segment is being
    /// *backpressured*).
    ConsumerFull,
}

impl StallReason {
    /// JSON/report name.
    pub fn name(&self) -> &'static str {
        match self {
            StallReason::ProducerEmpty => "producer-empty",
            StallReason::ConsumerFull => "consumer-full",
        }
    }
}

/// What a traced stall was blocked on: the first gate failure found
/// scanning the worker's runnable segments, or the input ring a running
/// batch waits on for its next granule. Computed only when tracing is
/// enabled — the untraced stall path never inspects rings twice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blocked {
    /// Edge (ring) whose gate check failed.
    pub edge: usize,
    /// Segment that could not run.
    pub seg: usize,
    /// The segment on the other end of `edge` — the producer that
    /// starves `seg` ([`StallReason::ProducerEmpty`]) or the consumer
    /// that backpressures it ([`StallReason::ConsumerFull`]).
    pub peer: usize,
    /// Which side of the gate failed.
    pub reason: StallReason,
}

/// What happened. Spans carry their duration in [`Event::dur_ns`];
/// instantaneous events leave it zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// One granularity-`T` batch of segment `seg` (span).
    Batch {
        /// Segment index (contracted topological order).
        seg: usize,
    },
    /// An unproductive scheduling pass (span): no owned segment was
    /// schedulable — or, inside a `Batch` span, the running batch's next
    /// granule was not in yet — so the worker yielded (`parked = false`)
    /// or blocked on the progress condvar (`parked = true`).
    Stall {
        /// Whether the pass fell through the spin tier into the condvar.
        parked: bool,
        /// The first failing gate found among the worker's unfinished
        /// segments — which edge blocked whom, and why. `None` when
        /// attribution was skipped (tracing off) or no owned segment
        /// had work left (end-of-run drain).
        blocked: Option<Blocked>,
    },
    /// Occupancy of ring `ring` sampled at a batch boundary (instant): `len` of `cap` items resident.
    RingOccupancy {
        /// Ring (edge) index.
        ring: usize,
        /// Items resident at the sample instant.
        len: u64,
        /// Ring capacity in items.
        cap: u64,
    },
    /// Counter window `index` closed; the payload lives in the matching
    /// [`WindowSample`](crate::WindowSample).
    Window {
        /// Window ordinal (0-based, per worker).
        index: u64,
    },
}

/// One timeline entry: a monotonic timestamp (nanoseconds since the
/// run's [`Clock`] origin), a span duration (zero for instants), and
/// the kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the run origin (span start for spans).
    pub ts_ns: u64,
    /// Span duration in nanoseconds; zero for instantaneous events.
    pub dur_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Monotonic run clock: a shared origin every worker timestamps
/// against, so per-worker timelines merge on a common axis.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Start the clock now (call once per run, before spawning workers).
    pub fn start() -> Clock {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the origin to `t` (a timestamp taken with
    /// `Instant::now()` on any thread after [`Clock::start`]).
    #[inline]
    pub fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// A bounded circular event buffer owned by one worker.
///
/// `push` never allocates (capacity is reserved up front) and never
/// blocks; once full, each push overwrites the oldest event and counts
/// a drop. Iteration yields surviving events in record (and therefore
/// timestamp) order.
#[derive(Clone, Debug)]
pub struct EventRing {
    buf: Vec<Event>,
    /// Oldest slot once the buffer has wrapped; next overwrite target.
    head: usize,
    cap: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `cap` events (`cap` is clamped to >= 1).
    pub fn with_capacity(cap: usize) -> EventRing {
        let cap = cap.max(1);
        EventRing {
            buf: Vec::with_capacity(cap),
            head: 0,
            cap,
            dropped: 0,
        }
    }

    /// Record an event, overwriting the oldest (and counting a drop)
    /// when full.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently held (<= capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events held before overwriting begins.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events lost to overwriting so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Surviving events in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Consume the ring into `(chronological events, drop count)`.
    fn into_parts(mut self) -> (Vec<Event>, u64) {
        self.buf.rotate_left(self.head);
        (self.buf, self.dropped)
    }
}

/// One worker's recorded events plus its drop count — what an
/// [`EventRing`] leaves behind after a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Timeline {
    /// Surviving events, sorted by timestamp (stable: ties keep their
    /// record order).
    pub events: Vec<Event>,
    /// Events lost to ring overflow.
    pub dropped: u64,
}

/// The per-worker recording handle: an [`EventRing`] when tracing is
/// on, nothing when it is off. A disabled tracer's [`Tracer::record`]
/// is one predictable branch — the ring, its buffer, and every
/// timestamp read are simply absent.
#[derive(Debug)]
pub struct Tracer {
    ring: Option<EventRing>,
}

impl Tracer {
    /// A disabled tracer: records nothing, costs a branch.
    pub fn off() -> Tracer {
        Tracer { ring: None }
    }

    /// An enabled tracer with the given ring capacity (0 selects
    /// [`DEFAULT_RING_CAPACITY`]).
    pub fn on(capacity: usize) -> Tracer {
        let cap = if capacity == 0 {
            DEFAULT_RING_CAPACITY
        } else {
            capacity
        };
        Tracer {
            ring: Some(EventRing::with_capacity(cap)),
        }
    }

    /// Whether events are being kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Record a span (or instant, with `dur_ns = 0`). No-op when
    /// disabled.
    #[inline]
    pub fn record(&mut self, ts_ns: u64, dur_ns: u64, kind: EventKind) {
        if let Some(ring) = &mut self.ring {
            ring.push(Event {
                ts_ns,
                dur_ns,
                kind,
            });
        }
    }

    /// Finish recording: the timeline when tracing was on. Spans are
    /// recorded at completion but timestamped at their *start*, so the
    /// raw ring can hold a span after an instant that fell inside it;
    /// finishing stable-sorts by timestamp (ties keep record order),
    /// making every returned timeline monotone.
    pub fn finish(self) -> Option<Timeline> {
        self.ring.map(|r| {
            let (mut events, dropped) = r.into_parts();
            events.sort_by_key(|e| e.ts_ns);
            Timeline { events, dropped }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> Event {
        Event {
            ts_ns: ts,
            dur_ns: 0,
            kind: EventKind::Stall {
                parked: false,
                blocked: None,
            },
        }
    }

    #[test]
    fn fills_then_wraps_overwriting_oldest() {
        let mut r = EventRing::with_capacity(4);
        for t in 0..4 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        // Two more: 0 and 1 are gone, 2..=5 survive, in order.
        r.push(ev(4));
        r.push(ev(5));
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 2);
        let ts: Vec<u64> = r.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![2, 3, 4, 5]);
    }

    #[test]
    fn wraps_many_times_and_accounts_every_drop() {
        let mut r = EventRing::with_capacity(3);
        for t in 0..100 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 97);
        let (events, dropped) = r.into_parts();
        assert_eq!(dropped, 97);
        assert_eq!(
            events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![97, 98, 99]
        );
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let mut r = EventRing::with_capacity(0);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.iter().next().unwrap().ts_ns, 2);
    }

    #[test]
    fn push_does_not_allocate_past_capacity() {
        let mut r = EventRing::with_capacity(8);
        let cap_before = r.buf.capacity();
        for t in 0..1000 {
            r.push(ev(t));
        }
        assert_eq!(r.buf.capacity(), cap_before);
    }

    #[test]
    fn clock_timestamps_are_monotonic_per_worker() {
        // Events recorded in program order through one Clock carry
        // non-decreasing timestamps — the order a trace document keeps.
        let clock = Clock::start();
        let mut r = EventRing::with_capacity(64);
        for _ in 0..50 {
            r.push(ev(clock.now_ns()));
        }
        let ts: Vec<u64> = r.iter().map(|e| e.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
        // Wrap-around preserves chronology too.
        let mut small = EventRing::with_capacity(8);
        for _ in 0..50 {
            small.push(ev(clock.now_ns()));
        }
        let ts: Vec<u64> = small.iter().map(|e| e.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert!(!t.enabled());
        t.record(1, 0, EventKind::Window { index: 0 });
        assert!(t.finish().is_none());
    }

    #[test]
    fn enabled_tracer_keeps_events_and_drops() {
        let mut t = Tracer::on(2);
        for i in 0..5u64 {
            t.record(i, 1, EventKind::Batch { seg: i as usize });
        }
        let tl = t.finish().unwrap();
        assert_eq!(tl.events.len(), 2);
        assert_eq!(tl.dropped, 3);
        assert_eq!(tl.events[0].ts_ns, 3);
        assert_eq!(tl.events[1].ts_ns, 4);
    }

    #[test]
    fn zero_capacity_selects_default() {
        let t = Tracer::on(0);
        assert_eq!(t.ring.as_ref().unwrap().capacity(), DEFAULT_RING_CAPACITY);
    }

    #[test]
    fn finish_orders_a_span_before_the_instants_inside_it() {
        // A batch span is recorded when it ends but stamped with its
        // start, after the occupancy instant that fell inside it; the
        // finished timeline is in timestamp order, ties in record order.
        let mut t = Tracer::on(8);
        let occ = EventKind::RingOccupancy {
            ring: 0,
            len: 1,
            cap: 4,
        };
        t.record(15, 0, occ);
        t.record(10, 20, EventKind::Batch { seg: 0 });
        t.record(30, 0, EventKind::Window { index: 0 });
        t.record(30, 5, EventKind::Batch { seg: 1 });
        let kinds: Vec<EventKind> = t.finish().unwrap().events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Batch { seg: 0 },
                occ,
                EventKind::Window { index: 0 },
                EventKind::Batch { seg: 1 },
            ]
        );
    }

    #[test]
    fn stall_reasons_round_trip_through_their_names() {
        // The names trace documents carry, one a reason.
        assert_eq!(StallReason::ProducerEmpty.name(), "producer-empty");
        assert_eq!(StallReason::ConsumerFull.name(), "consumer-full");
    }
}
