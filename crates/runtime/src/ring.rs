//! The executor's ring buffer over real memory.
//!
//! [`SpscRing`] is the lock-free single-producer single-consumer ring
//! every executor run moves its cross edges through, on one thread or
//! many. It stores items contiguously in a fixed buffer, so channel
//! traffic has the predictable layout the paper's model assumes. (The
//! reference interpreter keeps its channels in std `VecDeque`s, so that
//! it shares no ring code with what it checks.)
//!
//! Capacities are exact: a ring holds what was asked for, and positions
//! wrap by compare-and-subtract, so no index computation pays a `%`.
//! That makes a ring of `2·n` items two `n`-item halves — a stream moved
//! only in batches of `n` never has a batch straddle the end of the
//! buffer, which is what lets the executors (`ccs-exec`) fire kernels
//! directly against ring storage. On top of the classic slice API the
//! ring exposes a zero-copy batch protocol:
//!
//! - producer: [`reserve`](SpscRing::reserve)`(n)` hands back at most
//!   two contiguous writable slices covering the next `n` free slots
//!   (two when the window wraps the end of the buffer), and
//!   [`commit`](SpscRing::commit)`(n)` publishes them;
//! - consumer: [`peek`](SpscRing::peek)`(n)` hands back the oldest `n`
//!   queued items as at most two contiguous readable slices, and
//!   [`release`](SpscRing::release)`(n)` retires them.
//!
//! The `push_slice`/`pop_slice` calls are thin wrappers over this
//! protocol (`copy_from_slice` per segment), so the batch path is the
//! only code that touches the buffer.
//!
//! A [`RingSet`] is all the rings of one run over **one** allocation:
//! the executors lay the slab out from their plan and hand the set a
//! list of `(offset, capacity)`.

use crossbeam::utils::CachePadded;
use std::cell::UnsafeCell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `f32` items in one 64-byte cache line: the unit [`RingSet`] offsets
/// are counted in, so that no two rings of a set share a line.
pub const LINE_WORDS: usize = 64 / std::mem::size_of::<f32>();

/// `pos` reduced into `[0, modulus)`, for `pos < 2·modulus`.
#[inline]
fn wrap(pos: usize, modulus: usize) -> usize {
    if pos >= modulus {
        pos - modulus
    } else {
        pos
    }
}

/// Split the window `[pos, pos + n)` of `buf` (mod its length) into at
/// most two contiguous index ranges.
#[inline]
fn split_ranges(
    cap: usize,
    pos: usize,
    n: usize,
) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
    let first = n.min(cap - pos);
    (pos..pos + first, 0..n - first)
}

/// The name the benchmark's ring microbenchmark still uses for
/// [`SpscRing`]: it times the ring the executor runs. Retired together
/// with `ccs_exec::RunConfig::with_fused` once the benchmark stops naming either.
pub type Ring = SpscRing;

/// A fixed-capacity lock-free SPSC FIFO of `f32` items.
///
/// Safety contract: at any instant at most one thread performs
/// `reserve`/`commit`/`push_*` and at most one thread performs
/// `peek`/`release`/`pop_*`. The parallel executor (`ccs-exec`)
/// guarantees this by giving each segment — and with it the ring
/// endpoints incident to it — to exactly one worker thread for the
/// whole run.
///
/// False-sharing note: `head` and `tail` are each `CachePadded`, i.e.
/// sized and aligned to a full cache line, so the immutable `buf`
/// pointer and length can never share a line with either counter (a
/// padded field occupies its lines exclusively); producer and consumer
/// only contend on the lines they must. A unit test pins the padding
/// assumption.
pub struct SpscRing {
    /// One cell per slot, so a window borrows exactly the slots it
    /// covers: the producer's reserved window and the consumer's peeked
    /// window are live at the same time, over disjoint slots of this
    /// one buffer.
    buf: Buf,
    /// Producer position in `[0, 2·capacity)`: one lap more than the
    /// buffer index, which tells a full ring from an empty one.
    tail: CachePadded<AtomicUsize>,
    /// Consumer position, same range.
    head: CachePadded<AtomicUsize>,
}

/// A ring's slots: its own allocation, or a run of a [`RingSet`]'s slab.
enum Buf {
    Owned(Box<[UnsafeCell<f32>]>),
    /// `len` slots starting at `ptr`, inside the slab of the
    /// [`RingSet`] that holds this ring.
    Slab {
        ptr: NonNull<UnsafeCell<f32>>,
        len: usize,
    },
}

impl Buf {
    #[inline]
    fn cells(&self) -> &[UnsafeCell<f32>] {
        match self {
            Buf::Owned(cells) => cells,
            // SAFETY: `RingSet::over` (behind `RingSet::new` and
            // `RingSet::resident`) is the only constructor of this
            // variant. It takes `ptr..ptr + len` from inside its slab
            // (sized to the largest `offset + len` of the layout, past
            // the aligned base), a `Vec` it then never reads, writes,
            // grows or frees before its rings: the set owns both, hands
            // rings out by reference only, and a `Vec` keeps its buffer
            // where it is when the `Vec` itself moves. The slab is
            // zero-initialised `f32`s and `UnsafeCell<f32>` has the
            // layout of `f32`. Rings of one set may cover the same
            // slots; a shared slice of cells is no claim on their
            // contents, so that is sound here, and what the windows
            // built on top may assume is the layout's business (see
            // `RingSet::new`).
            Buf::Slab { ptr, len } => unsafe { std::slice::from_raw_parts(ptr.as_ptr(), *len) },
        }
    }
}

// SAFETY: coordination protocol above; positions are atomics and the
// data race on buf is prevented by the head/tail discipline (producer
// writes only unoccupied slots, consumer reads only occupied slots).
unsafe impl Sync for SpscRing {}
// SAFETY: the only field that is not `Send` is a `Buf::Slab` pointer
// into the slab of the `RingSet` that holds the ring. It is tied to no
// thread, and the slab stays where it is for as long as the set, and
// so the ring, lives (see `Buf::cells`), whichever thread has it.
unsafe impl Send for SpscRing {}

impl SpscRing {
    pub fn new(capacity: usize) -> SpscRing {
        assert!(capacity > 0);
        let buf = Box::into_raw(vec![0.0f32; capacity].into_boxed_slice());
        // SAFETY: `UnsafeCell<f32>` has the layout of `f32`, so this
        // is the same allocation under a type that admits writes
        // through `&self`.
        let buf = unsafe { Box::from_raw(buf as *mut [UnsafeCell<f32>]) };
        SpscRing::over(Buf::Owned(buf))
    }

    fn over(buf: Buf) -> SpscRing {
        SpscRing {
            buf,
            tail: CachePadded::new(AtomicUsize::new(0)),
            head: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    pub fn capacity(&self) -> usize {
        self.buf.cells().len()
    }

    /// Items queued between positions `head` and `tail`.
    #[inline]
    fn between(&self, head: usize, tail: usize) -> usize {
        let laps = 2 * self.capacity();
        wrap(tail + laps - head, laps)
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        self.between(head, tail)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn space(&self) -> usize {
        self.capacity() - self.len()
    }

    /// Pointer to slot `i` of the buffer.
    #[inline]
    fn slot(&self, i: usize) -> *mut f32 {
        UnsafeCell::raw_get(self.buf.cells()[i..].as_ptr())
    }

    /// Producer half of the batch protocol: writable slices over the
    /// next `n` free slots (second slice empty unless the window wraps
    /// the end of the buffer). Panics on overflow (the executor checks
    /// space before claiming work). Nothing is visible to the consumer
    /// until [`commit`](SpscRing::commit).
    ///
    /// This is the ring's only write surface: `push_slice` goes
    /// through it too.
    #[allow(clippy::mut_from_ref)] // SPSC contract: one producer thread.
    pub fn reserve(&self, n: usize) -> (&mut [f32], &mut [f32]) {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        assert!(
            n <= self.capacity() - self.between(head, tail),
            "spsc overflow"
        );
        let cap = self.capacity();
        let (a, b) = split_ranges(cap, wrap(tail, cap), n);
        // SAFETY: slots [tail, tail+n) are unoccupied, so no peeked
        // window covers them; only this producer writes them, and the
        // two ranges are disjoint.
        unsafe {
            (
                std::slice::from_raw_parts_mut(self.slot(a.start), a.len()),
                std::slice::from_raw_parts_mut(self.slot(b.start), b.len()),
            )
        }
    }

    /// Publish `n` previously reserved items to the consumer.
    pub fn commit(&self, n: usize) {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        assert!(
            n <= self.capacity() - self.between(head, tail),
            "spsc overflow"
        );
        self.tail
            .store(wrap(tail + n, 2 * self.capacity()), Ordering::Release);
    }

    /// Consumer half of the batch protocol: readable slices over the
    /// oldest `n` queued items (second slice empty unless the window
    /// wraps). Panics on underflow. Items stay queued until
    /// [`release`](SpscRing::release).
    pub fn peek(&self, n: usize) -> (&[f32], &[f32]) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        assert!(n <= self.between(head, tail), "spsc underflow");
        let cap = self.capacity();
        let (a, b) = split_ranges(cap, wrap(head, cap), n);
        // SAFETY: slots [head, head+n) are occupied and stable until
        // released, so no reserved window covers them; only this
        // consumer reads them.
        unsafe {
            (
                std::slice::from_raw_parts(self.slot(a.start), a.len()),
                std::slice::from_raw_parts(self.slot(b.start), b.len()),
            )
        }
    }

    /// Retire `n` previously peeked items, freeing their slots.
    pub fn release(&self, n: usize) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        assert!(n <= self.between(head, tail), "spsc underflow");
        self.head
            .store(wrap(head + n, 2 * self.capacity()), Ordering::Release);
    }

    /// Whether the consumer has released a whole lap of the buffer — every
    /// slot once — and not yet a second: the test for storage a ring that
    /// carries exactly one full batch in its life hands on. Once it holds,
    /// it holds until the consumer releases a second whole lap. The head
    /// is loaded with `Acquire`, which pairs with the `Release` store in
    /// [`release`](SpscRing::release): everything the consumer did with
    /// the slots before it released them — its reads — happens before
    /// whatever the caller does after seeing `true`.
    pub fn lap_released(&self) -> bool {
        self.head.load(Ordering::Acquire) >= self.capacity()
    }

    /// Producer side: append all items; panics on overflow (the executor
    /// checks space before claiming work).
    pub fn push_slice(&self, items: &[f32]) {
        let (a, b) = self.reserve(items.len());
        let (x, y) = items.split_at(a.len());
        a.copy_from_slice(x);
        b.copy_from_slice(y);
        self.commit(items.len());
    }

    /// Consumer side: remove `out.len()` items; panics on underflow.
    pub fn pop_slice(&self, out: &mut [f32]) {
        let n = out.len();
        {
            let (a, b) = self.peek(n);
            out[..a.len()].copy_from_slice(a);
            out[a.len()..].copy_from_slice(b);
        }
        self.release(n);
    }
}

/// All the rings of one run over one zero-initialised slab.
///
/// The slab is a single `alloc_zeroed` allocation (`vec![0.0; n]`): at
/// the sizes where it matters the allocator serves it from fresh
/// zero pages, so building a set costs one ring header per ring however
/// many bytes the rings span, and a page nobody writes never becomes
/// resident ([`RingSet::resident`] writes them all up front instead).
/// Offsets count from a 64-byte-aligned base inside the slab.
pub struct RingSet {
    rings: Vec<SpscRing>,
    /// Owns the storage the rings point into; never touched after
    /// [`RingSet::new`], only kept alive as long as the rings.
    slab: Vec<f32>,
}

impl RingSet {
    /// One ring per `(offset, capacity)` of `layout`, in that order:
    /// `capacity` items starting `offset` items past the slab's aligned
    /// base. Offsets must be multiples of [`LINE_WORDS`] and capacities
    /// positive (both asserted), so no two rings that do not overlap
    /// share a cache line.
    ///
    /// Rings **may** overlap, and then the caller owes what
    /// [`SpscRing`]'s own contract cannot give: every access through one
    /// ring to shared slots happens before, or after, every access
    /// through the other — never at the same time. The layouts of
    /// `ccs_exec::plan::BoundaryLayout` give it two ways, and check the
    /// layout half of either before a set is built:
    ///
    /// - *by schedule*, for one thread: rings that overlap are in use
    ///   over disjoint intervals of a schedule the thread keeps;
    /// - *by release*, across threads, for rings that each carry one lap
    ///   in their life: the later ring's producer writes nothing before
    ///   it has seen [`SpscRing::lap_released`] on the earlier ring whose
    ///   storage it takes. That `Acquire` load reads the head the
    ///   earlier consumer stored with `Release` after its last read, so
    ///   those reads happen before the new writes; and the earlier
    ///   producer's writes happen before those reads (its `commit`'s
    ///   `Release` of the tail, the consumer's `Acquire` in `peek`), so
    ///   every earlier access happens before every later one. Chained
    ///   over a line's successive rings, each waiting on the last one
    ///   before it, the order is transitive.
    ///
    /// A disjoint layout owes nothing.
    pub fn new(layout: &[(usize, usize)]) -> RingSet {
        RingSet::over(layout, vec![0.0f32; slab_words(layout)])
    }

    /// [`new`](Self::new), over a slab written through once, so that
    /// every page of it is resident before the first batch and no
    /// batch pays the page faults of first touch. A batch whose time is
    /// a measurement — the measured placement's round 0 — needs that:
    /// a producer's first batch would otherwise take a fault for every
    /// page of its output rings, several times its steady cost.
    pub fn resident(layout: &[(usize, usize)]) -> RingSet {
        let words = slab_words(layout);
        let mut slab = Vec::with_capacity(words);
        // An opaque zero, so that the writes are not folded into a
        // zeroed allocation whose pages nothing touches.
        slab.resize(words, std::hint::black_box(0.0f32));
        RingSet::over(layout, slab)
    }

    fn over(layout: &[(usize, usize)], mut slab: Vec<f32>) -> RingSet {
        let into_line = slab.as_ptr() as usize % 64 / std::mem::size_of::<f32>();
        let skip = (LINE_WORDS - into_line) % LINE_WORDS;
        let base = slab.as_mut_ptr().wrapping_add(skip);
        let rings = layout
            .iter()
            .map(|&(offset, capacity)| {
                assert!(capacity > 0);
                assert!(offset.is_multiple_of(LINE_WORDS), "ring off its line");
                let ptr = NonNull::new(base.wrapping_add(offset).cast::<UnsafeCell<f32>>())
                    .expect("inside a live allocation");
                SpscRing::over(Buf::Slab { ptr, len: capacity })
            })
            .collect();
        RingSet { rings, slab }
    }

    /// The `i`-th ring of the layout the set was built from.
    #[inline]
    pub fn get(&self, i: usize) -> &SpscRing {
        &self.rings[i]
    }

    /// Words of slab allocated: the layout's extent plus the slack
    /// that aligns its base.
    pub fn words(&self) -> usize {
        self.slab.len()
    }
}

/// The layout's extent, and room to start the rings on a line wherever
/// the allocator puts the slab.
fn slab_words(layout: &[(usize, usize)]) -> usize {
    let extent = layout
        .iter()
        .map(|&(offset, capacity)| offset + capacity)
        .max()
        .unwrap_or(0);
    extent + LINE_WORDS - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    /// The `unsafe` in `Buf::cells`: rings of a set stream through
    /// their own run of the slab and nothing else, start on a line, and
    /// two rings given the same run see each other's (retired) items.
    #[test]
    fn ring_set_rings_are_the_runs_the_layout_names() {
        let zeroed: fn(&[(usize, usize)]) -> RingSet = RingSet::new;
        for build in [zeroed, RingSet::resident] {
            rings_are_the_runs_the_layout_names(build);
        }
    }

    /// The test above over a set `build` makes, either slab.
    fn rings_are_the_runs_the_layout_names(build: fn(&[(usize, usize)]) -> RingSet) {
        let set = build(&[(0, 5), (16, 16), (32, 3), (16, 16)]);
        assert_eq!(set.words(), 35 + LINE_WORDS - 1);
        let caps = [0, 1, 2, 3].map(|i| set.get(i).capacity());
        assert_eq!(caps, [5, 16, 3, 16]);
        // Fill every disjoint ring to the brim with its own pattern,
        // then read all of them back: a write outside its run would
        // land in a neighbour.
        for i in 0..3 {
            let ring = set.get(i);
            let items: Vec<f32> = (0..ring.capacity()).map(|k| (100 * i + k) as f32).collect();
            ring.push_slice(&items);
        }
        for i in 0..3 {
            let ring = set.get(i);
            let (a, b) = ring.peek(ring.capacity());
            assert!(b.is_empty());
            assert_eq!(a.as_ptr() as usize % 64, 0, "ring {i} starts on a line");
            let want: Vec<f32> = (0..ring.capacity()).map(|k| (100 * i + k) as f32).collect();
            assert_eq!(a, want.as_slice());
            ring.release(ring.capacity());
        }
        // Ring 3 is ring 1's run again: once ring 1 is drained, ring 3
        // streams through the same 16 slots.
        let (first, _) = set.get(3).reserve(16);
        assert_eq!(first[3], 103.0, "same storage as ring 1");
        first.fill(7.0);
        set.get(3).commit(16);
        let mut out = [0.0f32; 16];
        set.get(3).pop_slice(&mut out);
        assert_eq!(out, [7.0; 16]);
        // Protocol state is per ring, not per run of slab.
        assert!(set.get(1).is_empty() && set.get(3).is_empty());
        // A run without cross edges still builds its (empty) set.
        assert_eq!(build(&[]).words(), LINE_WORDS - 1);
    }

    #[test]
    #[should_panic(expected = "ring off its line")]
    fn ring_set_refuses_an_offset_inside_a_line() {
        let _ = RingSet::new(&[(8, 4)]);
    }

    #[test]
    fn capacities_are_exact_and_fifo_holds_across_the_wrap() {
        for cap in [3usize, 6, 3000] {
            let spsc = SpscRing::new(cap);
            assert_eq!(spsc.capacity(), cap);
            // A chunk that does not divide the capacity moves the head
            // to a new offset each lap; a full ring pushed from there
            // straddles the end of the buffer.
            let chunk = cap / 2 + 1;
            let mut pushed = 0usize;
            let mut popped = 0usize;
            for _ in 0..7 {
                for n in [chunk, cap] {
                    let items: Vec<f32> = (pushed..pushed + n).map(|i| i as f32).collect();
                    pushed += n;
                    spsc.push_slice(&items);
                    assert_eq!((spsc.len(), spsc.space()), (n, cap - n));
                    let want: Vec<f32> = (popped..popped + n).map(|i| i as f32).collect();
                    popped += n;
                    let mut got = vec![0.0f32; n];
                    spsc.pop_slice(&mut got);
                    assert_eq!(got, want, "cap {cap}");
                }
            }
        }
        assert_eq!(SpscRing::new(1).capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "spsc overflow")]
    fn spsc_reserve_overflow_panics() {
        let r = SpscRing::new(4);
        r.push_slice(&[1.0, 2.0, 3.0]);
        let _ = r.reserve(2);
    }

    #[test]
    #[should_panic(expected = "spsc underflow")]
    fn spsc_peek_underflow_panics() {
        let r = SpscRing::new(4);
        r.push_slice(&[1.0]);
        let _ = r.peek(2);
    }

    #[test]
    #[should_panic(expected = "spsc overflow")]
    fn spsc_commit_past_the_free_space_panics() {
        let r = SpscRing::new(4);
        r.push_slice(&[1.0, 2.0]);
        r.commit(3);
    }

    #[test]
    #[should_panic(expected = "spsc underflow")]
    fn spsc_release_past_the_queued_items_panics() {
        let r = SpscRing::new(4);
        r.push_slice(&[1.0, 2.0]);
        r.release(3);
    }

    /// A refused push is checked before anything is written or
    /// published: the ring keeps the items and the room it had.
    #[test]
    fn a_refused_push_leaves_the_ring_as_it_was() {
        let r = SpscRing::new(4);
        r.push_slice(&[1.0, 2.0, 3.0]);
        let refused = std::panic::catch_unwind(AssertUnwindSafe(|| r.push_slice(&[8.0, 9.0])));
        assert!(refused.is_err());
        assert_eq!((r.len(), r.space()), (3, 1));
        r.push_slice(&[4.0]);
        let mut out = [0.0f32; 4];
        r.pop_slice(&mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    /// A refused pop releases nothing: the queued items stay, in order.
    #[test]
    fn a_refused_pop_leaves_the_ring_as_it_was() {
        let r = SpscRing::new(4);
        r.push_slice(&[1.0, 2.0]);
        let refused = std::panic::catch_unwind(AssertUnwindSafe(|| r.pop_slice(&mut [0.0f32; 3])));
        assert!(refused.is_err());
        assert_eq!((r.len(), r.space()), (2, 2));
        let mut out = [0.0f32; 2];
        r.pop_slice(&mut out);
        assert_eq!(out, [1.0, 2.0]);
        assert!(r.is_empty());
    }

    /// Peeked items stay queued, and their slots unwritable, until
    /// released: a second peek sees them again, and a producer filling
    /// every free slot does not reach them.
    #[test]
    fn a_peeked_window_stays_queued_until_released() {
        let r = SpscRing::new(6);
        r.push_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let first: Vec<f32> = {
            let (a, b) = r.peek(3);
            a.iter().chain(b).copied().collect()
        };
        assert_eq!(first, [1.0, 2.0, 3.0]);
        assert_eq!(r.len(), 5, "a peek consumes nothing");
        let again: Vec<f32> = {
            let (a, b) = r.peek(3);
            a.iter().chain(b).copied().collect()
        };
        assert_eq!(again, first);
        r.release(2);
        assert_eq!((r.len(), r.space()), (3, 3));
        // The free slots wrap the end of the buffer; filling all of
        // them leaves the three unreleased items untouched.
        {
            let (a, b) = r.reserve(3);
            assert_eq!((a.len(), b.len()), (1, 2));
            a.fill(-1.0);
            b.fill(-1.0);
        }
        r.commit(3);
        let mut out = [0.0f32; 6];
        r.pop_slice(&mut out);
        assert_eq!(out, [3.0, 4.0, 5.0, -1.0, -1.0, -1.0]);
    }

    #[test]
    fn spsc_single_thread_semantics() {
        let r = SpscRing::new(8);
        r.push_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.space(), 5);
        let mut out = [0.0; 3];
        r.pop_slice(&mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert!(r.is_empty());
    }

    #[test]
    fn a_lap_is_released_only_when_every_slot_is() {
        let r = SpscRing::new(6);
        assert!(!r.lap_released(), "a fresh ring");
        r.push_slice(&[1.0; 6]);
        assert!(!r.lap_released(), "a full ring nobody read");
        let mut out = [0.0f32; 4];
        r.pop_slice(&mut out);
        assert!(!r.lap_released(), "a partial release");
        r.pop_slice(&mut out[..2]);
        assert!(r.lap_released(), "one full lap");
        // Released in pieces, the same.
        let r = SpscRing::new(5);
        for chunk in [2usize, 2, 1] {
            r.push_slice(&vec![0.0; chunk]);
            assert!(!r.lap_released());
            r.pop_slice(&mut vec![0.0; chunk]);
        }
        assert!(r.lap_released());
    }

    #[test]
    fn cache_padding_isolates_the_counters() {
        // The false-sharing audit in the struct docs rests on
        // `CachePadded` filling whole cache lines; pin that here so a
        // vendored-shim regression is caught.
        assert!(std::mem::align_of::<CachePadded<AtomicUsize>>() >= 64);
        assert!(std::mem::size_of::<CachePadded<AtomicUsize>>() >= 64);
        assert_eq!(
            std::mem::size_of::<CachePadded<AtomicUsize>>()
                % std::mem::align_of::<CachePadded<AtomicUsize>>(),
            0
        );
    }

    /// Exhaustive wraparound check: for small capacities, every
    /// (offset, batch length) pair must round-trip through
    /// reserve/commit + peek/release with the correct two-slice split.
    #[test]
    fn batch_api_exhaustive_offsets_spsc() {
        for cap in [1usize, 2, 3, 4, 6, 8] {
            for offset in 0..cap {
                for n in 0..=cap {
                    let r = SpscRing::new(cap);
                    let junk = vec![9.0f32; offset];
                    r.push_slice(&junk);
                    let mut sink = vec![0.0f32; offset];
                    r.pop_slice(&mut sink);
                    {
                        let (a, b) = r.reserve(n);
                        assert_eq!(a.len() + b.len(), n);
                        assert!(b.is_empty() || a.len() == cap - offset);
                        for (i, slot) in a.iter_mut().chain(b.iter_mut()).enumerate() {
                            *slot = i as f32;
                        }
                    }
                    r.commit(n);
                    assert_eq!(r.len(), n);
                    let (a, b) = r.peek(n);
                    let got: Vec<f32> = a.iter().chain(b.iter()).copied().collect();
                    let want: Vec<f32> = (0..n).map(|i| i as f32).collect();
                    assert_eq!(got, want, "cap={cap} offset={offset} n={n}");
                    r.release(n);
                    assert!(r.is_empty());
                }
            }
        }
    }

    #[test]
    fn spsc_cross_thread_stream() {
        let r = SpscRing::new(16);
        let total = 10_000usize;
        crossbeam::scope(|s| {
            s.spawn(|_| {
                let mut sent = 0usize;
                while sent < total {
                    let n = (total - sent).min(r.space()).min(4);
                    if n == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    let chunk: Vec<f32> = (sent..sent + n).map(|i| i as f32).collect();
                    r.push_slice(&chunk);
                    sent += n;
                }
            });
            s.spawn(|_| {
                let mut got = 0usize;
                let mut buf = [0.0f32; 4];
                while got < total {
                    let n = (total - got).min(r.len()).min(4);
                    if n == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    r.pop_slice(&mut buf[..n]);
                    for (i, &x) in buf[..n].iter().enumerate() {
                        assert_eq!(x, (got + i) as f32);
                    }
                    got += n;
                }
            });
        })
        .unwrap();
    }

    /// The batch-protocol mirror of `spsc_cross_thread_stream`: the
    /// producer writes in place through reserve/commit, the consumer
    /// verifies in place through peek/release — no staging copies.
    #[test]
    fn spsc_cross_thread_reserve_commit_stream() {
        let r = SpscRing::new(16);
        let total = 10_000usize;
        crossbeam::scope(|s| {
            s.spawn(|_| {
                let mut sent = 0usize;
                while sent < total {
                    let n = (total - sent).min(r.space()).min(5);
                    if n == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    {
                        let (a, b) = r.reserve(n);
                        for (i, slot) in a.iter_mut().chain(b.iter_mut()).enumerate() {
                            *slot = (sent + i) as f32;
                        }
                    }
                    r.commit(n);
                    sent += n;
                }
            });
            s.spawn(|_| {
                let mut got = 0usize;
                while got < total {
                    let n = (total - got).min(r.len()).min(3);
                    if n == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    {
                        let (a, b) = r.peek(n);
                        for (i, &x) in a.iter().chain(b.iter()).enumerate() {
                            assert_eq!(x, (got + i) as f32);
                        }
                    }
                    r.release(n);
                    got += n;
                }
            });
        })
        .unwrap();
    }

    #[test]
    fn spsc_wraparound_many_times() {
        let r = SpscRing::new(3);
        let mut out = [0.0f32; 2];
        for round in 0..100 {
            r.push_slice(&[round as f32, round as f32 + 0.5]);
            r.pop_slice(&mut out);
            assert_eq!(out, [round as f32, round as f32 + 0.5]);
        }
    }
}
