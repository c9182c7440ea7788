//! Module kernels: the real computations bound to graph nodes.
//!
//! Synchronous dataflow is deterministic: the k-th firing of a module
//! consumes the same items no matter how firings are interleaved, so any
//! two legal schedules produce bit-identical output streams. The kernels
//! here are all deterministic, which the test suite exploits to check
//! functional equivalence across schedulers (including the parallel one).

/// States of this many words and more are summed in the wide order,
/// shorter ones in the narrow one: which order a state gets is a
/// function of its length alone, never of the CPU. Measured, not taste:
/// one 32-lane order for every length halved `thin-dag` and `wide-dag`,
/// whose 32–128-word states are too short to hide the wide order's
/// remainder pass and reduce (`docs/HOTPATH.md`, `BENCH_23.json`
/// `single_order`).
pub const WIDE_FROM: usize = 256;

/// Lanes of the wide order: eight SSE or four AVX2 add chains, enough
/// that a sweep of cache-resident state waits for loads, not for the
/// previous add.
const LANES: usize = 32;

/// One compiled instance of the wide order.
type WideSweep = fn(&[f32]) -> f32;

/// Sum a state array — the work a firing does on its state, and what
/// the cache model charges it for, so it has to run at the speed of the
/// cache level the state sits in for wall clock to reflect memory
/// placement. Two summation orders, both defined by
/// [`sweep_reference`]: below [`WIDE_FROM`] words, 8 lanes (two SSE add
/// chains, add-latency-bound at ~11 words/ns on the measuring host, but
/// inlined and with a reduce a 32-word state can afford); from there
/// on, 32 lanes through the instance picked for this CPU, which on that
/// host tells L1 from L2 from L3 (`docs/MEASUREMENT.md` has the ladder).
#[inline]
pub fn state_sweep(state: &[f32]) -> f32 {
    if state.len() >= WIDE_FROM {
        return sweep_wide(state);
    }
    let mut acc = [0.0f32; 8];
    let chunks = state.chunks_exact(8);
    let rem = chunks.remainder();
    for c in chunks {
        for i in 0..8 {
            acc[i] += c[i];
        }
    }
    let mut tail = 0.0f32;
    for &x in rem {
        tail += x;
    }
    acc.iter().sum::<f32>() + tail
}

/// [`state_sweep`] from [`WIDE_FROM`] words on. Out of line, so that
/// what a kernel inlines for the wide order is one compare and one
/// call: with the instance lookup inlined as well, `SyntheticKernel`'s
/// blocked loop grew past the inliner's budget, called its own `sweep`
/// instead of inlining it, and `thin-dag` lost 4–7 % (`BENCH_23.json`
/// `inlined_lookup`).
#[inline(never)]
fn sweep_wide(state: &[f32]) -> f32 {
    (*WIDE)(state)
}

/// The wide order, written once: lane `j` adds words `j, j + 32, …` in
/// index order (so remainder word `r` goes to lane `r`), then a fixed
/// pairwise [`halving_tree`]. Plain Rust: every instance below is this
/// body compiled for a different target, and since the compiler may
/// not reassociate float adds they all return the same bits.
#[inline(always)]
fn wide_body(state: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let chunks = state.chunks_exact(LANES);
    let rem = chunks.remainder();
    for c in chunks {
        for j in 0..LANES {
            lanes[j] += c[j];
        }
    }
    for (lane, &x) in lanes.iter_mut().zip(rem) {
        *lane += x;
    }
    halving_tree(lanes)
}

/// The wide order's reduce: lane `j` takes lane `j + width` for `width`
/// = 16, 8, 4, 2, 1.
#[inline(always)]
fn halving_tree(mut lanes: [f32; LANES]) -> f32 {
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for j in 0..width {
            lanes[j] += lanes[j + width];
        }
    }
    lanes[0]
}

/// [`wide_body`] at the build's baseline target (SSE2 on x86-64).
fn wide_baseline(state: &[f32]) -> f32 {
    wide_body(state)
}

/// [`wide_body`] with 256-bit adds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn wide_avx2(state: &[f32]) -> f32 {
    wide_body(state)
}

/// The compiled instances of the wide order this CPU can run, by name,
/// the fastest last. All return the same bits for the same state; the
/// list exists so tests can hold each one to [`sweep_reference`].
pub fn wide_instances() -> impl Iterator<Item = (&'static str, WideSweep)> {
    let baseline: (&'static str, WideSweep) = ("baseline", wide_baseline);
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2").then_some((
        "avx2",
        // SAFETY: `wide_avx2` needs a CPU with AVX2 and nothing else,
        // and this closure exists only where one was just detected.
        (|state| unsafe { wide_avx2(state) }) as WideSweep,
    ));
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = None;
    std::iter::once(baseline).chain(avx2)
}

/// The instance [`state_sweep`] calls, picked on first use and kept for
/// the life of the process.
static WIDE: std::sync::LazyLock<WideSweep> = std::sync::LazyLock::new(|| {
    let (_, fastest) = wide_instances().last().expect("the baseline instance");
    fastest
});

/// What [`state_sweep`] computes, one scalar add at a time: the
/// definition of both summation orders.
pub fn sweep_reference(state: &[f32]) -> f32 {
    if state.len() >= WIDE_FROM {
        let mut lanes = [0.0f32; LANES];
        for (i, &x) in state.iter().enumerate() {
            lanes[i % LANES] += x;
        }
        halving_tree(lanes)
    } else {
        // Eight lanes over the whole chunks of eight, the remainder
        // summed on its own, lanes then remainder added left to right.
        let (body, rem) = state.split_at(state.len() - state.len() % 8);
        let mut lanes = [0.0f32; 8];
        for (i, &x) in body.iter().enumerate() {
            lanes[i % 8] += x;
        }
        let mut tail = 0.0f32;
        for &x in rem {
            tail += x;
        }
        lanes.iter().sum::<f32>() + tail
    }
}

/// Fold one stream item into an FNV-1a digest over its bit pattern —
/// the order-sensitive hash that defines the cross-executor equivalence
/// contract ([`SinkCollect`] and [`ForwardDigest`] must agree on it).
#[inline]
pub(crate) fn fnv1a_fold(hash: u64, x: f32) -> u64 {
    (hash ^ x.to_bits() as u64).wrapping_mul(0x100000001b3)
}

/// The FNV-1a offset basis both digest kernels start from.
pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// A module implementation. One `fire` consumes `in(e)` items from each
/// input buffer and fills `out(e)` items in each output buffer (buffer
/// lengths are exactly the rates; the executor owns the buffers, so
/// firing is allocation-free).
///
/// Ports are plain slices so the executor is free to back them with
/// anything contiguous: per-port scratch `Vec`s in the reference
/// interpreter, spans of a segment's flat scratch
/// arena or of a ring's own storage on the hot path — no copy either
/// way. The hot path fires in *runs*: [`Kernel::fire_n`] is its one
/// calling convention.
pub trait Kernel: Send {
    /// Words of state this kernel touches per firing (should match the
    /// graph's `s(v)`; one `f32` = one word).
    fn state_words(&self) -> usize;

    /// Execute one firing.
    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]);

    /// Execute `count` consecutive firings. Every port slice holds the
    /// run's items back to back — firing `k` owns items
    /// `[k·rate, (k+1)·rate)` of each, `rate = len / count` — and the
    /// result must be what `count` calls of [`Kernel::fire`] on those
    /// pieces leave behind, bit for bit: outputs, digest and state.
    ///
    /// The default does exactly that, so a kernel is complete with
    /// `fire` alone. A kernel that overrides this with one loop over
    /// the run still owes every firing its own full state sweep: the
    /// sweep is the work the cache model charges for. For a
    /// sliding-window kernel that means every firing multiplies all its
    /// taps by its own `n` most recent samples — read where they
    /// already are, in the run or in the carried window: what a run may
    /// save is moving samples, never touching them. Where that loop
    /// is `fire`'s body over firing `k`'s pieces, the kernels here
    /// define `fire` as `fire_n(1, ..)` and mark the override
    /// `#[inline(always)]`, so that `fire` is compiled with the run
    /// length known; where it is a blocked loop of its own, `fire`
    /// keeps its body and a run of one goes to it (`docs/HOTPATH.md`
    /// has the numbers for both).
    fn fire_n(&mut self, count: usize, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        fire_each(count, inputs, outputs, |ins, outs| self.fire(ins, outs));
    }

    /// A digest of everything this kernel has observed (used by sinks for
    /// cross-scheduler equivalence checks). `None` for kernels that don't
    /// accumulate.
    fn digest(&self) -> Option<u64> {
        None
    }
}

/// Port arity covered by the stack-allocated view tables of
/// [`Kernel::fire_n`]'s default and of the reference interpreter.
pub(crate) const MAX_PORTS: usize = 8;

/// Call `fire` once per firing of a run of `count`, on each firing's
/// piece of the run-long port slices. The view tables are built once
/// per run — on the stack up to `MAX_PORTS` ports a side, on the heap
/// beyond — and only re-pointed per firing.
fn fire_each(
    count: usize,
    inputs: &[&[f32]],
    outputs: &mut [&mut [f32]],
    fire: impl FnMut(&[&[f32]], &mut [&mut [f32]]),
) {
    let (n_in, n_out) = (inputs.len(), outputs.len());
    if n_in <= MAX_PORTS && n_out <= MAX_PORTS {
        let mut ins: [&[f32]; MAX_PORTS] = [&[]; MAX_PORTS];
        let mut rest: [&mut [f32]; MAX_PORTS] = std::array::from_fn(|_| Default::default());
        let mut heads: [&mut [f32]; MAX_PORTS] = std::array::from_fn(|_| Default::default());
        for (slot, run) in rest.iter_mut().zip(outputs.iter_mut()) {
            *slot = run;
        }
        fire_each_in(
            count,
            inputs,
            &mut ins[..n_in],
            &mut rest[..n_out],
            &mut heads[..n_out],
            fire,
        );
    } else {
        let mut ins: Vec<&[f32]> = vec![&[]; n_in];
        let mut rest: Vec<&mut [f32]> = outputs.iter_mut().map(|run| &mut **run).collect();
        let mut heads: Vec<&mut [f32]> = (0..n_out).map(|_| Default::default()).collect();
        fire_each_in(count, inputs, &mut ins, &mut rest, &mut heads, fire);
    }
}

/// [`fire_each`] over caller-provided view tables: `rest` starts as the
/// whole output runs and gives up one firing's items per firing.
fn fire_each_in<'a>(
    count: usize,
    inputs: &[&'a [f32]],
    ins: &mut [&'a [f32]],
    rest: &mut [&'a mut [f32]],
    heads: &mut [&'a mut [f32]],
    mut fire: impl FnMut(&[&[f32]], &mut [&mut [f32]]),
) {
    for k in 0..count {
        for (view, run) in ins.iter_mut().zip(inputs) {
            *view = firing(run, count, k);
        }
        for (head, tail) in heads.iter_mut().zip(rest.iter_mut()) {
            let rate = rate_of(tail, count - k);
            (*head, *tail) = std::mem::take(tail).split_at_mut(rate);
        }
        fire(ins, heads);
    }
}

/// Items per firing of a port slice that holds `count` firings. Most
/// streams are unit rate, and a division costs about as much as a
/// whole firing of a small kernel, so that case takes none.
#[inline]
fn rate_of(run: &[f32], count: usize) -> usize {
    if run.len() == count {
        1
    } else {
        run.len() / count
    }
}

/// Firing `k`'s items of a port slice that holds `count` firings back
/// to back.
#[inline]
pub fn firing(run: &[f32], count: usize, k: usize) -> &[f32] {
    let rate = rate_of(run, count);
    &run[k * rate..(k + 1) * rate]
}

/// [`firing`] for an output port.
#[inline]
pub fn firing_mut(run: &mut [f32], count: usize, k: usize) -> &mut [f32] {
    let rate = rate_of(run, count);
    &mut run[k * rate..(k + 1) * rate]
}

/// Firings one pass of a blocked kernel loop covers: a 64-byte line of
/// `f32`, so a pass reads or writes each unit-rate port's line once.
const PASS: usize = 16;

/// Add each firing's input items to its accumulator — firing
/// `first + j` into `acc[j]`, ports in order and items in order within
/// a port, the order `fire` adds them in — with the port loop outside:
/// a port's rate is worked out once per pass, and a unit-rate port is
/// one vector add over its line.
#[inline]
fn sum_inputs(inputs: &[&[f32]], count: usize, first: usize, acc: &mut [f32]) {
    for run in inputs {
        if run.len() == count {
            for (a, &x) in acc.iter_mut().zip(&run[first..]) {
                *a += x;
            }
        } else {
            let rate = run.len() / count;
            for (a, items) in acc.iter_mut().zip(run[first * rate..].chunks_exact(rate)) {
                for &x in items {
                    *a += x;
                }
            }
        }
    }
}

/// Fill firing `first + j`'s items of every output port from `y[j]`:
/// slot `i` of port `port` gets `value(y[j], port, i)`.
#[inline]
fn fill_outputs(
    outputs: &mut [&mut [f32]],
    count: usize,
    first: usize,
    y: &[f32],
    value: impl Fn(f32, usize, usize) -> f32,
) {
    for (port, run) in outputs.iter_mut().enumerate() {
        if run.len() == count {
            for (&y, slot) in y.iter().zip(&mut run[first..]) {
                *slot = value(y, port, 0);
            }
        } else {
            let rate = run.len() / count;
            for (&y, items) in y.iter().zip(run[first * rate..].chunks_exact_mut(rate)) {
                for (i, slot) in items.iter_mut().enumerate() {
                    *slot = value(y, port, i);
                }
            }
        }
    }
}

/// Run `body(first, n)` over a run of `count` firings in passes of at
/// most [`PASS`].
#[inline]
fn passes(count: usize, mut body: impl FnMut(usize, usize)) {
    let mut first = 0;
    while first < count {
        let n = PASS.min(count - first);
        body(first, n);
        first += n;
    }
}

/// Deterministic source: produces a linear-congruential sample stream.
/// State: the generator registers plus a configurable "coefficient table"
/// to model a source with real state.
pub struct SourceGen {
    next: u64,
    table: Box<[f32]>,
}

impl SourceGen {
    pub fn new(state_words: usize) -> SourceGen {
        SourceGen {
            next: 0x2545F4914F6CDD1D,
            table: (0..state_words.max(1))
                .map(|i| (i as f32 * 0.37).sin())
                .collect(),
        }
    }
}

impl Kernel for SourceGen {
    fn state_words(&self) -> usize {
        self.table.len()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.fire_n(1, inputs, outputs);
    }

    #[inline(always)]
    fn fire_n(&mut self, count: usize, _inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        // The generator runs through a firing's ports in order, so the
        // firing loop stays outside.
        for k in 0..count {
            // Touch the whole table (models loading the module state).
            let acc = state_sweep(&self.table);
            for out in outputs.iter_mut() {
                for slot in firing_mut(out, count, k) {
                    // xorshift* keeps the stream deterministic and cheap.
                    self.next ^= self.next >> 12;
                    self.next ^= self.next << 25;
                    self.next ^= self.next >> 27;
                    let r = (self.next.wrapping_mul(0x2545F4914F6CDD1D) >> 40) as f32;
                    *slot = r * (1.0 / (1 << 24) as f32) + acc * 1e-30;
                }
            }
        }
    }
}

/// Deterministic sink: accumulates an order-sensitive digest of the
/// stream it consumes. Two runs match iff they consumed identical item
/// sequences.
pub struct SinkCollect {
    hash: u64,
    count: u64,
    table: Box<[f32]>,
}

impl SinkCollect {
    pub fn new(state_words: usize) -> SinkCollect {
        SinkCollect {
            hash: FNV_OFFSET,
            count: 0,
            table: (0..state_words.max(1)).map(|i| i as f32 * 0.11).collect(),
        }
    }

    pub fn items(&self) -> u64 {
        self.count
    }
}

impl Kernel for SinkCollect {
    fn state_words(&self) -> usize {
        self.table.len()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.fire_n(1, inputs, outputs);
    }

    #[inline(always)]
    fn fire_n(&mut self, count: usize, inputs: &[&[f32]], _outputs: &mut [&mut [f32]]) {
        // The digest folds a firing's ports in order before the next
        // firing's, so the firing loop stays outside.
        for k in 0..count {
            let _ = state_sweep(&self.table);
            for input in inputs {
                for &x in firing(input, count, k) {
                    self.hash = fnv1a_fold(self.hash, x);
                    self.count += 1;
                }
            }
        }
    }

    fn digest(&self) -> Option<u64> {
        Some(self.hash ^ self.count)
    }
}

/// FIR filter with `taps.len()` coefficients over a sliding window;
/// consumes `decimate` items and produces one output per firing
/// (`decimate = 1` for a plain filter).
///
/// The delay line of a run of firings is `window ++ run` — the last
/// `n` samples of the stream so far, then the run's own — and firing
/// `k`'s window is the `n` words of it that end at its last sample. A
/// firing reads them where they already are: off the input run, or off
/// the pair (`window`, run) while it still reaches back into the
/// carried samples. `window` is rewritten once per run, not shifted
/// once per firing ([`fir_reference`] is the definition).
pub struct FirFilter {
    taps: Box<[f32]>,
    window: Box<[f32]>,
    decimate: usize,
}

/// Multiply `x` by `taps` (equally long) into the four lanes — lane `i`
/// takes products `i, i + 4, …` of the whole chunks of four, in index
/// order — and return the products of the `len % 4` words left over,
/// summed on their own. Four lanes are one SSE multiply-add chain:
/// add-latency-bound like the narrow [`state_sweep`], 6.0 taps/ns at
/// 2 048 taps in L1 (`docs/MEASUREMENT.md`). The order is what
/// `multirate-bank`'s digests and `oracle_pin.rs` pin.
#[inline]
fn mul_add4(lanes: &mut [f32; 4], taps: &[f32], x: &[f32]) -> f32 {
    let (tc, xc) = (taps.chunks_exact(4), x.chunks_exact(4));
    let tail: f32 = xc
        .remainder()
        .iter()
        .zip(tc.remainder())
        .map(|(x, t)| x * t)
        .sum();
    for (x, t) in xc.zip(tc) {
        for i in 0..4 {
            lanes[i] += x[i] * t[i];
        }
    }
    tail
}

/// `taps · x` in the 4-lane order: the lanes left to right, then the
/// leftover products.
#[inline]
fn dot(taps: &[f32], x: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 4];
    let tail = mul_add4(&mut lanes, taps, x);
    lanes.iter().sum::<f32>() + tail
}

/// [`dot`] over `head ++ rest` without joining them. The whole chunks
/// of `head` and of `rest` are read in place; only the one chunk that
/// straddles the seam — or, when the seam falls in the last `len % 4`
/// words, that leftover — is assembled on the stack.
#[inline]
fn dot_split(taps: &[f32], head: &[f32], rest: &[f32]) -> f32 {
    let in_head = head.len() % 4;
    let whole = head.len() - in_head;
    let mut lanes = [0.0f32; 4];
    mul_add4(&mut lanes, &taps[..whole], &head[..whole]);
    let tail = if in_head == 0 {
        mul_add4(&mut lanes, &taps[whole..], rest)
    } else {
        let mut seam = [0.0f32; 4];
        let len = (taps.len() - whole).min(4);
        for (slot, &x) in seam.iter_mut().zip(head[whole..].iter().chain(rest)) {
            *slot = x;
        }
        let (at_seam, after) = taps[whole..].split_at(len);
        let leftover = mul_add4(&mut lanes, at_seam, &seam[..len]);
        if len == 4 {
            mul_add4(&mut lanes, after, &rest[4 - in_head..])
        } else {
            leftover
        }
    };
    lanes.iter().sum::<f32>() + tail
}

/// What a run of [`FirFilter`] firings computes, one multiply-add at a
/// time: `line` is the delay line — the `taps.len()` samples before the
/// run, then the run's — and output `k` is `taps` times the
/// `taps.len()` samples that end at firing `k`'s last one, product `i`
/// added to lane `i % 4` in index order over the whole chunks of four,
/// the leftover products summed on their own, the lanes then the
/// leftover added left to right.
pub fn fir_reference(taps: &[f32], line: &[f32], decimate: usize) -> Vec<f32> {
    let n = taps.len();
    assert!(n > 0 && decimate > 0 && line.len() >= n && (line.len() - n).is_multiple_of(decimate));
    (1..=(line.len() - n) / decimate)
        .map(|firing| {
            let window = &line[firing * decimate..][..n];
            let mut lanes = [0.0f32; 4];
            let mut tail = 0.0f32;
            for i in 0..n {
                let product = window[i] * taps[i];
                if i < n - n % 4 {
                    lanes[i % 4] += product;
                } else {
                    tail += product;
                }
            }
            lanes[0] + lanes[1] + lanes[2] + lanes[3] + tail
        })
        .collect()
}

impl FirFilter {
    pub fn new(n_taps: usize, decimate: usize) -> FirFilter {
        assert!(n_taps > 0 && decimate > 0);
        FirFilter {
            taps: (0..n_taps)
                .map(|i| ((i as f32 + 1.0) * 0.61).cos() / n_taps as f32)
                .collect(),
            window: vec![0.0; n_taps].into_boxed_slice(),
            decimate,
        }
    }

    /// The coefficients, oldest sample's first.
    pub fn taps(&self) -> &[f32] {
        &self.taps
    }

    /// The carried delay line: the last `taps().len()` samples consumed.
    pub fn window(&self) -> &[f32] {
        &self.window
    }
}

impl Kernel for FirFilter {
    fn state_words(&self) -> usize {
        self.taps.len() + self.window.len()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.fire_n(1, inputs, outputs);
    }

    #[inline(always)]
    fn fire_n(&mut self, count: usize, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        let (n, d) = (self.taps.len(), self.decimate);
        debug_assert_eq!(inputs.len(), 1);
        let run = inputs[0];
        assert!(
            run.len() == count * d,
            "FIR input of {} items for {count} firings of {d}: expected {}",
            run.len(),
            count * d
        );
        passes(count, |first, pass| {
            let mut y = [0.0f32; PASS];
            // The firings that still reach back into `window` …
            let mut split = 0;
            while split < pass {
                let end = (first + split + 1) * d;
                if end >= n {
                    // … and the ones whose samples are all in the run.
                    let windows = run[end - n..].windows(n).step_by(d);
                    for (y, x) in y[split..pass].iter_mut().zip(windows) {
                        *y = dot(&self.taps, x);
                    }
                    break;
                }
                y[split] = dot_split(&self.taps, &self.window[end..], &run[..end]);
                split += 1;
            }
            fill_outputs(outputs, count, first, &y[..pass], |y, _, _| y);
        });
        // The last `n` words of `window ++ run`, for the next run.
        if let Some(fresh) = run.len().checked_sub(n) {
            self.window.copy_from_slice(&run[fresh..]);
        } else {
            self.window.copy_within(run.len().., 0);
            self.window[n - run.len()..].copy_from_slice(run);
        }
    }
}

/// Generic state-touching kernel for synthetic graphs: reads its whole
/// state every firing and emits a deterministic function of the inputs.
/// `mutate` adds a state write per firing (dirty-eviction modeling).
pub struct SyntheticKernel {
    state: Box<[f32]>,
    mutate: bool,
    fires: u64,
}

impl SyntheticKernel {
    pub fn new(state_words: usize, mutate: bool) -> SyntheticKernel {
        SyntheticKernel {
            state: (0..state_words.max(1))
                .map(|i| ((i * 2654435761usize) as f32) * 1e-12)
                .collect(),
            mutate,
            fires: 0,
        }
    }

    /// One firing's pass over the state: stream through all of it (the
    /// defining cost of a firing), then the optional write.
    #[inline]
    fn sweep(&mut self) -> f32 {
        let sacc = state_sweep(&self.state);
        if self.mutate {
            let idx = (self.fires % self.state.len() as u64) as usize;
            self.state[idx] += 1e-20;
        }
        self.fires += 1;
        sacc
    }
}

impl Kernel for SyntheticKernel {
    fn state_words(&self) -> usize {
        self.state.len()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        let mut acc = 0.0f32;
        for input in inputs {
            for &x in input.iter() {
                acc += x;
            }
        }
        let y = acc * 0.5 + self.sweep() * 1e-6;
        for out in outputs.iter_mut() {
            out.fill(y);
        }
    }

    fn fire_n(&mut self, count: usize, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        if count == 1 {
            return self.fire(inputs, outputs);
        }
        passes(count, |first, pass| {
            let mut y = [0.0f32; PASS];
            sum_inputs(inputs, count, first, &mut y[..pass]);
            for y in &mut y[..pass] {
                *y = *y * 0.5 + self.sweep() * 1e-6;
            }
            fill_outputs(outputs, count, first, &y[..pass], |y, _, _| y);
        });
    }
}

/// Wraps an original sink's kernel when a super-sink is appended behind
/// it (`Instance::with_super_endpoints`): the inner kernel still
/// consumes the stream and keeps its digest, while the wrapper forwards
/// a running hash of everything consumed on the node's new output edge
/// — so the super-sink's digest stays sensitive to the actual data, not
/// just the item count.
pub struct ForwardDigest {
    inner: Box<dyn Kernel>,
    hash: u64,
}

impl ForwardDigest {
    pub fn new(inner: Box<dyn Kernel>) -> ForwardDigest {
        ForwardDigest {
            inner,
            hash: FNV_OFFSET,
        }
    }
}

impl Kernel for ForwardDigest {
    fn state_words(&self) -> usize {
        self.inner.state_words()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.fire_n(1, inputs, outputs);
    }

    #[inline(always)]
    fn fire_n(&mut self, count: usize, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        // The inner kernel was a sink: it expects no output ports, and
        // nothing it does depends on this wrapper's hash.
        self.inner.fire_n(count, inputs, &mut []);
        for k in 0..count {
            for input in inputs {
                for &x in firing(input, count, k) {
                    self.hash = fnv1a_fold(self.hash, x);
                }
            }
            let y = (self.hash >> 40) as f32 * (1.0 / (1 << 24) as f32);
            for out in outputs.iter_mut() {
                firing_mut(out, count, k).fill(y);
            }
        }
    }

    fn digest(&self) -> Option<u64> {
        self.inner.digest()
    }
}

/// Splitter/mixer for multi-output nodes: forwards a deterministic mix of
/// inputs to every output (rates handled by the executor).
pub struct Mixer {
    table: Box<[f32]>,
}

impl Mixer {
    pub fn new(state_words: usize) -> Mixer {
        Mixer {
            table: (0..state_words.max(1))
                .map(|i| 1.0 / (i as f32 + 2.0))
                .collect(),
        }
    }
}

impl Kernel for Mixer {
    fn state_words(&self) -> usize {
        self.table.len()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        let mut acc = 0.0f32;
        for input in inputs {
            for &x in input.iter() {
                acc += x;
            }
        }
        let t = state_sweep(&self.table);
        let y = acc + t * 1e-9;
        for (k, out) in outputs.iter_mut().enumerate() {
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = y + k as f32 * 1e-3 + j as f32 * 1e-6;
            }
        }
    }

    fn fire_n(&mut self, count: usize, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        if count == 1 {
            return self.fire(inputs, outputs);
        }
        passes(count, |first, pass| {
            let mut y = [0.0f32; PASS];
            sum_inputs(inputs, count, first, &mut y[..pass]);
            for y in &mut y[..pass] {
                *y += state_sweep(&self.table) * 1e-9;
            }
            fill_outputs(outputs, count, first, &y[..pass], |y, port, i| {
                y + port as f32 * 1e-3 + i as f32 * 1e-6
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_is_deterministic() {
        let mut a = SourceGen::new(8);
        let mut b = SourceGen::new(8);
        let mut out_a = vec![0.0f32; 16];
        let mut out_b = vec![0.0f32; 16];
        a.fire(&[], &mut [&mut out_a]);
        b.fire(&[], &mut [&mut out_b]);
        assert_eq!(out_a, out_b);
        // Next firing differs from the first (stream advances).
        let mut out_a2 = vec![0.0f32; 16];
        a.fire(&[], &mut [&mut out_a2]);
        assert_ne!(out_a, out_a2);
    }

    #[test]
    fn sink_digest_is_order_sensitive() {
        let mut s1 = SinkCollect::new(4);
        let mut s2 = SinkCollect::new(4);
        s1.fire(&[&[1.0, 2.0]], &mut []);
        s2.fire(&[&[2.0, 1.0]], &mut []);
        assert_ne!(s1.digest(), s2.digest());
        assert_eq!(s1.items(), 2);
    }

    #[test]
    fn sink_digest_matches_for_same_stream_chunked_differently() {
        let mut s1 = SinkCollect::new(4);
        let mut s2 = SinkCollect::new(4);
        s1.fire(&[&[1.0, 2.0, 3.0, 4.0]], &mut []);
        s2.fire(&[&[1.0, 2.0]], &mut []);
        s2.fire(&[&[3.0, 4.0]], &mut []);
        assert_eq!(s1.digest(), s2.digest());
    }

    #[test]
    fn fir_filter_computes_dot_product() {
        let mut f = FirFilter::new(4, 1);
        let mut out = [0.0f32];
        for _ in 0..4 {
            f.fire(&[&[1.0]], &mut [&mut out]);
        }
        // Window now all ones: output = sum of taps.
        let expected: f32 = f.taps.iter().sum();
        assert!((out[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn fir_decimation_consumes_many() {
        let mut f = FirFilter::new(8, 4);
        let mut out = [0.0f32];
        f.fire(&[&[1.0, 2.0, 3.0, 4.0]], &mut [&mut out]);
        assert_eq!(f.state_words(), 16);
    }

    #[test]
    fn synthetic_kernel_state_size() {
        let k = SyntheticKernel::new(100, true);
        assert_eq!(k.state_words(), 100);
        let k0 = SyntheticKernel::new(0, false);
        assert_eq!(k0.state_words(), 1, "state is at least one word");
    }

    #[test]
    fn synthetic_deterministic_across_instances() {
        let mut a = SyntheticKernel::new(32, true);
        let mut b = SyntheticKernel::new(32, true);
        let mut oa = [0.0f32; 3];
        let mut ob = [0.0f32; 3];
        for _ in 0..10 {
            a.fire(&[&[0.5, 0.25]], &mut [&mut oa]);
            b.fire(&[&[0.5, 0.25]], &mut [&mut ob]);
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn mixer_distinguishes_outputs() {
        let mut m = Mixer::new(4);
        let mut o0 = [0.0f32; 2];
        let mut o1 = [0.0f32; 2];
        m.fire(&[&[1.0]], &mut [&mut o0, &mut o1]);
        assert_ne!(o0, o1);
    }

    /// Words for a sweep to add up: random bits with the top exponent
    /// bit cleared — both signs, every binade from the denormals up to
    /// 2, so the order of the adds shows in the low bits.
    fn words(n: usize, seed: u64) -> Vec<f32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f32::from_bits((x >> 32) as u32 & 0xbfff_ffff)
            })
            .collect()
    }

    /// `state_sweep` — through the narrow order, and from `WIDE_FROM`
    /// words on through every compiled instance of the wide one, which
    /// is what exercises the `unsafe` call in `wide_instances` — is its
    /// scalar reference bit for bit at every length around both orders'
    /// chunk sizes and at the big-state lengths.
    #[test]
    fn sweep_is_its_scalar_reference_at_every_length() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            wide_instances().map(|(name, _)| name).collect::<Vec<_>>(),
            if std::arch::is_x86_feature_detected!("avx2") {
                vec!["baseline", "avx2"]
            } else {
                vec!["baseline"]
            }
        );
        for n in (0..=600).chain([2048, 4422, 6144]) {
            let state = words(n, 0x9E37_79B9 + n as u64);
            let want = sweep_reference(&state).to_bits();
            assert_eq!(state_sweep(&state).to_bits(), want, "{n} words");
            if n >= WIDE_FROM {
                for (name, sweep) in wide_instances() {
                    assert_eq!(sweep(&state).to_bits(), want, "{n} words, {name}");
                }
            }
        }
    }

    /// Fire `filter` over `stream` cut into runs of `cuts` firings — a
    /// run of one through `fire`, longer ones through `fire_n` — and
    /// return everything it put out.
    fn fir_runs(filter: &mut FirFilter, stream: &[f32], cuts: &[usize]) -> Vec<f32> {
        let d = filter.decimate;
        let mut out = vec![0.0f32; stream.len() / d];
        let mut at = 0;
        for &count in cuts {
            let ins = &stream[at * d..(at + count) * d];
            let outs = &mut out[at..at + count];
            if count == 1 {
                filter.fire(&[ins], &mut [outs]);
            } else {
                filter.fire_n(count, &[ins], &mut [outs]);
            }
            at += count;
        }
        assert_eq!(at * d, stream.len(), "the cuts cover the stream");
        out
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `fire_n` and `fire` are [`fir_reference`] bit for bit, outputs
    /// and carried window, over two runs (the second starts from a
    /// window the first left) at every shape that changes the code
    /// path: `d > n`, `d = n`, `n % 4 != 0`, a seam inside a chunk of
    /// four or inside the leftover, and `count * d < n`, where a run
    /// refreshes only part of the window.
    #[test]
    fn fir_is_its_scalar_reference_over_the_grid() {
        for taps in [1, 3, 4, 5, 8, 27, 31, 32, 33, 64, 2048] {
            for d in [1, 2, 3, 5, 8, taps, taps + 3] {
                for count in [1, 2, 3, 15, 16, 17, 128] {
                    let shape = format!("{taps} taps, {d}:1, runs of {count}");
                    let stream = words(2 * count * d, (taps * 131 + d * 17 + count) as u64);
                    let mut by_run = FirFilter::new(taps, d);
                    let mut by_firing = FirFilter::new(taps, d);
                    let line = [&vec![0.0; taps][..], &stream].concat();
                    let want = bits(&fir_reference(by_run.taps(), &line, d));
                    let got = fir_runs(&mut by_run, &stream, &[count, count]);
                    assert_eq!(bits(&got), want, "fire_n: {shape}");
                    let got = fir_runs(&mut by_firing, &stream, &vec![1; 2 * count]);
                    assert_eq!(bits(&got), want, "fire: {shape}");
                    let carried = bits(&line[line.len() - taps..]);
                    assert_eq!(bits(by_run.window()), carried, "fire_n: {shape}");
                    assert_eq!(bits(by_firing.window()), carried, "fire: {shape}");
                }
            }
        }
    }

    /// One stream cut into runs of mixed lengths, `fire` and `fire_n`
    /// interleaved, leaves the outputs and the window of one `fire`
    /// per firing.
    #[test]
    fn fir_state_carries_over_across_mixed_runs() {
        let cuts = [1, 16, 3, 128, 1, 2];
        let firings: usize = cuts.iter().sum();
        for (taps, d) in [
            (32, 8),
            (32, 1),
            (27, 5),
            (34, 1),
            (5, 8),
            (4, 4),
            (2048, 8),
        ] {
            let stream = words(firings * d, 0xF1F0 + taps as u64);
            let mut mixed = FirFilter::new(taps, d);
            let mut single = FirFilter::new(taps, d);
            let got = fir_runs(&mut mixed, &stream, &cuts);
            let want = fir_runs(&mut single, &stream, &vec![1; firings]);
            assert_eq!(bits(&got), bits(&want), "{taps} taps, {d}:1");
            assert_eq!(
                bits(mixed.window()),
                bits(single.window()),
                "{taps} taps, {d}:1"
            );
        }
    }

    /// A wrong-length input is refused in every build, not filtered.
    #[test]
    #[should_panic(expected = "FIR input of 25 items for 3 firings of 8: expected 24")]
    fn fir_refuses_an_input_of_the_wrong_length() {
        let mut f = FirFilter::new(32, 8);
        f.fire_n(3, &[&[0.0; 25]], &mut [&mut [0.0; 3]]);
    }
}
