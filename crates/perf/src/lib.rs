//! # ccs-perf — hardware performance counters for the executors
//!
//! The paper's headline claim is that cache-conscious scheduling
//! reduces *cache misses*, not just wall-clock time. This crate makes
//! that directly measurable: a safe wrapper over Linux
//! `perf_event_open(2)` (reached through the vendored `libc` shim's raw
//! `syscall`, since glibc never wrapped it) that each worker thread
//! uses to count its own LLC misses, instructions, and cycles around
//! steady-state execution.
//!
//! Design points:
//!
//! * **Groups, read atomically.** All of a thread's counters are opened
//!   as one group (`read_format = GROUP`): a single `read(2)` on the
//!   leader snapshots every member at the same instant, so derived
//!   ratios (IPC, miss rate, MPKI) are internally consistent.
//! * **Multiplex-scaled readings.** When the PMU is oversubscribed the
//!   kernel time-slices groups; readings are extrapolated by
//!   `time_enabled / time_running` ([`read::scale`]) and flagged as
//!   [`CounterSample::multiplexed`].
//! * **Self-monitoring attach.** Counters are opened with
//!   `pid = 0, cpu = -1` — this thread, wherever it runs — after the
//!   worker has pinned itself, so per-worker readings attribute misses
//!   to the placement decision that scheduled the segment there.
//! * **Graceful unavailability.** Containers, `perf_event_paranoid`,
//!   missing PMUs, and non-Linux hosts all land in
//!   [`CounterSet::Unavailable`] with a human-readable reason; every
//!   consumer keeps working, reporting `counters: unavailable` instead
//!   of numbers. `CCS_NO_PERF=1` forces this path (useful to make CI
//!   deterministic).
//!
//! Consumers: `ccs-exec` workers sample around their firing loops
//! (optionally discarding a warmup window via [`CounterSet::reset`] and
//! attributing batch windows to segments via
//! [`CounterSample::delta_since`]); `ccs run-dag
//! --counters` and the `e20_cache_counters` / `e21_steady_state`
//! experiments report misses per item by placement mode. The
//! measurement methodology is documented in `docs/MEASUREMENT.md`.

#![warn(missing_docs)]

pub mod read;

#[cfg(target_os = "linux")]
mod sys;
#[cfg(target_os = "linux")]
pub use sys::CounterGroup;

/// What to count. The set mirrors `perf stat`'s cache view: the two
/// generic hardware cache events, the two LLC-specific cache-hierarchy
/// events, the work denominators (instructions, cycles), and the
/// software task clock (always available, even without a PMU).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CounterKind {
    /// `PERF_COUNT_HW_CPU_CYCLES`.
    Cycles,
    /// `PERF_COUNT_HW_INSTRUCTIONS`.
    Instructions,
    /// `PERF_COUNT_HW_CACHE_REFERENCES` (any-level, CPU-defined).
    CacheReferences,
    /// `PERF_COUNT_HW_CACHE_MISSES` (any-level, CPU-defined).
    CacheMisses,
    /// LLC read accesses (`PERF_TYPE_HW_CACHE`: LL × read × access).
    LlcReferences,
    /// LLC read misses (`PERF_TYPE_HW_CACHE`: LL × read × miss) — the
    /// quantity the paper's bandwidth bound is about.
    LlcMisses,
    /// `PERF_COUNT_SW_TASK_CLOCK`: ns of CPU time, kernel-maintained.
    TaskClock,
}

impl CounterKind {
    /// Every kind, in the order [`CounterBuilder::cache_suite`] opens
    /// them (hardware first so a hardware event leads the group).
    pub const ALL: [CounterKind; 7] = [
        CounterKind::LlcMisses,
        CounterKind::LlcReferences,
        CounterKind::CacheMisses,
        CounterKind::CacheReferences,
        CounterKind::Instructions,
        CounterKind::Cycles,
        CounterKind::TaskClock,
    ];

    /// `perf stat`-style event name.
    pub fn name(&self) -> &'static str {
        match self {
            CounterKind::Cycles => "cycles",
            CounterKind::Instructions => "instructions",
            CounterKind::CacheReferences => "cache-references",
            CounterKind::CacheMisses => "cache-misses",
            CounterKind::LlcReferences => "llc-references",
            CounterKind::LlcMisses => "llc-misses",
            CounterKind::TaskClock => "task-clock",
        }
    }

    /// Snake-case key for JSON reports (`ccs run-dag --counters`,
    /// `e20_cache_counters`).
    fn json_key(&self) -> &'static str {
        match self {
            CounterKind::Cycles => "cycles",
            CounterKind::Instructions => "instructions",
            CounterKind::CacheReferences => "cache_references",
            CounterKind::CacheMisses => "cache_misses",
            CounterKind::LlcReferences => "llc_references",
            CounterKind::LlcMisses => "llc_misses",
            CounterKind::TaskClock => "task_clock_ns",
        }
    }
}

/// One counter's value within a sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reading {
    /// Which event this value belongs to.
    pub kind: CounterKind,
    /// What the hardware counted while the event was on the PMU.
    pub raw: u64,
    /// `raw` extrapolated over multiplexing ([`read::scale`]); equals
    /// `raw` when the group ran the whole time it was enabled.
    pub scaled: u64,
}

/// An atomic snapshot of a counter group (or, via [`CounterSample::merge`],
/// the sum of several workers' snapshots).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSample {
    /// Nanoseconds the group was enabled (summed across merges).
    pub time_enabled_ns: u64,
    /// Nanoseconds the group was actually counting.
    pub time_running_ns: u64,
    /// Per-kind readings, group order (leader first).
    pub readings: Vec<Reading>,
}

impl CounterSample {
    /// Scaled value of `kind`, if that event was opened.
    pub fn get(&self, kind: CounterKind) -> Option<u64> {
        self.readings
            .iter()
            .find(|r| r.kind == kind)
            .map(|r| r.scaled)
    }

    /// Whether the kernel time-sliced the group (readings are then
    /// scaled estimates rather than exact counts).
    pub fn multiplexed(&self) -> bool {
        self.time_running_ns < self.time_enabled_ns
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> Option<f64> {
        ratio(
            self.get(CounterKind::Instructions)?,
            self.get(CounterKind::Cycles)?,
        )
    }

    /// LLC misses per thousand instructions — the architecture
    /// literature's MPKI.
    pub fn mpki(&self) -> Option<f64> {
        let misses = self.get(CounterKind::LlcMisses)?;
        let instructions = self.get(CounterKind::Instructions)?;
        ratio(misses * 1000, instructions)
    }

    /// LLC miss rate: misses / references.
    fn llc_miss_rate(&self) -> Option<f64> {
        ratio(
            self.get(CounterKind::LlcMisses)?,
            self.get(CounterKind::LlcReferences)?,
        )
    }

    /// Scaled count of `kind` per processed item — with
    /// [`CounterKind::LlcMisses`], the paper's misses-per-item metric.
    pub fn per_item(&self, kind: CounterKind, items: u64) -> Option<f64> {
        if items == 0 {
            return None;
        }
        Some(self.get(kind)? as f64 / items as f64)
    }

    /// The counting *window* between an earlier snapshot of the same
    /// (cumulative, un-reset) group and this one: per-kind raw
    /// differences, differenced time bases, and the raw deltas
    /// re-extrapolated over the window's own multiplexing ratio
    /// ([`read::scale`] on the differenced times — the cumulative
    /// `scaled` fields cannot be subtracted, because each snapshot is
    /// extrapolated over a different ratio).
    ///
    /// This is how a worker attributes one segment batch's counts: read
    /// before, read after, `after.delta_since(&before)`. Two plain
    /// `read(2)`s per window — no reset, so the group's cumulative
    /// totals (the per-worker reading) survive. Kinds missing from
    /// `earlier` are treated as starting at zero; counter wrap-around
    /// (or a reset between the two snapshots) saturates at zero rather
    /// than producing garbage.
    pub fn delta_since(&self, earlier: &CounterSample) -> CounterSample {
        let dte = self.time_enabled_ns.saturating_sub(earlier.time_enabled_ns);
        let dtr = self.time_running_ns.saturating_sub(earlier.time_running_ns);
        CounterSample {
            time_enabled_ns: dte,
            time_running_ns: dtr,
            readings: self
                .readings
                .iter()
                .map(|r| {
                    let before = earlier
                        .readings
                        .iter()
                        .find(|e| e.kind == r.kind)
                        .map_or(0, |e| e.raw);
                    let raw = r.raw.saturating_sub(before);
                    Reading {
                        kind: r.kind,
                        raw,
                        scaled: read::scale(raw, dte, dtr),
                    }
                })
                .collect(),
        }
    }

    /// Accumulate another sample into this one: per-kind scaled and raw
    /// sums, summed time bases. Kinds present only in `other` are
    /// appended, so merging workers with differently-degraded groups
    /// keeps every event that counted anywhere.
    pub fn merge(&mut self, other: &CounterSample) {
        self.time_enabled_ns += other.time_enabled_ns;
        self.time_running_ns += other.time_running_ns;
        for r in &other.readings {
            match self.readings.iter_mut().find(|m| m.kind == r.kind) {
                Some(m) => {
                    m.raw += r.raw;
                    m.scaled += r.scaled;
                }
                None => self.readings.push(*r),
            }
        }
    }

    /// Sum samples (e.g. per-worker → per-run). `None` for an empty
    /// iterator — no worker had counters.
    pub fn sum<'a>(samples: impl IntoIterator<Item = &'a CounterSample>) -> Option<CounterSample> {
        let mut iter = samples.into_iter();
        let mut total = iter.next()?.clone();
        for s in iter {
            total.merge(s);
        }
        Some(total)
    }

    /// `(json key, scaled value)` for every kind in [`CounterKind::ALL`]
    /// — the single source of truth for report renderers, so a counter
    /// kind added here shows up in every JSON schema automatically.
    /// Events that did not open are `None`.
    fn event_kv(&self) -> Vec<(&'static str, Option<u64>)> {
        CounterKind::ALL
            .iter()
            .map(|&k| (k.json_key(), self.get(k)))
            .collect()
    }

    /// `(json key, value)` for the derived metrics. The misses-per-item
    /// entry is emitted only when the caller can attribute items to
    /// this sample (`items = Some(..)`): per-worker samples have no
    /// item denominator, and an absent key is honest where a `null`
    /// would read as "event didn't open".
    fn derived_kv(&self, items: Option<u64>) -> Vec<(&'static str, Option<f64>)> {
        let mut kv = Vec::with_capacity(4);
        if let Some(items) = items {
            kv.push((
                "llc_misses_per_item",
                self.per_item(CounterKind::LlcMisses, items),
            ));
        }
        kv.push(("mpki", self.mpki()));
        kv.push(("ipc", self.ipc()));
        kv.push(("llc_miss_rate", self.llc_miss_rate()));
        kv
    }

    /// JSON rendering: every event key (null where the event did not
    /// open), the derived metrics, and the multiplexed flag — the one
    /// renderer behind `ccs run-dag --counters` and
    /// `e20_cache_counters`, so their schemas cannot drift apart.
    pub fn to_json(&self, items: Option<u64>) -> serde_json::Value {
        let mut pairs: Vec<(String, serde_json::Value)> = Vec::new();
        for (key, v) in self.event_kv() {
            let v = serde_json::to_value(v).unwrap_or(serde_json::Value::Null);
            pairs.push((key.to_string(), v));
        }
        for (key, v) in self.derived_kv(items) {
            let v = serde_json::to_value(v).unwrap_or(serde_json::Value::Null);
            pairs.push((key.to_string(), v));
        }
        pairs.push((
            "multiplexed".to_string(),
            serde_json::Value::Bool(self.multiplexed()),
        ));
        serde_json::Value::Object(pairs)
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den != 0).then(|| num as f64 / den as f64)
}

/// A set of counters on the calling thread: either an open group or an
/// explanation of why there is none. Every operation on the
/// `Unavailable` arm is a no-op, so instrumented code paths never need
/// to branch on availability.
pub enum CounterSet {
    /// Counters are open and countable.
    Active(CounterGroup),
    /// Nothing could be opened (syscall denied, no PMU, non-Linux,
    /// `CCS_NO_PERF`, or counters simply not requested).
    Unavailable {
        /// Human-readable cause, surfaced in CLI/bench output.
        reason: String,
    },
}

impl CounterSet {
    /// The standard fallback constructor.
    pub fn unavailable(reason: impl Into<String>) -> CounterSet {
        CounterSet::Unavailable {
            reason: reason.into(),
        }
    }

    /// Whether a counter group is actually open.
    pub fn is_active(&self) -> bool {
        matches!(self, CounterSet::Active(_))
    }

    /// Why the set is unavailable (`None` when active).
    pub fn reason(&self) -> Option<&str> {
        match self {
            CounterSet::Active(_) => None,
            CounterSet::Unavailable { reason } => Some(reason),
        }
    }

    /// Kinds actually opened (empty when unavailable).
    pub fn kinds(&self) -> &[CounterKind] {
        match self {
            CounterSet::Active(g) => g.kinds(),
            CounterSet::Unavailable { .. } => &[],
        }
    }

    /// Start counting (atomically across the group).
    pub fn enable(&self) {
        if let CounterSet::Active(g) = self {
            g.enable();
        }
    }

    /// Stop counting.
    pub fn disable(&self) {
        if let CounterSet::Active(g) = self {
            g.disable();
        }
    }

    /// Zero the counter values.
    pub fn reset(&self) {
        if let CounterSet::Active(g) = self {
            g.reset();
        }
    }

    /// Snapshot the group; `None` when unavailable (or on a failed
    /// kernel read).
    pub fn sample(&self) -> Option<CounterSample> {
        match self {
            CounterSet::Active(g) => g.sample(),
            CounterSet::Unavailable { .. } => None,
        }
    }
}

/// Stub group type for non-Linux targets: never constructed (the
/// builder always returns [`CounterSet::Unavailable`] there), so its
/// methods are statically unreachable.
#[cfg(not(target_os = "linux"))]
pub struct CounterGroup {
    never: std::convert::Infallible,
}

#[cfg(not(target_os = "linux"))]
impl CounterGroup {
    /// Kinds opened (unreachable: the stub is never constructed).
    pub fn kinds(&self) -> &[CounterKind] {
        match self.never {}
    }
    /// Start counting (unreachable).
    pub fn enable(&self) {
        match self.never {}
    }
    /// Stop counting (unreachable).
    pub fn disable(&self) {
        match self.never {}
    }
    /// Zero the counters (unreachable).
    pub fn reset(&self) {
        match self.never {}
    }
    /// Snapshot the group (unreachable).
    pub fn sample(&self) -> Option<CounterSample> {
        match self.never {}
    }
}

/// Chooses which counters to open and opens them on the calling thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterBuilder {
    kinds: Vec<CounterKind>,
}

impl CounterBuilder {
    /// An empty builder; add kinds with [`CounterBuilder::counter`].
    pub fn new() -> CounterBuilder {
        CounterBuilder::default()
    }

    /// The full cache-measurement suite ([`CounterKind::ALL`]), hardware
    /// events first so one of them leads the group.
    pub fn cache_suite() -> CounterBuilder {
        CounterBuilder {
            kinds: CounterKind::ALL.to_vec(),
        }
    }

    /// Add a counter kind (duplicates are ignored).
    pub fn counter(mut self, kind: CounterKind) -> CounterBuilder {
        if !self.kinds.contains(&kind) {
            self.kinds.push(kind);
        }
        self
    }

    /// Kinds this builder will try to open, in order.
    pub fn kinds(&self) -> &[CounterKind] {
        &self.kinds
    }

    /// Open the counters as one group monitoring the calling thread.
    /// Kinds the kernel rejects individually are dropped; if nothing
    /// opens at all (or the platform/environment rules it out), the
    /// result is [`CounterSet::Unavailable`] with the reason — callers
    /// proceed identically either way.
    pub fn open_self_thread(&self) -> CounterSet {
        if let Some(reason) = env_disable_reason(std::env::var("CCS_NO_PERF").ok().as_deref()) {
            return CounterSet::Unavailable { reason };
        }
        if self.kinds.is_empty() {
            return CounterSet::unavailable("no counters requested");
        }
        self.open_platform()
    }

    #[cfg(target_os = "linux")]
    fn open_platform(&self) -> CounterSet {
        match sys::open_group(&self.kinds) {
            Ok(group) => CounterSet::Active(group),
            Err(reason) => CounterSet::Unavailable { reason },
        }
    }

    #[cfg(not(target_os = "linux"))]
    fn open_platform(&self) -> CounterSet {
        CounterSet::unavailable("perf_event_open is Linux-only")
    }
}

/// The `CCS_NO_PERF` kill switch, factored over the raw env value so
/// the policy is testable without mutating process state.
fn env_disable_reason(value: Option<&str>) -> Option<String> {
    match value {
        Some(v) if !v.is_empty() && v != "0" => Some("disabled by CCS_NO_PERF".to_string()),
        _ => None,
    }
}

/// Counter availability on this host, for diagnostics (`ccs topo`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Probe {
    /// Whether any counter opened.
    pub available: bool,
    /// Names of the events that opened, group order.
    pub events: Vec<&'static str>,
    /// Why nothing opened (when `available` is false).
    pub reason: Option<String>,
}

/// Try to open (and immediately close) the cache suite on this thread.
pub fn probe() -> Probe {
    let set = CounterBuilder::cache_suite().open_self_thread();
    Probe {
        available: set.is_active(),
        events: set.kinds().iter().map(|k| k.name()).collect(),
        reason: set.reason().map(str::to_string),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(readings: &[(CounterKind, u64)]) -> CounterSample {
        CounterSample {
            time_enabled_ns: 1_000,
            time_running_ns: 1_000,
            readings: readings
                .iter()
                .map(|&(kind, v)| Reading {
                    kind,
                    raw: v,
                    scaled: v,
                })
                .collect(),
        }
    }

    #[test]
    fn derived_metrics() {
        let s = sample(&[
            (CounterKind::LlcMisses, 500),
            (CounterKind::LlcReferences, 2_000),
            (CounterKind::Instructions, 1_000_000),
            (CounterKind::Cycles, 500_000),
        ]);
        assert_eq!(s.ipc(), Some(2.0));
        assert_eq!(s.mpki(), Some(0.5));
        assert_eq!(s.llc_miss_rate(), Some(0.25));
        assert_eq!(s.per_item(CounterKind::LlcMisses, 100), Some(5.0));
        assert_eq!(s.per_item(CounterKind::LlcMisses, 0), None);
        assert!(!s.multiplexed());
    }

    #[test]
    fn missing_events_yield_none_not_garbage() {
        let s = sample(&[(CounterKind::Instructions, 10)]);
        assert_eq!(s.ipc(), None);
        assert_eq!(s.mpki(), None);
        assert_eq!(s.llc_miss_rate(), None);
        assert_eq!(s.get(CounterKind::TaskClock), None);
        // Zero denominators are None, not inf/NaN.
        let z = sample(&[(CounterKind::Instructions, 10), (CounterKind::Cycles, 0)]);
        assert_eq!(z.ipc(), None);
    }

    #[test]
    fn delta_since_isolates_a_window() {
        // Cumulative snapshots before and after one segment batch.
        let before = CounterSample {
            time_enabled_ns: 1_000,
            time_running_ns: 1_000,
            readings: vec![Reading {
                kind: CounterKind::LlcMisses,
                raw: 40,
                scaled: 40,
            }],
        };
        let after = CounterSample {
            time_enabled_ns: 3_000,
            time_running_ns: 2_000,
            readings: vec![Reading {
                kind: CounterKind::LlcMisses,
                raw: 100,
                scaled: 150,
            }],
        };
        let d = after.delta_since(&before);
        assert_eq!(d.time_enabled_ns, 2_000);
        assert_eq!(d.time_running_ns, 1_000);
        let r = d.readings[0];
        assert_eq!(r.raw, 60);
        // Rescaled over the window's OWN ratio (2000/1000), not a
        // difference of the cumulative scaled fields (150-40 = 110).
        assert_eq!(r.scaled, 120);
        assert!(d.multiplexed());
    }

    #[test]
    fn delta_since_tolerates_new_kinds_and_wraps() {
        let before = sample(&[(CounterKind::Cycles, 500)]);
        // After: cycles wrapped (or were reset) below the earlier value,
        // and instructions appeared (kind absent earlier => from 0).
        let mut after = sample(&[(CounterKind::Cycles, 100), (CounterKind::Instructions, 7)]);
        after.time_enabled_ns = 2_000;
        after.time_running_ns = 2_000;
        let d = after.delta_since(&before);
        assert_eq!(d.get(CounterKind::Cycles), Some(0)); // saturates
        assert_eq!(d.get(CounterKind::Instructions), Some(7));
        assert_eq!(d.time_enabled_ns, 1_000);
        assert!(!d.multiplexed());
        // Windows compose: summing disjoint deltas never exceeds the
        // cumulative total (raw counts).
        let total = sample(&[(CounterKind::Cycles, 1_000)]);
        let w1 = sample(&[(CounterKind::Cycles, 300)]).delta_since(&sample(&[]));
        let w2 = total.delta_since(&sample(&[(CounterKind::Cycles, 600)]));
        let sum: u64 = [w1, w2]
            .iter()
            .filter_map(|w| w.readings.iter().find(|r| r.kind == CounterKind::Cycles))
            .map(|r| r.raw)
            .sum();
        assert!(sum <= 1_000);
    }

    #[test]
    fn merge_sums_matching_kinds_and_appends_new_ones() {
        let mut a = sample(&[(CounterKind::LlcMisses, 10), (CounterKind::Cycles, 100)]);
        let b = sample(&[(CounterKind::LlcMisses, 5), (CounterKind::Instructions, 7)]);
        a.merge(&b);
        assert_eq!(a.get(CounterKind::LlcMisses), Some(15));
        assert_eq!(a.get(CounterKind::Cycles), Some(100));
        assert_eq!(a.get(CounterKind::Instructions), Some(7));
        assert_eq!(a.time_enabled_ns, 2_000);
    }

    #[test]
    fn sum_over_workers() {
        let parts = [
            sample(&[(CounterKind::LlcMisses, 1)]),
            sample(&[(CounterKind::LlcMisses, 2)]),
            sample(&[(CounterKind::LlcMisses, 3)]),
        ];
        let total = CounterSample::sum(&parts).unwrap();
        assert_eq!(total.get(CounterKind::LlcMisses), Some(6));
        assert_eq!(CounterSample::sum([]), None);
    }

    #[test]
    fn kv_renderings_cover_every_kind_and_gate_per_item() {
        let s = sample(&[(CounterKind::LlcMisses, 10), (CounterKind::Instructions, 5)]);
        let events = s.event_kv();
        assert_eq!(events.len(), CounterKind::ALL.len());
        assert!(events.contains(&("llc_misses", Some(10))));
        assert!(events.contains(&("cycles", None)));
        assert!(events.iter().any(|&(k, _)| k == "task_clock_ns"));
        // Per-item only when items are attributable.
        let with = s.derived_kv(Some(5));
        assert_eq!(with[0], ("llc_misses_per_item", Some(2.0)));
        let without = s.derived_kv(None);
        assert!(without.iter().all(|&(k, _)| k != "llc_misses_per_item"));
    }

    #[test]
    fn to_json_covers_events_and_gates_per_item() {
        let s = sample(&[(CounterKind::LlcMisses, 10)]);
        let v = s.to_json(Some(5));
        assert_eq!(v["llc_misses"].as_u64(), Some(10));
        assert!(v["cycles"].is_null());
        assert_eq!(v["llc_misses_per_item"].as_f64(), Some(2.0));
        assert_eq!(v["multiplexed"].as_bool(), Some(false));
        // Without an item denominator the key is absent, not null.
        let w = s.to_json(None);
        let serde_json::Value::Object(pairs) = &w else {
            panic!("object expected");
        };
        assert!(pairs.iter().all(|(k, _)| k != "llc_misses_per_item"));
    }

    #[test]
    fn builder_dedups_and_names_are_stable() {
        let b = CounterBuilder::new()
            .counter(CounterKind::Cycles)
            .counter(CounterKind::Cycles)
            .counter(CounterKind::LlcMisses);
        assert_eq!(b.kinds().len(), 2);
        assert_eq!(CounterBuilder::cache_suite().kinds(), &CounterKind::ALL);
        assert_eq!(CounterKind::LlcMisses.name(), "llc-misses");
        assert_eq!(CounterKind::TaskClock.name(), "task-clock");
    }

    #[test]
    fn env_kill_switch_policy() {
        assert!(env_disable_reason(Some("1")).is_some());
        assert!(env_disable_reason(Some("yes")).is_some());
        assert!(env_disable_reason(Some("0")).is_none());
        assert!(env_disable_reason(Some("")).is_none());
        assert!(env_disable_reason(None).is_none());
    }

    #[test]
    fn empty_builder_is_cleanly_unavailable() {
        let set = CounterBuilder::new().open_self_thread();
        assert!(!set.is_active());
        assert!(set.reason().is_some());
        assert_eq!(set.sample(), None);
        assert!(set.kinds().is_empty());
        // No-ops, not panics.
        set.enable();
        set.disable();
        set.reset();
    }

    #[test]
    fn open_never_panics_and_probe_is_consistent() {
        // Whether or not this environment permits counters, the call
        // must return a usable CounterSet.
        let set = CounterBuilder::cache_suite().open_self_thread();
        match &set {
            CounterSet::Active(g) => assert!(!g.kinds().is_empty()),
            CounterSet::Unavailable { reason } => assert!(!reason.is_empty()),
        }
        let p = probe();
        assert_eq!(p.available, p.reason.is_none());
        assert_eq!(p.available, !p.events.is_empty());
    }
}
