//! # ccs-topo — the host's cpus and caches
//!
//! The paper's model is set by a cache's size `M` and block size `B`,
//! and by nothing else. This crate reads those facts off the machine a
//! run is on:
//!
//! * the cpus this process may run on — online, and in its affinity
//!   mask;
//! * for each data or unified cache level, its [`CacheGeometry`]: size,
//!   associativity, line and the cpus that share it.
//!
//! Both come from Linux sysfs. Where sysfs is absent, the
//! cpus come from the affinity mask or `available_parallelism`, and the
//! caches are unknown. [`bind`] pins worker threads to the cpus with
//! `sched_setaffinity` (raw libc call behind the vendored shim; a
//! graceful no-op off Linux); `ccs-exec` uses it for `--pin-cores`.

#![warn(missing_docs)]

pub mod bind;
mod sysfs;

pub use bind::{current_affinity, pin_current_thread, plan_bindings, set_affinity, PinOutcome};

/// What a cache holds. Instruction caches hold no stream data and are
/// not listed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheKind {
    /// Data only (an L1d).
    Data,
    /// Data and instructions.
    Unified,
}

impl CacheKind {
    /// The sysfs `type` spelling (`Data`, `Unified`).
    pub fn name(&self) -> &'static str {
        match self {
            CacheKind::Data => "Data",
            CacheKind::Unified => "Unified",
        }
    }
}

/// One cache level as the first cpu of a [`Topology`] sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// 1 for L1, 2 for L2, …
    pub level: u32,
    /// Data or unified.
    pub kind: CacheKind,
    /// Capacity in bytes.
    pub size: u64,
    /// Associativity; `None` where sysfs does not give it (the file is
    /// missing, or reads 0).
    pub ways: Option<u32>,
    /// Line size in bytes; `None` where sysfs does not give it.
    pub line: Option<u32>,
    /// The cpus that share this cache, ascending.
    pub shared_cpus: Vec<usize>,
}

impl CacheGeometry {
    /// The usual short name: `L1d` for a data cache, `L2` for a unified
    /// one.
    pub fn name(&self) -> String {
        match self.kind {
            CacheKind::Data => format!("L{}d", self.level),
            CacheKind::Unified => format!("L{}", self.level),
        }
    }

    /// One line, e.g. `L1d 48 KiB, 12-way, 64 B line, cpus 0`.
    pub fn describe(&self) -> String {
        let ways = self
            .ways
            .map_or_else(|| "ways unknown".to_string(), |w| format!("{w}-way"));
        let line = self
            .line
            .map_or_else(|| "line unknown".to_string(), |l| format!("{l} B line"));
        format!(
            "{} {}, {ways}, {line}, cpus {}",
            self.name(),
            format_bytes(self.size),
            format_cpulist(&self.shared_cpus),
        )
    }
}

/// The machine a run is on: the cpus it may use and their caches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    cpus: Vec<usize>,
    caches: Vec<CacheGeometry>,
}

impl Topology {
    /// Read the host: the online cpus in this thread's affinity mask,
    /// and the caches of the first of them. Without sysfs, the mask's
    /// cpus (or `0..available_parallelism`) and no caches.
    pub fn discover() -> Topology {
        let allowed = current_affinity();
        sysfs::discover(allowed.as_deref()).unwrap_or_else(|| Topology {
            cpus: allowed.unwrap_or_else(|| {
                let n = std::thread::available_parallelism().map_or(1, |n| n.get());
                (0..n).collect()
            }),
            caches: Vec::new(),
        })
    }

    /// A machine of cpus `0..cpus` with unknown caches. It stays for
    /// `benchmark/src/sut.rs`, which names it, until ROADMAP item 1(c).
    pub fn single_cluster(cpus: usize) -> Topology {
        Topology {
            cpus: (0..cpus.max(1)).collect(),
            caches: Vec::new(),
        }
    }

    /// The cpus, ascending.
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    /// One entry per data or unified cache level, by level; empty where
    /// the caches are unknown.
    pub fn caches(&self) -> &[CacheGeometry] {
        &self.caches
    }

    /// One-line human summary, e.g. `2 cpus (0-1); L1d 48 KiB, L2 2 MiB,
    /// L3 300 MiB`.
    pub fn summary(&self) -> String {
        let n = self.cpus.len();
        let caches = if self.caches.is_empty() {
            "caches unknown".to_string()
        } else {
            let levels: Vec<String> = self
                .caches
                .iter()
                .map(|c| format!("{} {}", c.name(), format_bytes(c.size)))
                .collect();
            levels.join(", ")
        };
        format!(
            "{n} cpu{} ({}); {caches}",
            if n == 1 { "" } else { "s" },
            format_cpulist(&self.cpus),
        )
    }
}

/// A byte count in the largest binary unit that divides it (`48 KiB`,
/// `2 MiB`, `100 B`).
fn format_bytes(bytes: u64) -> String {
    for (unit, shift) in [("GiB", 30), ("MiB", 20), ("KiB", 10)] {
        if bytes >= 1 << shift && bytes.is_multiple_of(1 << shift) {
            return format!("{} {unit}", bytes >> shift);
        }
    }
    format!("{bytes} B")
}

/// Render a cpu set as a compressed kernel-style cpulist (`0-3,8,10-11`).
pub fn format_cpulist(cpus: &[usize]) -> String {
    let mut sorted = cpus.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut parts = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let start = sorted[i];
        let mut end = start;
        while i + 1 < sorted.len() && sorted[i + 1] == end + 1 {
            i += 1;
            end = sorted[i];
        }
        if start == end {
            parts.push(start.to_string());
        } else {
            parts.push(format!("{start}-{end}"));
        }
        i += 1;
    }
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_shape_is_exact() {
        // The benchmark's stand-in machine: cpus from 0, no caches.
        let t = Topology::single_cluster(4);
        assert_eq!(t.cpus(), &[0, 1, 2, 3]);
        assert!(t.caches().is_empty());
        assert_eq!(Topology::single_cluster(0).cpus(), &[0]);
    }

    #[test]
    fn discover_always_yields_cores() {
        let t = Topology::discover();
        assert!(!t.cpus().is_empty());
        assert!(t.cpus().windows(2).all(|w| w[0] < w[1]));
        // Levels ascend, and each cache is shared by the first cpu.
        assert!(t.caches().windows(2).all(|w| w[0].level <= w[1].level));
        for c in t.caches() {
            assert!(c.shared_cpus.contains(&t.cpus()[0]), "{c:?}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_hosts_l1d_has_a_geometry() {
        let t = Topology::discover();
        if t.caches().is_empty() {
            return; // no cache directory under this sysfs
        }
        let l1d = t.caches().iter().find(|c| c.level == 1).expect("an L1");
        assert_eq!(l1d.kind, CacheKind::Data, "{l1d:?}");
        assert!(l1d.size >= 1, "{l1d:?}");
        assert!(l1d.ways.is_some_and(|w| w >= 1), "{l1d:?}");
        assert!(l1d.line.is_some_and(|l| l >= 1), "{l1d:?}");
    }

    #[test]
    fn cpulist_formatting() {
        assert_eq!(format_cpulist(&[0, 1, 2, 3]), "0-3");
        assert_eq!(format_cpulist(&[3, 1, 0, 2]), "0-3");
        assert_eq!(format_cpulist(&[0, 2, 3, 8]), "0,2-3,8");
        assert_eq!(format_cpulist(&[5]), "5");
        assert_eq!(format_cpulist(&[]), "");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(48 << 10), "48 KiB");
        assert_eq!(format_bytes(2 << 20), "2 MiB");
        assert_eq!(format_bytes(1536), "1536 B");
        assert_eq!(format_bytes(64), "64 B");
    }

    #[test]
    fn summary_mentions_source_and_counts() {
        let mut t = Topology::single_cluster(4);
        assert_eq!(t.summary(), "4 cpus (0-3); caches unknown");
        t.caches.push(CacheGeometry {
            level: 1,
            kind: CacheKind::Data,
            size: 32 << 10,
            ways: None,
            line: Some(64),
            shared_cpus: vec![0],
        });
        assert_eq!(t.summary(), "4 cpus (0-3); L1d 32 KiB");
        assert_eq!(
            t.caches()[0].describe(),
            "L1d 32 KiB, ways unknown, 64 B line, cpus 0"
        );
    }
}
