//! Binding worker threads to cores.
//!
//! Segment→worker affinity only pays off if the worker actually stays
//! on one core: otherwise the OS migrates the thread and the segment's
//! working set follows it from cache to cache. [`plan_bindings`] deals
//! workers onto cores in the topology's cache-compact order (fill one
//! LLC cluster before touching the next), and [`pin_current_thread`]
//! applies a binding with `sched_setaffinity` — a raw syscall through
//! the vendored `libc` shim on Linux, a graceful no-op elsewhere.

use crate::Topology;

/// One worker's planned core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreBinding {
    /// Worker index (0-based).
    pub worker: usize,
    /// Core index into [`Topology::cores`].
    pub core: usize,
    /// OS logical cpu id to pin to.
    pub cpu: usize,
}

/// What happened when a thread tried to pin itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinOutcome {
    /// The affinity mask was applied.
    Pinned,
    /// The kernel rejected the mask (cpu offline, outside the cgroup's
    /// cpuset, or a synthetic cpu id this machine doesn't have). The
    /// thread keeps its previous affinity and the run proceeds unpinned.
    Failed,
    /// Not a Linux host; pinning is compiled out.
    Unsupported,
}

impl PinOutcome {
    /// Whether the affinity mask actually took effect.
    pub fn pinned(&self) -> bool {
        matches!(self, PinOutcome::Pinned)
    }

    /// Short lowercase tag for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PinOutcome::Pinned => "pinned",
            PinOutcome::Failed => "failed",
            PinOutcome::Unsupported => "unsupported",
        }
    }
}

/// Plan which core each worker runs on, worker-count aware:
///
/// * **Spread** (`workers ≤ LLC clusters`): worker `w` takes the first
///   core of cluster `w`. Each worker gets a whole last-level cache to
///   itself — its segments' working sets never contend with a peer's —
///   and because clusters are ordered by `(node, lowest cpu)`, workers
///   still fill one NUMA node's clusters before touching the next
///   (cache-compact spreading, not a scatter).
/// * **Pack** (`workers > clusters`): worker `w` takes core `w mod
///   cores` in cache-compact core order, so consecutive workers fill
///   one LLC cluster before spilling into the next, and oversubscribed
///   runs (workers > cores) wrap around.
///
/// `ccs-exec` uses the same mapping for placement scoring and for
/// pinning, so the distance a placement was optimized for is the
/// distance the pinned run actually has.
pub fn plan_worker_cores(topo: &Topology, workers: usize) -> Vec<usize> {
    if workers <= topo.cluster_count() {
        (0..workers).map(|w| topo.cluster(w).cores[0]).collect()
    } else {
        (0..workers).map(|w| w % topo.core_count()).collect()
    }
}

/// Deal `workers` workers onto cores per [`plan_worker_cores`],
/// resolving each planned core index to its OS cpu id for
/// [`pin_current_thread`].
pub fn plan_bindings(topo: &Topology, workers: usize) -> Vec<CoreBinding> {
    plan_worker_cores(topo, workers)
        .into_iter()
        .enumerate()
        .map(|(w, core)| CoreBinding {
            worker: w,
            core,
            cpu: topo.core(core).cpu,
        })
        .collect()
}

/// Size of the affinity mask in 64-bit words (covers 1024 cpus, same as
/// glibc's `cpu_set_t`).
const MASK_WORDS: usize = 16;

/// Pin the calling thread to `cpu` (no-op off Linux).
pub fn pin_current_thread(cpu: usize) -> PinOutcome {
    set_affinity(std::slice::from_ref(&cpu))
}

/// The set of cpus the calling thread may run on, ascending. `None`
/// where unsupported or on syscall failure.
#[cfg(target_os = "linux")]
pub fn current_affinity() -> Option<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly
    // `MASK_WORDS * 8` bytes, the size passed, so the kernel writes
    // only inside it; pid 0 is the calling thread.
    let rc = unsafe { libc::sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let mut cpus = Vec::new();
    for (w, &word) in mask.iter().enumerate() {
        for b in 0..64 {
            if word & (1u64 << b) != 0 {
                cpus.push(w * 64 + b);
            }
        }
    }
    Some(cpus)
}

/// The set of cpus the calling thread may run on (`None` off Linux).
#[cfg(not(target_os = "linux"))]
pub fn current_affinity() -> Option<Vec<usize>> {
    None
}

/// Restrict the calling thread to `cpus` (single-cpu pinning and
/// restoring a previously observed set are both this call). `Failed`
/// leaves the previous affinity intact.
#[cfg(target_os = "linux")]
pub fn set_affinity(cpus: &[usize]) -> PinOutcome {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu >= MASK_WORDS * 64 {
            return PinOutcome::Failed;
        }
        mask[cpu / 64] |= 1u64 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly `MASK_WORDS * 8`
    // bytes, the size passed, which the kernel only reads; pid 0 is the
    // calling thread.
    let rc = unsafe { libc::sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
    if rc == 0 {
        PinOutcome::Pinned
    } else {
        PinOutcome::Failed
    }
}

/// Restrict the calling thread to `cpus` (no-op off Linux).
#[cfg(not(target_os = "linux"))]
pub fn set_affinity(_cpus: &[usize]) -> PinOutcome {
    PinOutcome::Unsupported
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopoSpec;

    #[test]
    fn bindings_fill_clusters_compactly() {
        let t = Topology::synthetic(&TopoSpec::new(1, 2, 2));
        let b = plan_bindings(&t, 6);
        assert_eq!(b.len(), 6);
        // 6 workers > 2 clusters: pack mode. Cores 0,1 are cluster 0;
        // 2,3 cluster 1; then wrap.
        let cores: Vec<usize> = b.iter().map(|x| x.core).collect();
        assert_eq!(cores, vec![0, 1, 2, 3, 0, 1]);
        assert!(b.iter().all(|x| x.cpu == t.core(x.core).cpu));
        assert_eq!(t.core(b[0].core).cluster, t.core(b[1].core).cluster);
        assert_ne!(t.core(b[1].core).cluster, t.core(b[2].core).cluster);
    }

    #[test]
    fn few_workers_spread_one_per_llc_cluster() {
        // 2 workers on a 2-cluster box: each gets its own LLC.
        let t = Topology::synthetic(&TopoSpec::new(1, 2, 2));
        assert_eq!(plan_worker_cores(&t, 2), vec![0, 2]);
        // 3 workers on a 2-node × 2-cluster × 2-core box: node 0's two
        // clusters first, then node 1's first cluster — compact spread.
        let t = Topology::synthetic(&TopoSpec::new(2, 2, 2));
        let cores = plan_worker_cores(&t, 3);
        assert_eq!(cores, vec![0, 2, 4]);
        let clusters: Vec<usize> = cores.iter().map(|&c| t.core(c).cluster).collect();
        assert_eq!(clusters, vec![0, 1, 2]);
        assert_eq!(t.core(cores[0]).node, t.core(cores[1]).node);
        // One worker: first core either way.
        assert_eq!(plan_worker_cores(&t, 1), vec![0]);
        // Exactly at the boundary (workers == clusters): still spread.
        assert_eq!(plan_worker_cores(&t, 4), vec![0, 2, 4, 6]);
        // Past it: pack.
        assert_eq!(plan_worker_cores(&t, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn absurd_cpu_id_fails_cleanly() {
        let out = pin_current_thread(usize::MAX);
        assert!(!out.pinned());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_and_restore_on_linux() {
        let Some(before) = current_affinity() else {
            return; // kernel said no; nothing to test
        };
        assert!(!before.is_empty());
        let target = before[0];
        assert_eq!(pin_current_thread(target), PinOutcome::Pinned);
        assert_eq!(current_affinity(), Some(vec![target]));
        assert_eq!(set_affinity(&before), PinOutcome::Pinned);
        assert_eq!(current_affinity(), Some(before));
    }

    #[test]
    fn outcome_names() {
        assert_eq!(PinOutcome::Pinned.name(), "pinned");
        assert!(PinOutcome::Pinned.pinned());
        assert!(!PinOutcome::Unsupported.pinned());
    }
}
