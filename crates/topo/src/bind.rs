//! Binding worker threads to cpus.
//!
//! Segment→worker affinity only pays off if the worker actually stays
//! on one cpu: otherwise the OS migrates the thread and the segment's
//! working set follows it from cache to cache. [`plan_bindings`] deals
//! workers onto the cpus this process may use, and [`pin_current_thread`]
//! applies a binding with `sched_setaffinity` — a raw syscall through
//! the vendored `libc` shim on Linux, a graceful no-op elsewhere.

use crate::Topology;

/// What happened when a thread tried to pin itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinOutcome {
    /// The affinity mask was applied.
    Pinned,
    /// The kernel rejected the mask (cpu offline or outside the
    /// cgroup's cpuset). The thread keeps its previous affinity and the
    /// run proceeds unpinned.
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

/// The cpu each of `workers` workers is pinned to: worker `w` takes
/// `cpus[w mod n]` of the topology's `n` cpus, so an oversubscribed run
/// (workers > cpus) wraps around.
pub fn plan_bindings(topo: &Topology, workers: usize) -> Vec<usize> {
    let cpus = topo.cpus();
    (0..workers).map(|w| cpus[w % cpus.len()]).collect()
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

    #[test]
    fn bindings_deal_workers_over_the_cpus() {
        let t = Topology::single_cluster(2);
        assert_eq!(plan_bindings(&t, 1), vec![0]);
        assert_eq!(plan_bindings(&t, 5), vec![0, 1, 0, 1, 0]);
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

    #[cfg(target_os = "linux")]
    #[test]
    fn bindings_stay_inside_the_affinity_mask() {
        // A cpuset-restricted process may not run on every online cpu:
        // pinning must deal workers only over the ones it may use.
        let Some(before) = current_affinity() else {
            return;
        };
        let only = *before.last().expect("a thread runs somewhere");
        assert_eq!(set_affinity(&[only]), PinOutcome::Pinned);
        let bindings = plan_bindings(&Topology::discover(), 3);
        assert_eq!(set_affinity(&before), PinOutcome::Pinned);
        assert_eq!(bindings, vec![only; 3]);
    }

    #[test]
    fn outcome_names() {
        assert_eq!(PinOutcome::Pinned.name(), "pinned");
        assert!(PinOutcome::Pinned.pinned());
        assert!(!PinOutcome::Unsupported.pinned());
    }
}
