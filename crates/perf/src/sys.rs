//! The Linux half: `perf_event_attr` construction, group opening via the
//! raw syscall, ioctls, and group reads. Everything here is
//! `cfg(target_os = "linux")` — the portable API in `lib.rs` is the only
//! thing other crates see.

use crate::read::{parse_group_read, scale};
use crate::{CounterKind, CounterSample, Reading};
use libc::{c_int, c_ulong};

/// Build the attribute block for one event. The leader starts disabled
/// (so the whole group springs to life atomically on one
/// `PERF_EVENT_IOC_ENABLE`); members start enabled and simply follow
/// the leader. Kernel and hypervisor work is excluded so unprivileged
/// processes (perf_event_paranoid = 2) can still open the counters.
pub(crate) fn attr_for(kind: CounterKind, leader: bool) -> libc::perf_event_attr {
    let (type_, config) = event_code(kind);
    let mut flags = libc::PERF_ATTR_FLAG_EXCLUDE_KERNEL | libc::PERF_ATTR_FLAG_EXCLUDE_HV;
    if leader {
        flags |= libc::PERF_ATTR_FLAG_DISABLED;
    }
    libc::perf_event_attr {
        type_,
        size: libc::PERF_ATTR_SIZE_VER1,
        config,
        read_format: libc::PERF_FORMAT_TOTAL_TIME_ENABLED
            | libc::PERF_FORMAT_TOTAL_TIME_RUNNING
            | libc::PERF_FORMAT_GROUP,
        flags,
        ..Default::default()
    }
}

/// The `(attr.type, attr.config)` encoding of each counter kind.
pub(crate) fn event_code(kind: CounterKind) -> (u32, u64) {
    let cache = |id: u64, op: u64, result: u64| id | (op << 8) | (result << 16);
    match kind {
        CounterKind::Cycles => (libc::PERF_TYPE_HARDWARE, libc::PERF_COUNT_HW_CPU_CYCLES),
        CounterKind::Instructions => (libc::PERF_TYPE_HARDWARE, libc::PERF_COUNT_HW_INSTRUCTIONS),
        CounterKind::CacheReferences => (
            libc::PERF_TYPE_HARDWARE,
            libc::PERF_COUNT_HW_CACHE_REFERENCES,
        ),
        CounterKind::CacheMisses => (libc::PERF_TYPE_HARDWARE, libc::PERF_COUNT_HW_CACHE_MISSES),
        CounterKind::LlcReferences => (
            libc::PERF_TYPE_HW_CACHE,
            cache(
                libc::PERF_COUNT_HW_CACHE_LL,
                libc::PERF_COUNT_HW_CACHE_OP_READ,
                libc::PERF_COUNT_HW_CACHE_RESULT_ACCESS,
            ),
        ),
        CounterKind::LlcMisses => (
            libc::PERF_TYPE_HW_CACHE,
            cache(
                libc::PERF_COUNT_HW_CACHE_LL,
                libc::PERF_COUNT_HW_CACHE_OP_READ,
                libc::PERF_COUNT_HW_CACHE_RESULT_MISS,
            ),
        ),
        CounterKind::TaskClock => (libc::PERF_TYPE_SOFTWARE, libc::PERF_COUNT_SW_TASK_CLOCK),
    }
}

/// `perf_event_open(2)` for the calling thread (`pid = 0, cpu = -1`):
/// count this thread wherever it runs — the self-monitoring attach each
/// worker performs after pinning itself.
fn open_self(attr: &libc::perf_event_attr, group_fd: c_int) -> Result<c_int, std::io::Error> {
    // SAFETY: `attr` is a live, initialised `perf_event_attr` the
    // kernel only reads, of the size its own `size` field states; the
    // other arguments are plain integers. The syscall returns an fd or
    // -1 and touches no other memory of ours.
    let fd = unsafe {
        libc::syscall(
            libc::SYS_perf_event_open,
            attr as *const libc::perf_event_attr,
            0 as libc::pid_t,
            -1 as c_int,
            group_fd,
            libc::PERF_FLAG_FD_CLOEXEC,
        )
    };
    if fd < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(fd as c_int)
    }
}

/// An open group of counters on the calling thread. Reads are atomic
/// across the group (`read_format = GROUP`): one `read(2)` on the
/// leader snapshots every member at the same instant, so ratios like
/// IPC and miss rates are internally consistent.
pub struct CounterGroup {
    /// Leader fd (also the read target).
    leader: c_int,
    /// Member fds, in open order.
    members: Vec<c_int>,
    /// Kind of each event, leader first — parallel to the value order
    /// of a group read.
    kinds: Vec<CounterKind>,
}

impl CounterGroup {
    /// Kinds actually opened, leader first.
    pub fn kinds(&self) -> &[CounterKind] {
        &self.kinds
    }

    fn ioctl_all(&self, request: c_ulong) {
        // SAFETY: `leader` is an fd this group opened and still owns
        // (closed only in `Drop`), and the enable, disable and reset
        // requests take an integer flag, not a pointer.
        unsafe {
            libc::ioctl(self.leader, request, libc::PERF_IOC_FLAG_GROUP);
        }
    }

    /// Start the whole group atomically.
    pub fn enable(&self) {
        self.ioctl_all(libc::PERF_EVENT_IOC_ENABLE);
    }

    /// Stop the whole group atomically.
    pub fn disable(&self) {
        self.ioctl_all(libc::PERF_EVENT_IOC_DISABLE);
    }

    /// Zero every counter value (the kernel's `time_enabled` /
    /// `time_running` bases keep accumulating — they describe the
    /// group, not the counts).
    pub fn reset(&self) {
        self.ioctl_all(libc::PERF_EVENT_IOC_RESET);
    }

    /// Snapshot the group: one atomic read, parsed and scaled for
    /// multiplexing. `None` only if the kernel read fails or returns a
    /// malformed buffer.
    pub fn sample(&self) -> Option<CounterSample> {
        let mut buf = vec![0u64; 3 + self.kinds.len()];
        let bytes = std::mem::size_of_val(&buf[..]);
        // SAFETY: `buf` is a live, writable buffer of `bytes` bytes, the
        // length passed, so the kernel writes only inside it; `leader`
        // is an fd this group owns.
        let n = unsafe { libc::read(self.leader, buf.as_mut_ptr().cast::<u8>(), bytes) };
        if n < 0 {
            return None;
        }
        let words = &buf[..(n as usize) / 8];
        let g = parse_group_read(words)?;
        if g.values.len() != self.kinds.len() {
            return None;
        }
        Some(CounterSample {
            time_enabled_ns: g.time_enabled,
            time_running_ns: g.time_running,
            readings: self
                .kinds
                .iter()
                .zip(&g.values)
                .map(|(&kind, &raw)| Reading {
                    kind,
                    raw,
                    scaled: scale(raw, g.time_enabled, g.time_running),
                })
                .collect(),
        })
    }
}

impl Drop for CounterGroup {
    fn drop(&mut self) {
        // SAFETY: every fd here was opened by this group and is closed
        // exactly once, here, as the group goes; nothing else owns them.
        unsafe {
            for &fd in &self.members {
                libc::close(fd);
            }
            libc::close(self.leader);
        }
    }
}

/// Open `kinds` as one group on the calling thread. The first kind the
/// kernel accepts becomes the leader; later kinds that fail to open
/// (PMU without that event, counter budget exhausted) are silently
/// dropped — partial groups are better than none. Only a total failure
/// (no event opens at all) is an error, with the errno of the last
/// attempt plus a `perf_event_paranoid` hint where it applies.
pub(crate) fn open_group(kinds: &[CounterKind]) -> Result<CounterGroup, String> {
    let mut group: Option<CounterGroup> = None;
    let mut last_err: Option<std::io::Error> = None;
    for &kind in kinds {
        match &mut group {
            None => match open_self(&attr_for(kind, true), -1) {
                Ok(fd) => {
                    group = Some(CounterGroup {
                        leader: fd,
                        members: Vec::new(),
                        kinds: vec![kind],
                    });
                }
                Err(e) => last_err = Some(e),
            },
            Some(g) => {
                if let Ok(fd) = open_self(&attr_for(kind, false), g.leader) {
                    g.members.push(fd);
                    g.kinds.push(kind);
                }
            }
        }
    }
    group.ok_or_else(|| {
        let e = last_err.expect("at least one open attempted");
        let hint = match e.raw_os_error() {
            // EACCES/EPERM: kernel.perf_event_paranoid (or a seccomp
            // filter) forbids unprivileged counters.
            Some(1) | Some(13) => " (check /proc/sys/kernel/perf_event_paranoid, see README)",
            _ => "",
        };
        format!("perf_event_open failed: {e}{hint}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_construction_leader_vs_member() {
        let leader = attr_for(CounterKind::LlcMisses, true);
        assert_eq!(leader.type_, libc::PERF_TYPE_HW_CACHE);
        // LL | (READ << 8) | (MISS << 16)
        assert_eq!(leader.config, 0x1_00_02);
        assert_eq!(leader.size, libc::PERF_ATTR_SIZE_VER1);
        assert_eq!(
            leader.read_format,
            libc::PERF_FORMAT_GROUP
                | libc::PERF_FORMAT_TOTAL_TIME_ENABLED
                | libc::PERF_FORMAT_TOTAL_TIME_RUNNING
        );
        assert_ne!(leader.flags & libc::PERF_ATTR_FLAG_DISABLED, 0);
        assert_ne!(leader.flags & libc::PERF_ATTR_FLAG_EXCLUDE_KERNEL, 0);
        assert_ne!(leader.flags & libc::PERF_ATTR_FLAG_EXCLUDE_HV, 0);
        // Counting mode: no sampling configured.
        assert_eq!(leader.sample_period_or_freq, 0);
        assert_eq!(leader.sample_type, 0);

        let member = attr_for(CounterKind::LlcMisses, false);
        assert_eq!(member.flags & libc::PERF_ATTR_FLAG_DISABLED, 0);
        assert_eq!(member.read_format, leader.read_format);
    }

    #[test]
    fn event_codes_match_the_kernel_abi() {
        assert_eq!(
            event_code(CounterKind::Cycles),
            (libc::PERF_TYPE_HARDWARE, 0)
        );
        assert_eq!(
            event_code(CounterKind::Instructions),
            (libc::PERF_TYPE_HARDWARE, 1)
        );
        assert_eq!(
            event_code(CounterKind::CacheMisses),
            (libc::PERF_TYPE_HARDWARE, 3)
        );
        // LLC references: LL | (READ << 8) | (ACCESS << 16) = 2.
        assert_eq!(
            event_code(CounterKind::LlcReferences),
            (libc::PERF_TYPE_HW_CACHE, 0x0_00_02)
        );
        assert_eq!(
            event_code(CounterKind::TaskClock),
            (libc::PERF_TYPE_SOFTWARE, 1)
        );
    }
}
