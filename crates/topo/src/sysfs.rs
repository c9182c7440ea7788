//! Cpu and cache discovery from Linux sysfs.
//!
//! The kernel publishes both as plain files:
//!
//! * `/sys/devices/system/cpu/online` — the cpulist of usable cpus;
//! * `/sys/devices/system/cpu/cpu*/cache/index*/{level,type,size,
//!   ways_of_associativity,coherency_line_size,shared_cpu_list}` — one
//!   directory per cache the cpu sees.
//!
//! Everything here is plain file I/O, so the module compiles (and
//! returns `None`) on hosts without sysfs. Discovery is rooted at a path
//! so tests can point it at a fabricated tree and exercise the exact
//! parsing the real machine path uses.

use crate::{CacheGeometry, CacheKind, Topology};
use std::path::Path;

/// Discover the host from `/sys`, keeping only the cpus in `allowed`
/// when it is given. `None` when sysfs is absent, unreadable, or leaves
/// no cpu.
pub(crate) fn discover(allowed: Option<&[usize]>) -> Option<Topology> {
    discover_at(Path::new("/sys/devices/system"), allowed)
}

/// Discover from a sysfs-shaped tree rooted at `root` (`<root>/cpu/online`,
/// `<root>/cpu/cpu0/cache/index0/level`, …).
fn discover_at(root: &Path, allowed: Option<&[usize]>) -> Option<Topology> {
    let mut cpus = parse_cpulist(&read_file(&root.join("cpu/online"))?)?;
    if let Some(allowed) = allowed {
        cpus.retain(|c| allowed.contains(c));
    }
    let &first = cpus.first()?;
    Some(Topology {
        caches: caches_of(root, first),
        cpus,
    })
}

/// The data and unified caches `cpu` sees, by level. A cache directory
/// without a readable level, type, size or sharing list is skipped.
fn caches_of(root: &Path, cpu: usize) -> Vec<CacheGeometry> {
    let Ok(entries) = std::fs::read_dir(root.join(format!("cpu/cpu{cpu}/cache"))) else {
        return Vec::new();
    };
    let mut caches: Vec<CacheGeometry> = entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("index"))
        .filter_map(|e| cache_at(&e.path()))
        .collect();
    caches.sort_by_key(|c| c.level);
    caches
}

fn cache_at(dir: &Path) -> Option<CacheGeometry> {
    let kind = match read_file(&dir.join("type"))?.as_str() {
        "Data" => CacheKind::Data,
        "Unified" => CacheKind::Unified,
        // Instruction caches hold no stream data.
        _ => return None,
    };
    let number = |name: &str| {
        read_file(&dir.join(name))
            .and_then(|s| s.parse::<u32>().ok())
            .filter(|&n| n > 0)
    };
    Some(CacheGeometry {
        level: read_file(&dir.join("level"))?.parse().ok()?,
        kind,
        size: parse_size(&read_file(&dir.join("size"))?)?,
        ways: number("ways_of_associativity"),
        line: number("coherency_line_size"),
        shared_cpus: parse_cpulist(&read_file(&dir.join("shared_cpu_list"))?)?,
    })
}

fn read_file(path: &Path) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Parse a sysfs cache size (`48K`, `2048K`, `32M`, `512`) into bytes.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, shift) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 10),
        b'M' => (&s[..s.len() - 1], 20),
        b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    digits.parse::<u64>().ok()?.checked_mul(1 << shift)
}

/// Parse a kernel cpulist (`0-3,8,10-11`) into a sorted cpu vector.
/// `None` on malformed input; an empty string is the empty set.
fn parse_cpulist(s: &str) -> Option<Vec<usize>> {
    let s = s.trim();
    let mut cpus = Vec::new();
    if s.is_empty() {
        return Some(cpus);
    }
    for part in s.split(',') {
        let part = part.trim();
        match part.split_once('-') {
            Some((a, b)) => {
                let (a, b): (usize, usize) = (a.trim().parse().ok()?, b.trim().parse().ok()?);
                if a > b {
                    return None;
                }
                cpus.extend(a..=b);
            }
            None => cpus.push(part.parse().ok()?),
        }
    }
    cpus.sort_unstable();
    cpus.dedup();
    Some(cpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fake_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ccs-topo-sysfs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(root: &Path, rel: &str, content: &str) {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, content).unwrap();
    }

    /// Fabricate one cache directory of `cpu`; `ways` of `None` leaves
    /// `ways_of_associativity` out.
    fn write_cache(
        root: &Path,
        cpu: usize,
        index: usize,
        (level, kind, size): (u32, &str, &str),
        ways: Option<&str>,
        shared: &str,
    ) {
        let dir = format!("cpu/cpu{cpu}/cache/index{index}");
        write(root, &format!("{dir}/level"), &format!("{level}\n"));
        write(root, &format!("{dir}/type"), &format!("{kind}\n"));
        write(root, &format!("{dir}/size"), &format!("{size}\n"));
        if let Some(ways) = ways {
            write(root, &format!("{dir}/ways_of_associativity"), ways);
        }
        write(root, &format!("{dir}/coherency_line_size"), "64\n");
        write(
            root,
            &format!("{dir}/shared_cpu_list"),
            &format!("{shared}\n"),
        );
    }

    /// One cpu's caches: a private 32 KiB L1d and L1i, and an L3 of
    /// `l3` shared across `llc`.
    fn write_cpu_caches(root: &Path, cpu: usize, l3: &str, llc: &str) {
        let own = cpu.to_string();
        write_cache(root, cpu, 0, (1, "Data", "32K"), Some("8"), &own);
        write_cache(root, cpu, 1, (1, "Instruction", "32K"), Some("8"), &own);
        write_cache(root, cpu, 3, (3, "Unified", l3), Some("16"), llc);
    }

    #[test]
    fn cpulist_parses_kernel_forms() {
        assert_eq!(parse_cpulist("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpulist("0,2-3,8"), Some(vec![0, 2, 3, 8]));
        assert_eq!(parse_cpulist("5"), Some(vec![5]));
        assert_eq!(parse_cpulist(" 1 , 3 - 4 "), Some(vec![1, 3, 4]));
        assert_eq!(parse_cpulist(""), Some(vec![]));
        assert_eq!(parse_cpulist("3-1"), None);
        assert_eq!(parse_cpulist("a-b"), None);
    }

    #[test]
    fn sizes_parse_with_their_suffixes() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("2048K"), Some(2 << 20));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("1G"), Some(1 << 30));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("K"), None);
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("12X"), None);
    }

    #[test]
    fn discovers_two_nodes_two_llcs_each() {
        // Eight cpus on two NUMA nodes, each node two LLCs of two cpus:
        // {0,1} {2,3} {4,5} {6,7}. Nodes do not enter the model; the
        // geometry is the first cpu's view, so its L3 is shared by a
        // quarter of the machine.
        let root = fake_root("two-llc");
        write(&root, "cpu/online", "0-7\n");
        write(&root, "node/node0/cpulist", "0-3");
        write(&root, "node/node1/cpulist", "4-7");
        for cpu in 0..8 {
            let lo = cpu / 2 * 2;
            write_cpu_caches(&root, cpu, "16M", &format!("{}-{}", lo, lo + 1));
        }
        let t = discover_at(&root, None).unwrap();
        assert_eq!(t.cpus(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(
            t.caches(),
            &[
                CacheGeometry {
                    level: 1,
                    kind: CacheKind::Data,
                    size: 32 << 10,
                    ways: Some(8),
                    line: Some(64),
                    shared_cpus: vec![0],
                },
                CacheGeometry {
                    level: 3,
                    kind: CacheKind::Unified,
                    size: 16 << 20,
                    ways: Some(16),
                    line: Some(64),
                    shared_cpus: vec![0, 1],
                },
            ]
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_level_without_ways_gets_none_and_an_instruction_cache_is_skipped() {
        let root = fake_root("noways");
        write(&root, "cpu/online", "0");
        write_cache(&root, 0, 0, (1, "Instruction", "64K"), Some("4"), "0");
        write_cache(&root, 0, 1, (2, "Unified", "1024K"), None, "0");
        // A fully associative cache reads 0 ways: unknown, too.
        write_cache(&root, 0, 2, (3, "Unified", "8M"), Some("0"), "0");
        let t = discover_at(&root, None).unwrap();
        let levels: Vec<(u32, Option<u32>)> =
            t.caches().iter().map(|c| (c.level, c.ways)).collect();
        assert_eq!(levels, vec![(2, None), (3, None)]);
        assert_eq!(t.caches()[0].size, 1 << 20);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_cache_info_leaves_the_caches_unknown() {
        let root = fake_root("nocache");
        write(&root, "cpu/online", "0-3");
        let t = discover_at(&root, None).unwrap();
        assert_eq!(t.cpus(), &[0, 1, 2, 3]);
        assert!(t.caches().is_empty());
        // A directory that lacks its size is skipped, not guessed.
        write(&root, "cpu/cpu0/cache/index0/level", "1");
        write(&root, "cpu/cpu0/cache/index0/type", "Data");
        write(&root, "cpu/cpu0/cache/index0/shared_cpu_list", "0");
        assert!(discover_at(&root, None).unwrap().caches().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unreadable_root_is_none() {
        assert!(discover_at(Path::new("/nonexistent-sysfs-root"), None).is_none());
    }

    #[test]
    fn offline_cpus_are_excluded() {
        let root = fake_root("offline");
        write(&root, "cpu/online", "0,2");
        for cpu in [0usize, 1, 2] {
            write_cpu_caches(&root, cpu, "4M", "0-2");
        }
        let t = discover_at(&root, None).unwrap();
        assert_eq!(t.cpus(), &[0, 2]);
        // Pinning deals workers over the online cpus only.
        assert_eq!(crate::plan_bindings(&t, 3), vec![0, 2, 0]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn only_allowed_cpus_are_kept_and_the_first_of_them_is_read() {
        let root = fake_root("allowed");
        write(&root, "cpu/online", "0-3");
        for cpu in 0..4 {
            let llc = if cpu < 2 { "0-1" } else { "2-3" };
            write_cpu_caches(&root, cpu, "4M", llc);
        }
        let t = discover_at(&root, Some(&[2, 3, 9])).unwrap();
        assert_eq!(t.cpus(), &[2, 3]);
        assert_eq!(t.caches()[0].shared_cpus, vec![2]);
        assert_eq!(t.caches()[1].shared_cpus, vec![2, 3]);
        // A mask that meets no online cpu leaves nothing to discover.
        assert!(discover_at(&root, Some(&[7])).is_none());
        std::fs::remove_dir_all(&root).ok();
    }
}
