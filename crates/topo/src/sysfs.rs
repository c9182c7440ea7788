//! Topology discovery from Linux sysfs.
//!
//! The kernel publishes the machine tree as plain files:
//!
//! * `/sys/devices/system/cpu/online` — the cpulist of usable cpus;
//! * `/sys/devices/system/node/node*/cpulist` — cpus per NUMA node;
//! * `/sys/devices/system/cpu/cpu*/cache/index*/{level,type,shared_cpu_list}`
//!   — the cache hierarchy; the highest-level unified/data cache is the
//!   LLC, and its `shared_cpu_list` names the cores in one cluster.
//!
//! Everything here is plain file I/O, so the module compiles (and
//! returns `None`) on hosts without sysfs — callers fall back to a
//! synthetic [`crate::TopoSpec`]. Discovery is rooted at a path so
//! tests can point it at a fabricated tree and exercise the exact
//! parsing the real machine path uses.

use crate::{TopoSource, Topology};
use std::collections::BTreeMap;
use std::path::Path;

/// Discover the host topology from `/sys`. `None` when sysfs is absent,
/// unreadable, or reports no online cpus.
pub fn discover() -> Option<Topology> {
    discover_at(Path::new("/sys/devices/system"))
}

/// Discover a topology from a sysfs-shaped tree rooted at `root`
/// (`<root>/cpu/online`, `<root>/node/node0/cpulist`, …).
fn discover_at(root: &Path) -> Option<Topology> {
    let online = parse_cpulist(&read(root, "cpu/online")?)?;
    if online.is_empty() {
        return None;
    }

    // NUMA node of each cpu; everything defaults to node 0 when the
    // node directory is absent (non-NUMA kernels omit it).
    let mut node_of: BTreeMap<usize, usize> = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(root.join("node")) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(id) = name
                .strip_prefix("node")
                .and_then(|s| s.parse::<usize>().ok())
            else {
                continue;
            };
            let Some(cpus) = read(root, &format!("node/node{id}/cpulist"))
                .as_deref()
                .and_then(parse_cpulist)
            else {
                continue;
            };
            for cpu in cpus {
                node_of.insert(cpu, id);
            }
        }
    }

    // Group online cpus by (node, LLC). A cpu whose cache directory is
    // missing or malformed lands in a per-node catch-all cluster.
    let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for &cpu in &online {
        let node = node_of.get(&cpu).copied().unwrap_or(0);
        let key = llc_key(root, cpu).unwrap_or(usize::MAX);
        groups.entry((node, key)).or_default().push(cpu);
    }
    Some(Topology::from_groups(
        TopoSource::Sysfs,
        groups.into_iter().map(|((n, _), cpus)| (n, cpus)).collect(),
    ))
}

/// Canonical LLC id for `cpu`: the lowest cpu sharing its highest-level
/// unified/data cache. Two cpus get the same key iff they share an LLC.
fn llc_key(root: &Path, cpu: usize) -> Option<usize> {
    let cache = root.join(format!("cpu/cpu{cpu}/cache"));
    let mut best: Option<(u32, usize)> = None;
    for entry in std::fs::read_dir(cache).ok()?.flatten() {
        let name = entry.file_name();
        if !name.to_string_lossy().starts_with("index") {
            continue;
        }
        let dir = entry.path();
        let Some(level) = read_file(&dir.join("level")).and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        // Instruction caches don't hold stream data; skip them.
        match read_file(&dir.join("type")).as_deref() {
            Some("Unified") | Some("Data") => {}
            _ => continue,
        }
        let Some(shared) = read_file(&dir.join("shared_cpu_list"))
            .as_deref()
            .and_then(parse_cpulist)
        else {
            continue;
        };
        let Some(&lowest) = shared.first() else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, lowest));
        }
    }
    best.map(|(_, lowest)| lowest)
}

fn read(root: &Path, rel: &str) -> Option<String> {
    read_file(&root.join(rel))
}

fn read_file(path: &Path) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
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

    /// Fabricate one cpu's cache directory: an L1d private to the cpu
    /// and an L3 shared across `llc`.
    fn write_cpu_caches(root: &Path, cpu: usize, llc: &str) {
        let base = format!("cpu/cpu{cpu}/cache");
        write(root, &format!("{base}/index0/level"), "1");
        write(root, &format!("{base}/index0/type"), "Data");
        write(
            root,
            &format!("{base}/index0/shared_cpu_list"),
            &cpu.to_string(),
        );
        write(root, &format!("{base}/index1/level"), "1");
        write(root, &format!("{base}/index1/type"), "Instruction");
        write(root, &format!("{base}/index1/shared_cpu_list"), "0-63");
        write(root, &format!("{base}/index3/level"), "3");
        write(root, &format!("{base}/index3/type"), "Unified");
        write(root, &format!("{base}/index3/shared_cpu_list"), llc);
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
    fn discovers_two_nodes_two_llcs_each() {
        let root = fake_root("full");
        write(&root, "cpu/online", "0-7\n");
        write(&root, "node/node0/cpulist", "0-3");
        write(&root, "node/node1/cpulist", "4-7");
        for cpu in 0..8 {
            // LLCs of two cpus each: {0,1} {2,3} {4,5} {6,7}.
            let lo = cpu / 2 * 2;
            write_cpu_caches(&root, cpu, &format!("{}-{}", lo, lo + 1));
        }
        let t = discover_at(&root).unwrap();
        assert_eq!(t.source(), TopoSource::Sysfs);
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.cluster_count(), 4);
        assert_eq!(t.core_count(), 8);
        assert_eq!(t.cluster(0).node, 0);
        assert_eq!(t.cluster(3).node, 1);
        // cpus 0,1 share a cluster; 1,2 don't.
        assert_eq!(t.core(0).cluster, t.core(1).cluster);
        assert_ne!(t.core(1).cluster, t.core(2).cluster);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_cache_info_collapses_to_one_cluster_per_node() {
        let root = fake_root("nocache");
        write(&root, "cpu/online", "0-3");
        write(&root, "node/node0/cpulist", "0-1");
        write(&root, "node/node1/cpulist", "2-3");
        let t = discover_at(&root).unwrap();
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.cluster_count(), 2);
        assert_eq!(t.core_count(), 4);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_node_dir_defaults_to_one_node() {
        let root = fake_root("nonode");
        write(&root, "cpu/online", "0-1");
        for cpu in 0..2 {
            write_cpu_caches(&root, cpu, "0-1");
        }
        let t = discover_at(&root).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.cluster_count(), 1);
        assert_eq!(t.core_count(), 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unreadable_root_is_none() {
        assert!(discover_at(Path::new("/nonexistent-sysfs-root")).is_none());
    }

    #[test]
    fn offline_cpus_are_excluded() {
        let root = fake_root("offline");
        write(&root, "cpu/online", "0,2");
        for cpu in [0usize, 1, 2] {
            write_cpu_caches(&root, cpu, "0-2");
        }
        let t = discover_at(&root).unwrap();
        assert_eq!(t.core_count(), 2);
        let cpus: Vec<usize> = t.cores().iter().map(|c| c.cpu).collect();
        assert_eq!(cpus, vec![0, 2]);
        std::fs::remove_dir_all(&root).ok();
    }
}
