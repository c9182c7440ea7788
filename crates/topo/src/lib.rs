//! # ccs-topo — machine topology for cache-conscious placement
//!
//! The paper's premise is that a segment's working set stays resident in
//! the cache of the core that runs it. For that to survive contact with a
//! real machine, the scheduler has to know *which* caches exist and who
//! shares them: pinning two heavily-communicating segments to cores that
//! share a last-level cache makes their cross traffic an LLC hit instead
//! of a cross-socket transfer (cf. communication-affine core mapping and
//! HPDC'23-style spatial streaming placement).
//!
//! This crate models the machine as a three-level tree
//!
//! ```text
//! machine → NUMA nodes → LLC clusters → cores
//! ```
//!
//! discovered at runtime from Linux sysfs ([`sysfs`]) with a
//! deterministic synthetic fallback ([`TopoSpec`]) so tests and
//! non-Linux hosts behave identically. On top of the tree:
//!
//! * [`Topology::distance`] — the placement cost order
//!   `SameCore < SameLlc < SameNode < CrossNode`;
//! * [`bind`] — a [`CoreBinding`] layer that pins worker threads to
//!   cores via `sched_setaffinity` (raw libc call behind the vendored
//!   shim; graceful no-op off Linux).
//!
//! `ccs-exec` consumes both for its `llc` placement mode and
//! `--pin-cores`.

#![warn(missing_docs)]

pub mod bind;
pub mod distance;
pub mod spec;
pub mod sysfs;

pub use bind::{
    current_affinity, pin_current_thread, plan_bindings, plan_worker_cores, set_affinity,
    CoreBinding, PinOutcome,
};
pub use distance::Distance;
pub use spec::TopoSpec;

/// One hardware execution context (a logical CPU).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Core {
    /// OS logical CPU id (`sched_setaffinity` target).
    pub cpu: usize,
    /// Index of the LLC cluster this core belongs to.
    pub cluster: usize,
    /// Index of the NUMA node this core belongs to.
    pub node: usize,
}

/// A set of cores sharing one last-level cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LlcCluster {
    /// Index of the NUMA node this cluster belongs to.
    pub node: usize,
    /// Core indices (into [`Topology::cores`]), ascending by cpu id.
    pub cores: Vec<usize>,
}

/// One NUMA domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NumaNode {
    /// The OS node id (`/sys/devices/system/node/node<id>`). Node
    /// *indices* are densely renumbered for placement math; this keeps
    /// the original numbering for diagnostics (`numactl`/`lscpu`
    /// cross-referencing), which may be non-contiguous.
    pub os_node: usize,
    /// Cluster indices (into [`Topology::clusters`]).
    pub clusters: Vec<usize>,
}

/// Where a topology came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoSource {
    /// Discovered from Linux `/sys`.
    Sysfs,
    /// Built from a [`TopoSpec`] (tests, non-Linux hosts, CLI `--topo`).
    Synthetic,
    /// Reloaded from a previously dumped description
    /// ([`Topology::from_replay`], CLI `--topo-from`): another (or an
    /// earlier) machine's tree, replayed here for placement inspection.
    Replay,
}

impl TopoSource {
    /// Short lowercase tag for reports (`sysfs`, `synthetic`, `replay`).
    pub fn name(&self) -> &'static str {
        match self {
            TopoSource::Sysfs => "sysfs",
            TopoSource::Synthetic => "synthetic",
            TopoSource::Replay => "replay",
        }
    }
}

/// The machine tree: NUMA nodes → LLC clusters → cores.
///
/// Construction normalizes the layout so consumers can rely on it:
/// nodes are ordered by their original numbering, clusters by
/// `(node, lowest cpu)`, and cores by cpu id within each cluster. Core
/// *indices* therefore enumerate the machine in cache-compact order —
/// walking `0..core_count()` fills one LLC cluster before touching the
/// next, which is exactly the order worker threads want for placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    source: TopoSource,
    nodes: Vec<NumaNode>,
    clusters: Vec<LlcCluster>,
    cores: Vec<Core>,
}

impl Topology {
    /// Assemble a topology from `(node id, cpus)` cluster groups.
    /// Groups are re-ordered deterministically (see type docs); empty
    /// groups are dropped. Panics if no group has a cpu.
    pub(crate) fn from_groups(
        source: TopoSource,
        mut groups: Vec<(usize, Vec<usize>)>,
    ) -> Topology {
        groups.retain(|(_, cpus)| !cpus.is_empty());
        assert!(!groups.is_empty(), "topology needs at least one core");
        for (_, cpus) in &mut groups {
            cpus.sort_unstable();
            cpus.dedup();
        }
        groups.sort_by_key(|(node, cpus)| (*node, cpus[0]));

        // Dense node renumbering in first-appearance (= sorted) order.
        let mut node_ids: Vec<usize> = groups.iter().map(|(n, _)| *n).collect();
        node_ids.dedup();
        let node_index = |n: usize| node_ids.iter().position(|&x| x == n).expect("seen");

        let mut nodes: Vec<NumaNode> = node_ids
            .iter()
            .map(|&os_node| NumaNode {
                os_node,
                clusters: Vec::new(),
            })
            .collect();
        let mut clusters = Vec::with_capacity(groups.len());
        let mut cores = Vec::new();
        for (raw_node, cpus) in groups {
            let node = node_index(raw_node);
            let ci = clusters.len();
            nodes[node].clusters.push(ci);
            let mut members = Vec::with_capacity(cpus.len());
            for cpu in cpus {
                members.push(cores.len());
                cores.push(Core {
                    cpu,
                    cluster: ci,
                    node,
                });
            }
            clusters.push(LlcCluster {
                node,
                cores: members,
            });
        }
        Topology {
            source,
            nodes,
            clusters,
            cores,
        }
    }

    /// Discover the host topology from sysfs; fall back to a flat
    /// synthetic topology (one node, one cluster, one core per unit of
    /// available parallelism) when sysfs is absent or unreadable.
    pub fn discover() -> Topology {
        sysfs::discover().unwrap_or_else(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            Topology::single_cluster(n)
        })
    }

    /// Build the deterministic synthetic topology described by `spec`:
    /// `nodes × clusters × cores`, cpus numbered sequentially from 0.
    pub fn synthetic(spec: &TopoSpec) -> Topology {
        let mut groups = Vec::new();
        let mut cpu = 0usize;
        for n in 0..spec.nodes {
            for _ in 0..spec.clusters_per_node {
                let cpus: Vec<usize> = (0..spec.cores_per_cluster).map(|i| cpu + i).collect();
                cpu += spec.cores_per_cluster;
                groups.push((n, cpus));
            }
        }
        Topology::from_groups(TopoSource::Synthetic, groups)
    }

    /// Rebuild a topology from externally supplied `(OS node id, cpus)`
    /// LLC-cluster groups — the replay path behind `ccs topo --from`
    /// and `run-dag --topo-from`, letting a placement computed for one
    /// machine be inspected on another. Groups are normalized exactly
    /// like discovery (see the type docs); panics if no group has a
    /// cpu, mirroring discovery's invariant.
    pub fn from_replay(groups: Vec<(usize, Vec<usize>)>) -> Topology {
        Topology::from_groups(TopoSource::Replay, groups)
    }

    /// A degenerate machine: `cores` cores all sharing one LLC on one
    /// node. The default when a placement needs a topology and none was
    /// provided — it makes `llc` placement coincide with pure
    /// communication-greedy placement.
    pub fn single_cluster(cores: usize) -> Topology {
        Topology::synthetic(&TopoSpec {
            nodes: 1,
            clusters_per_node: 1,
            cores_per_cluster: cores.max(1),
        })
    }

    /// Where this tree came from (discovery, spec, or replay).
    pub fn source(&self) -> TopoSource {
        self.source
    }

    /// Number of NUMA nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of LLC clusters across all nodes.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Number of cores (logical CPUs) across all clusters.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The NUMA node at dense index `i`.
    pub fn node(&self, i: usize) -> &NumaNode {
        &self.nodes[i]
    }

    /// The LLC cluster at index `i`.
    pub fn cluster(&self, i: usize) -> &LlcCluster {
        &self.clusters[i]
    }

    /// The core at index `i` (indices enumerate the machine in
    /// cache-compact order; see the type docs).
    pub fn core(&self, i: usize) -> Core {
        self.cores[i]
    }

    /// All NUMA nodes, in dense-index order.
    pub fn nodes(&self) -> &[NumaNode] {
        &self.nodes
    }

    /// All LLC clusters, ordered by `(node, lowest cpu)`.
    pub fn clusters(&self) -> &[LlcCluster] {
        &self.clusters
    }

    /// All cores, in cache-compact order.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// Placement distance between two cores (by core index):
    /// `SameCore < SameLlc < SameNode < CrossNode`.
    pub fn distance(&self, a: usize, b: usize) -> Distance {
        if a == b {
            Distance::SameCore
        } else if self.cores[a].cluster == self.cores[b].cluster {
            Distance::SameLlc
        } else if self.cores[a].node == self.cores[b].node {
            Distance::SameNode
        } else {
            Distance::CrossNode
        }
    }

    /// One-line human summary, e.g.
    /// `sysfs: 2 nodes x 4 llc clusters x 16 cores`.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} node{} x {} llc cluster{} x {} core{}",
            self.source.name(),
            self.node_count(),
            if self.node_count() == 1 { "" } else { "s" },
            self.cluster_count(),
            if self.cluster_count() == 1 { "" } else { "s" },
            self.core_count(),
            if self.core_count() == 1 { "" } else { "s" },
        )
    }
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
        let t = Topology::synthetic(&TopoSpec {
            nodes: 2,
            clusters_per_node: 2,
            cores_per_cluster: 4,
        });
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.cluster_count(), 4);
        assert_eq!(t.core_count(), 16);
        assert_eq!(t.source(), TopoSource::Synthetic);
        // cpus sequential, compact order = index order
        for (i, c) in t.cores().iter().enumerate() {
            assert_eq!(c.cpu, i);
        }
        // clusters 0,1 on node 0; 2,3 on node 1
        assert_eq!(t.cluster(0).node, 0);
        assert_eq!(t.cluster(3).node, 1);
        assert_eq!(t.node(1).clusters, vec![2, 3]);
    }

    #[test]
    fn distance_ordering_matches_tree() {
        let t = Topology::synthetic(&TopoSpec {
            nodes: 2,
            clusters_per_node: 2,
            cores_per_cluster: 2,
        });
        assert_eq!(t.distance(0, 0), Distance::SameCore);
        assert_eq!(t.distance(0, 1), Distance::SameLlc);
        assert_eq!(t.distance(0, 2), Distance::SameNode);
        assert_eq!(t.distance(0, 4), Distance::CrossNode);
        assert!(t.distance(0, 0) < t.distance(0, 1));
        assert!(t.distance(0, 1) < t.distance(0, 2));
        assert!(t.distance(0, 2) < t.distance(0, 4));
        // symmetric
        assert_eq!(t.distance(4, 0), Distance::CrossNode);
    }

    #[test]
    fn from_groups_normalizes_order() {
        // Shuffled nodes, unsorted cpus, an empty group.
        let t = Topology::from_groups(
            TopoSource::Synthetic,
            vec![(7, vec![9, 8]), (3, vec![]), (3, vec![4, 1]), (7, vec![2])],
        );
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.cluster_count(), 3);
        // Node 3 renumbered to 0, node 7 to 1; clusters by (node, min cpu).
        assert_eq!(t.cluster(0).node, 0);
        // The original OS numbering survives for diagnostics.
        assert_eq!(t.node(0).os_node, 3);
        assert_eq!(t.node(1).os_node, 7);
        let cpus: Vec<usize> = t.cores().iter().map(|c| c.cpu).collect();
        assert_eq!(cpus, vec![1, 4, 2, 8, 9]);
    }

    #[test]
    fn discover_always_yields_cores() {
        let t = Topology::discover();
        assert!(t.core_count() >= 1);
        assert!(t.cluster_count() >= 1);
        assert!(t.node_count() >= 1);
        // every core's back-pointers are consistent
        for (i, c) in t.cores().iter().enumerate() {
            assert!(t.cluster(c.cluster).cores.contains(&i));
            assert_eq!(t.cluster(c.cluster).node, c.node);
        }
    }

    #[test]
    fn replay_rebuilds_a_dumped_tree() {
        // Shaped like a `ccs topo --json` dump of a 2-node machine with
        // non-contiguous OS node ids.
        let t = Topology::from_replay(vec![(0, vec![0, 1]), (0, vec![2, 3]), (2, vec![4, 5])]);
        assert_eq!(t.source(), TopoSource::Replay);
        assert_eq!(t.source().name(), "replay");
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.cluster_count(), 3);
        assert_eq!(t.core_count(), 6);
        assert_eq!(t.node(1).os_node, 2);
        assert_eq!(t.distance(0, 1), Distance::SameLlc);
        assert_eq!(t.distance(0, 2), Distance::SameNode);
        assert_eq!(t.distance(0, 4), Distance::CrossNode);
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
    fn summary_mentions_source_and_counts() {
        let t = Topology::single_cluster(4);
        let s = t.summary();
        assert!(s.contains("synthetic"), "{s}");
        assert!(s.contains("4 cores"), "{s}");
    }
}
