//! Synthetic topology specifications.

use std::fmt;
use std::str::FromStr;

/// Shape of a synthetic machine: `nodes × clusters_per_node ×
/// cores_per_cluster`, written `NxCxK` (e.g. `2x2x4` = 2 NUMA nodes,
/// each with 2 LLC clusters of 4 cores). Deterministic: cpu ids are
/// numbered sequentially from 0 in cache-compact order, so the same
/// spec yields bit-identical placements on every host — the fallback
/// that makes topology-aware tests portable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TopoSpec {
    /// NUMA nodes in the machine.
    pub nodes: usize,
    /// LLC clusters per NUMA node.
    pub clusters_per_node: usize,
    /// Cores per LLC cluster.
    pub cores_per_cluster: usize,
}

impl TopoSpec {
    /// Build a spec; every level must be at least 1 (panics otherwise).
    pub fn new(nodes: usize, clusters_per_node: usize, cores_per_cluster: usize) -> TopoSpec {
        assert!(
            nodes >= 1 && clusters_per_node >= 1 && cores_per_cluster >= 1,
            "every level of a topology spec must be at least 1"
        );
        TopoSpec {
            nodes,
            clusters_per_node,
            cores_per_cluster,
        }
    }

    /// Parse a CLI-style spec: `NxCxK` (three levels), `CxK` (one NUMA
    /// node), or a bare core count `K` (one node, one cluster — the
    /// flat machine). Every level must be a positive integer.
    pub fn parse(s: &str) -> Option<TopoSpec> {
        let parts: Vec<&str> = s.split('x').collect();
        let nums: Vec<usize> = parts
            .iter()
            .map(|p| p.trim().parse::<usize>().ok().filter(|&n| n >= 1))
            .collect::<Option<_>>()?;
        match nums[..] {
            [cores] => Some(TopoSpec::new(1, 1, cores)),
            [clusters, cores] => Some(TopoSpec::new(1, clusters, cores)),
            [nodes, clusters, cores] => Some(TopoSpec::new(nodes, clusters, cores)),
            _ => None,
        }
    }
}

impl fmt::Display for TopoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}",
            self.nodes, self.clusters_per_node, self.cores_per_cluster
        )
    }
}

impl FromStr for TopoSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<TopoSpec, String> {
        TopoSpec::parse(s)
            .ok_or_else(|| format!("bad topology spec '{s}' (want NxCxK, CxK, or a core count)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_all_three_forms() {
        assert_eq!(TopoSpec::parse("8"), Some(TopoSpec::new(1, 1, 8)));
        assert_eq!(TopoSpec::parse("2x4"), Some(TopoSpec::new(1, 2, 4)));
        assert_eq!(TopoSpec::parse("2x2x4"), Some(TopoSpec::new(2, 2, 4)));
        assert_eq!(TopoSpec::parse(" 2 x 2 x 4 "), Some(TopoSpec::new(2, 2, 4)));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "0", "2x0x4", "-1x2", "axb", "1x2x3x4"] {
            assert_eq!(TopoSpec::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn display_roundtrips() {
        let s = TopoSpec::new(2, 3, 4);
        assert_eq!(TopoSpec::parse(&s.to_string()), Some(s));
        assert_eq!("2x3x4".parse::<TopoSpec>(), Ok(s));
        assert!("zzz".parse::<TopoSpec>().is_err());
    }
}
