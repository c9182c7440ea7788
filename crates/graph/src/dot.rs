//! Graphviz DOT export for inspection and debugging.

use crate::graph::StreamGraph;
use std::fmt::Write as _;

/// Render `g` as a DOT digraph. Node labels carry names (quotes and
/// backslashes escaped) and state sizes; edge labels
/// carry `produce:consume` rates.
pub fn to_dot(g: &StreamGraph) -> String {
    let mut s = String::new();
    s.push_str("digraph stream {\n  rankdir=LR;\n  node [shape=box];\n");
    for v in g.node_ids() {
        let n = g.node(v);
        let name = n.name.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = writeln!(s, "  n{} [label=\"{}\\ns={}\"];", v.0, name, n.state);
    }
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let _ = writeln!(
            s,
            "  n{} -> n{} [label=\"{}:{}\"];",
            edge.src.0, edge.dst.0, edge.produce, edge.consume
        );
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut b = GraphBuilder::new();
        let a = b.node("alpha", 7);
        let z = b.node("omega", 9);
        b.edge(a, z, 2, 3);
        let g = b.build().unwrap();
        let dot = to_dot(&g);
        assert!(dot.contains("alpha"));
        assert!(dot.contains("omega"));
        assert!(dot.contains("s=7"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("2:3"));
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn quotes_and_backslashes_in_names_are_escaped() {
        let mut b = GraphBuilder::new();
        let a = b.node(r#"say "hi""#, 1);
        let z = b.node(r"a\b", 2);
        b.edge(a, z, 1, 1);
        let dot = to_dot(&b.build().unwrap());
        assert!(dot.contains(r#"  n0 [label="say \"hi\"\ns=1"];"#), "{dot}");
        assert!(dot.contains(r#"  n1 [label="a\\b\ns=2"];"#), "{dot}");
    }
}
