//! Graphs more than one test file of this crate builds by hand.

use ccs_graph::{GraphBuilder, StreamGraph};

/// A pipeline whose two filter stages `ccs_apps::fir_instance` binds to
/// FIR kernels of awkward shapes: 27 taps consuming 5 (neither a
/// multiple of four, so the seam between carried window and input run
/// falls inside a chunk of four on most head firings) and 34 taps
/// consuming 1 (every firing of a run shorter than 34 reaches back
/// into the window, and its seam falls in the two leftover words).
pub fn awkward_fir_pipe() -> StreamGraph {
    let mut b = GraphBuilder::new();
    let src = b.node("src", 8);
    let coarse = b.node("lpf-27-by-5", 2 * 27);
    let fine = b.node("smooth-34", 2 * 34);
    let sink = b.node("sink", 8);
    b.edge(src, coarse, 1, 5);
    b.edge(coarse, fine, 1, 1);
    b.edge(fine, sink, 1, 1);
    b.build().expect("a rate-matched pipeline")
}
