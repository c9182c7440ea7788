//! Property tests for timeline merging: the merged view is globally
//! time-ordered and never reorders one worker's events relative to
//! each other — the invariant every downstream consumer (the Chrome
//! exporter, phase analysis) relies on.

use ccs_obs::{merge_timelines, Event, EventKind};
use proptest::prelude::*;

/// Build one worker's timeline from timestamp *gaps* (so per-worker
/// monotonicity holds by construction, ties included: gap 0 repeats a
/// timestamp). The segment payload encodes the record order.
fn timeline(gaps: &[u64]) -> Vec<Event> {
    let mut ts = 0u64;
    gaps.iter()
        .enumerate()
        .map(|(i, &gap)| {
            ts += gap;
            Event {
                ts_ns: ts,
                dur_ns: 0,
                kind: EventKind::Batch { seg: i },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn merged_timelines_respect_per_worker_order(
        worker_gaps in prop::collection::vec(
            prop::collection::vec(0u64..50, 0..40),
            1..6,
        ),
    ) {
        let timelines: Vec<Vec<Event>> =
            worker_gaps.iter().map(|g| timeline(g)).collect();
        let input: Vec<(usize, &[Event])> = timelines
            .iter()
            .enumerate()
            .map(|(w, t)| (w, t.as_slice()))
            .collect();
        let merged = merge_timelines(&input);

        // Nothing lost, nothing invented.
        let total: usize = timelines.iter().map(|t| t.len()).sum();
        prop_assert_eq!(merged.len(), total);

        // Globally time-ordered.
        prop_assert!(merged.windows(2).all(|p| p[0].1.ts_ns <= p[1].1.ts_ns));

        // Each worker's events appear in exactly their recorded order
        // (the seg payload is that worker's record ordinal).
        for (w, t) in timelines.iter().enumerate() {
            let seen: Vec<usize> = merged
                .iter()
                .filter(|(mw, _)| *mw == w)
                .map(|(_, e)| match e.kind {
                    EventKind::Batch { seg } => seg,
                    _ => unreachable!(),
                })
                .collect();
            prop_assert_eq!(seen, (0..t.len()).collect::<Vec<_>>(), "worker {}", w);
        }
    }
}
