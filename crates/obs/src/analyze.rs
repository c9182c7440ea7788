//! Stall analysis of a traced run, computed from its recorded events.
//!
//! One pass over each worker's [`Event`]s says where its time went —
//! its span split into batch, stall and idle time — and collects the
//! blamed stalls. Each names the edge whose gate failed, the segment it
//! blocked and the peer on the edge's other end, so they aggregate into
//! a who-blocks-whom table per edge (`producer-empty` = starvation,
//! `consumer-full` = backpressure), a ranking of culprit segments by
//! the stall time blamed on them, and the chain of blocking edges out
//! of the top culprit (who the bottleneck itself waits on). The
//! batch-boundary [`EventKind::RingOccupancy`] instants summarise into
//! per-ring fill statistics: a persistently full ring corroborates a
//! backpressure blame, an empty one a starvation blame.
//!
//! [`chrome::summary`](crate::chrome::summary) embeds the analysis in a
//! traced run's summary, the one `ccs run-dag` prints and `ccs sweep`
//! takes each cell's top bottleneck from.

use crate::event::{Event, EventKind, StallReason};
use serde_json::{json, Value};
use std::collections::BTreeMap;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One worker's time, from its batch and stall spans.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lane {
    /// Batch spans seen.
    batches: u64,
    /// Batch time, nanoseconds, net of the stalls inside batch spans (a
    /// batch waiting for its next granule is stalled, not busy).
    batch_ns: u64,
    /// Stall spans seen.
    stalls: u64,
    /// Stalls that fell through the spin tier into the condvar.
    parks: u64,
    /// Stall time, nanoseconds.
    stall_ns: u64,
    /// Earliest span start and latest span end; `None` without spans.
    bounds: Option<(u64, u64)>,
}

impl Lane {
    fn of(events: &[Event]) -> Lane {
        let mut lane = Lane {
            batches: 0,
            batch_ns: 0,
            stalls: 0,
            parks: 0,
            stall_ns: 0,
            bounds: None,
        };
        let mut batch_end = 0u64;
        for e in events {
            match e.kind {
                EventKind::Batch { .. } => {
                    lane.batches += 1;
                    lane.batch_ns += e.dur_ns;
                    batch_end = e.ts_ns + e.dur_ns;
                }
                EventKind::Stall { parked, .. } => {
                    lane.stalls += 1;
                    lane.parks += parked as u64;
                    lane.stall_ns += e.dur_ns;
                    // A stall inside a batch span is that batch waiting
                    // for its next granule: stall time, not batch time.
                    if e.ts_ns < batch_end {
                        lane.batch_ns = lane.batch_ns.saturating_sub(e.dur_ns);
                    }
                }
                _ => continue,
            }
            let (first, last) = lane.bounds.unwrap_or((u64::MAX, 0));
            lane.bounds = Some((first.min(e.ts_ns), last.max(e.ts_ns + e.dur_ns)));
        }
        lane
    }

    /// Wall-clock span this worker was active, nanoseconds.
    fn span_ns(&self) -> u64 {
        self.bounds.map_or(0, |(first, last)| last - first)
    }

    /// The span not accounted to batches or stalls.
    fn idle_ns(&self) -> u64 {
        self.span_ns()
            .saturating_sub(self.batch_ns)
            .saturating_sub(self.stall_ns)
    }

    /// The per-worker summary fields: the span and its batch, stall and
    /// idle split.
    pub(crate) fn json(&self) -> Vec<(&'static str, Value)> {
        let span = self.span_ns();
        vec![
            ("span_ms", json!(ms(span))),
            ("batches", json!(self.batches)),
            ("batch_ms", json!(ms(self.batch_ns))),
            ("stalls", json!(self.stalls)),
            ("parks", json!(self.parks)),
            ("stall_ms", json!(ms(self.stall_ns))),
            ("idle_ms", json!(ms(self.idle_ns()))),
            ("batch_share", json!(share(self.batch_ns, span))),
            ("stall_share", json!(share(self.stall_ns, span))),
            ("idle_share", json!(share(self.idle_ns(), span))),
        ]
    }
}

/// Every stall blamed on one edge through one side of its gate, summed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlameRow {
    /// The edge whose gate failed.
    edge: usize,
    /// The segment that could not run.
    blocked: usize,
    /// The peer on the edge's other end.
    culprit: usize,
    /// Which side of the gate failed.
    reason: StallReason,
    /// Stalls summed into the row.
    stalls: u64,
    /// Their total time, nanoseconds.
    stall_ns: u64,
}

/// A culprit segment and the dominant edge it blocks through: an entry
/// of the bottleneck ranking, or a link of the blocking chain.
#[derive(Clone, Copy, Debug)]
pub struct Bottleneck {
    /// Culprit segment.
    pub seg: usize,
    /// Edge carrying most of its blamed stall time.
    pub edge: usize,
    /// Gate side of that edge.
    pub reason: StallReason,
    /// Stall time blamed on the segment, nanoseconds: all of it in the
    /// ranking, that of the one edge in a chain link past the first.
    pub blamed_ns: u64,
    /// Stalls summed into `blamed_ns`.
    pub stalls: u64,
}

/// One ring's occupancy samples, summed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RingFill {
    /// Ring (edge) index.
    ring: usize,
    /// Samples taken.
    samples: u64,
    /// Sum of the sampled lengths, items.
    total_len: u64,
    /// Longest sampled length, items.
    max_len: u64,
    /// Ring capacity, items.
    cap: u64,
}

impl RingFill {
    /// Mean sampled length, items.
    fn mean_len(&self) -> f64 {
        self.total_len as f64 / self.samples as f64
    }

    /// Mean fill in [0, 1]; a zero-capacity ring reads as empty.
    fn mean_fill(&self) -> f64 {
        if self.cap == 0 {
            0.0
        } else {
            self.mean_len() / self.cap as f64
        }
    }
}

/// The analysis of one traced run.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Per-worker time, in input order.
    pub(crate) lanes: Vec<Lane>,
    /// Blame rows, longest blamed time first; a tie goes to the lower
    /// edge.
    blame: Vec<BlameRow>,
    /// Culprit segments, most blamed first; a tie goes to the lower
    /// segment.
    pub bottlenecks: Vec<Bottleneck>,
    /// The top culprit, then, link by link, the segment the previous one
    /// was itself most blocked by; it stops before a segment repeats.
    chain: Vec<Bottleneck>,
    /// Per-ring occupancy, by ring.
    occupancy: Vec<RingFill>,
}

impl Analysis {
    /// Analyze each worker's recorded events (chronological per worker).
    pub fn of(per_worker: &[&[Event]]) -> Analysis {
        let lanes = per_worker.iter().map(|events| Lane::of(events)).collect();
        let events = || per_worker.iter().flat_map(|events| events.iter());
        let blame = blame_rows(events());
        let bottlenecks = rank_bottlenecks(&blame);
        let chain = blocking_chain(&blame, &bottlenecks);
        let mut rings: BTreeMap<usize, RingFill> = BTreeMap::new();
        for e in events() {
            if let EventKind::RingOccupancy { ring, len, cap } = e.kind {
                let r = rings.entry(ring).or_insert(RingFill {
                    ring,
                    samples: 0,
                    total_len: 0,
                    max_len: 0,
                    cap: 0,
                });
                r.samples += 1;
                r.total_len += len;
                r.max_len = r.max_len.max(len);
                r.cap = r.cap.max(cap);
            }
        }
        Analysis {
            lanes,
            blame,
            bottlenecks,
            chain,
            occupancy: rings.into_values().collect(),
        }
    }

    /// Run-wide stall share: stall time over batch plus stall time,
    /// summed over the workers.
    fn stall_share(&self) -> f64 {
        let batch: u64 = self.lanes.iter().map(|l| l.batch_ns).sum();
        let stall: u64 = self.lanes.iter().map(|l| l.stall_ns).sum();
        share(stall, batch + stall)
    }

    /// The run-wide summary fields: the stall share, the blame table,
    /// ring occupancy, the bottleneck ranking and its chain.
    pub(crate) fn json(&self) -> Vec<(&'static str, Value)> {
        let total_blamed: u64 = self.blame.iter().map(|r| r.stall_ns).sum();
        let blame = self.blame.iter().map(|r| {
            json!({
                "edge": r.edge as u64,
                "blocked_seg": r.blocked as u64,
                "culprit_seg": r.culprit as u64,
                "reason": r.reason.name(),
                "stalls": r.stalls,
                "stall_ms": ms(r.stall_ns),
            })
        });
        let occupancy = self.occupancy.iter().map(|r| {
            json!({
                "ring": r.ring as u64,
                "samples": r.samples,
                "cap": r.cap,
                "mean_len": r.mean_len(),
                "max_len": r.max_len,
                "mean_fill": r.mean_fill(),
            })
        });
        let bottlenecks = self.bottlenecks.iter().map(|b| {
            json!({
                "seg": b.seg as u64,
                "edge": b.edge as u64,
                "reason": b.reason.name(),
                "blamed_ms": ms(b.blamed_ns),
                "stalls": b.stalls,
                "share": if total_blamed == 0 { 0.0 } else { ms(b.blamed_ns) / ms(total_blamed) },
            })
        });
        let chain = self.chain.iter().map(|c| {
            json!({
                "seg": c.seg as u64,
                "edge": c.edge as u64,
                "reason": c.reason.name(),
                "blamed_ms": ms(c.blamed_ns),
            })
        });
        vec![
            ("stall_share", json!(self.stall_share())),
            ("stall_blame", Value::Array(blame.collect())),
            ("occupancy", Value::Array(occupancy.collect())),
            ("bottlenecks", Value::Array(bottlenecks.collect())),
            ("chain", Value::Array(chain.collect())),
        ]
    }
}

fn blame_rows<'a>(events: impl Iterator<Item = &'a Event>) -> Vec<BlameRow> {
    let mut rows: BTreeMap<(usize, &'static str), BlameRow> = BTreeMap::new();
    for e in events {
        let EventKind::Stall {
            blocked: Some(b), ..
        } = e.kind
        else {
            continue;
        };
        let row = rows.entry((b.edge, b.reason.name())).or_insert(BlameRow {
            edge: b.edge,
            blocked: b.seg,
            culprit: b.peer,
            reason: b.reason,
            stalls: 0,
            stall_ns: 0,
        });
        row.stalls += 1;
        row.stall_ns += e.dur_ns;
    }
    let mut rows: Vec<BlameRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.stall_ns.cmp(&a.stall_ns).then(a.edge.cmp(&b.edge)));
    rows
}

/// Rank culprit segments by all the stall time blamed on them, each
/// named by its dominant row.
fn rank_bottlenecks(rows: &[BlameRow]) -> Vec<Bottleneck> {
    let mut per_culprit: BTreeMap<usize, (u64, u64, BlameRow)> = BTreeMap::new();
    for &row in rows {
        let e = per_culprit.entry(row.culprit).or_insert((0, 0, row));
        e.0 += row.stall_ns;
        e.1 += row.stalls;
        if row.stall_ns > e.2.stall_ns {
            e.2 = row;
        }
    }
    let mut out: Vec<Bottleneck> = per_culprit
        .into_iter()
        .map(|(seg, (blamed_ns, stalls, dom))| Bottleneck {
            seg,
            edge: dom.edge,
            reason: dom.reason,
            blamed_ns,
            stalls,
        })
        .collect();
    out.sort_by(|a, b| b.blamed_ns.cmp(&a.blamed_ns).then(a.seg.cmp(&b.seg)));
    out
}

/// The top culprit, then at each step the dominant row in which the
/// current segment is the one waiting. A segment seen before ends the
/// chain, so mutual blocking cannot loop.
fn blocking_chain(rows: &[BlameRow], ranking: &[Bottleneck]) -> Vec<Bottleneck> {
    let Some(&top) = ranking.first() else {
        return Vec::new();
    };
    let mut chain = vec![top];
    while let Some(row) = rows
        .iter()
        .filter(|r| r.blocked == chain[chain.len() - 1].seg)
        .max_by_key(|r| r.stall_ns)
    {
        if chain.iter().any(|c| c.seg == row.culprit) {
            break;
        }
        chain.push(Bottleneck {
            seg: row.culprit,
            edge: row.edge,
            reason: row.reason,
            blamed_ns: row.stall_ns,
            stalls: row.stalls,
        });
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Blocked;

    const EMPTY: StallReason = StallReason::ProducerEmpty;
    const FULL: StallReason = StallReason::ConsumerFull;

    fn blamed(edge: usize, seg: usize, peer: usize, reason: StallReason, dur_ns: u64) -> Event {
        Event {
            ts_ns: 0,
            dur_ns,
            kind: EventKind::Stall {
                parked: false,
                blocked: Some(Blocked {
                    edge,
                    seg,
                    peer,
                    reason,
                }),
            },
        }
    }

    #[test]
    fn blame_rows_merge_across_workers_per_edge_and_gate_side() {
        let w0 = [blamed(2, 1, 0, EMPTY, 100), blamed(2, 1, 0, FULL, 50)];
        let w1 = [blamed(2, 1, 0, EMPTY, 300), blamed(0, 3, 2, EMPTY, 400)];
        let got: Vec<(usize, &str, u64, u64)> = Analysis::of(&[&w0, &w1])
            .blame
            .iter()
            .map(|r| (r.edge, r.reason.name(), r.stalls, r.stall_ns))
            .collect();
        // Longest blamed time first; a tie goes to the lower edge.
        assert_eq!(
            got,
            vec![
                (0, "producer-empty", 1, 400),
                (2, "producer-empty", 2, 400),
                (2, "consumer-full", 1, 50),
            ]
        );
    }

    #[test]
    fn a_culprit_is_ranked_by_all_its_blame_and_named_by_its_dominant_edge() {
        // Segment 0 starves 1 through edge 0 (300 ns) and backpressures
        // 2 through edge 1 (500 ns); segment 4 starves 5 for 600 ns.
        let events = [
            blamed(0, 1, 0, EMPTY, 300),
            blamed(1, 2, 0, FULL, 500),
            blamed(5, 5, 4, EMPTY, 600),
        ];
        let got: Vec<(usize, usize, StallReason, u64, u64)> = Analysis::of(&[&events])
            .bottlenecks
            .iter()
            .map(|b| (b.seg, b.edge, b.reason, b.stalls, b.blamed_ns))
            .collect();
        assert_eq!(got, vec![(0, 1, FULL, 2, 800), (4, 5, EMPTY, 1, 600)]);
    }

    #[test]
    fn the_blocking_chain_stops_at_a_cycle() {
        // 2 waits on 1, 1 waits on 0, and 0 waits on 2: a ring of
        // mutual blocking must not loop.
        let events = [
            blamed(0, 2, 1, EMPTY, 900),
            blamed(1, 1, 0, EMPTY, 500),
            blamed(2, 0, 2, FULL, 100),
        ];
        let a = Analysis::of(&[&events]);
        assert_eq!(a.bottlenecks[0].seg, 1);
        let segs: Vec<usize> = a.chain.iter().map(|c| c.seg).collect();
        assert_eq!(segs, vec![1, 0, 2]);
        assert!(Analysis::of(&[&[]]).chain.is_empty());
    }

    #[test]
    fn occupancy_is_summarised_per_ring() {
        let p = |ring, len, cap| Event {
            ts_ns: 0,
            dur_ns: 0,
            kind: EventKind::RingOccupancy { ring, len, cap },
        };
        let events = [p(1, 2, 8), p(0, 0, 0), p(1, 6, 8), p(1, 1, 8)];
        let rings = Analysis::of(&[&events]).occupancy;
        assert_eq!(rings.len(), 2);
        assert_eq!(rings[0].ring, 0);
        // A zero-capacity ring reads as empty, not as NaN.
        assert_eq!(rings[0].mean_fill(), 0.0);
        assert_eq!((rings[1].samples, rings[1].max_len), (3, 6));
        assert_eq!(rings[1].mean_len(), 3.0);
        assert_eq!(rings[1].mean_fill(), 3.0 / 8.0);
    }

    #[test]
    fn an_empty_trace_has_zero_shares_and_no_bottleneck() {
        let a = Analysis::of(&[&[]]);
        let lane: Vec<(&str, Value)> = a.lanes[0].json();
        let field = |key: &str| lane.iter().find(|(k, _)| *k == key).unwrap().1.as_f64();
        assert_eq!(field("span_ms"), Some(0.0));
        for key in ["batch_share", "stall_share", "idle_share"] {
            assert_eq!(field(key), Some(0.0), "{key}");
        }
        assert!(a.bottlenecks.is_empty() && a.blame.is_empty());
        assert_eq!(a.stall_share(), 0.0);
    }
}
