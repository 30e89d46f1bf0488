//! The timeout failure detector's O(active) state (see DESIGN §13).

use crate::engine::Believed;
use crate::par::PerPart;
use gr_topology::{Graph, NodeId};

/// Packs a timing-wheel / suspect-list entry: owner node in the high 32
/// bits, global arc index in the low 32. Sorting packed entries ascending
/// is exactly (node asc, arc asc) order.
#[inline]
pub(crate) fn pack_arc(node: NodeId, arc: usize) -> u64 {
    ((node as u64) << 32) | arc as u64
}

/// The `(node, arc)` pair of a packed entry.
#[inline]
pub(crate) fn unpack_arc(e: u64) -> (NodeId, usize) {
    ((e >> 32) as NodeId, (e & 0xFFFF_FFFF) as usize)
}

/// Partition of `node` when `n` nodes are split into `partitions`
/// contiguous blocks starting at `⌊p·n/P⌋` (the exact inverse).
#[inline]
pub(crate) fn part_index(node: NodeId, partitions: usize, n: usize) -> usize {
    (((node as u64 + 1) * partitions as u64 - 1) / n as u64) as usize
}

/// O(active) timeout-detector state for one partition's arc range
/// (`P == 1`: a single part covering every arc).
///
/// The legacy detector scanned every believed arc every round. Here each
/// *monitored* arc — owner alive, neighbor believed — keeps exactly one
/// entry in a timing wheel, parked in the slot of its current deadline
/// `last_heard + window`. A round's scan touches only the entries whose
/// slot comes due: an entry whose silence clock was reset re-parks at its
/// new deadline, an entry that stopped being monitored is dropped
/// (re-armed by the heal/restart/arrival paths that resume monitoring),
/// and the remainder fire as suspicions — at exactly the round the full
/// scan would have found them, which keeps golden detector hashes
/// byte-identical.
#[derive(Default)]
pub(crate) struct DetectorPart {
    /// First global arc index of this part's range; bit `arc - arc_start`
    /// in the masks below. Per-part masks are separate allocations, so
    /// parallel workers never touch the same word.
    arc_start: usize,
    /// `i` suspects `j` ⇔ bit for `arc(i→j)` set.
    suspected: Vec<u64>,
    /// Arc currently holds a timing-wheel entry.
    in_wheel: Vec<u64>,
    /// `wheel[deadline % wheel.len()]` holds the entries to examine when
    /// `round ≡ deadline`; length `min(window, 4096) + 1` so a re-park
    /// never lands back in the slot being drained (deadlines beyond one
    /// lap just take extra no-op hops).
    wheel: Vec<Vec<u64>>,
    /// Scratch: entries due this round, sorted (node asc, arc desc) to
    /// replay the legacy backward believed-list walk.
    pub(crate) due: Vec<u64>,
    /// Sorted packed entries for every suspected arc — the probe fan-out
    /// iterates this instead of scanning the bitmask over all nodes.
    pub(crate) suspects: Vec<u64>,
}

impl DetectorPart {
    fn new(arc_start: usize, arc_end: usize, window: u64) -> Self {
        let arcs = arc_end - arc_start;
        let wheel_len = (window.min(4096) + 1) as usize;
        DetectorPart {
            arc_start,
            suspected: vec![0; arcs.div_ceil(64)],
            in_wheel: vec![0; arcs.div_ceil(64)],
            wheel: (0..wheel_len).map(|_| Vec::new()).collect(),
            due: Vec::new(),
            suspects: Vec::new(),
        }
    }

    #[inline]
    fn bit(&self, arc: usize) -> (usize, u64) {
        let a = arc - self.arc_start;
        (a / 64, 1 << (a % 64))
    }

    /// Start suspecting over the packed entry `e`.
    #[inline]
    pub(crate) fn suspect(&mut self, e: u64) {
        let (w, b) = self.bit(unpack_arc(e).1);
        self.suspected[w] |= b;
        if let Err(pos) = self.suspects.binary_search(&e) {
            self.suspects.insert(pos, e);
        }
    }

    /// Drop any suspicion over `arc` (owned by `node`); `true` if there
    /// was one.
    #[inline]
    fn unsuspect(&mut self, node: NodeId, arc: usize) -> bool {
        let (w, b) = self.bit(arc);
        if self.suspected[w] & b == 0 {
            return false;
        }
        self.suspected[w] &= !b;
        if let Ok(pos) = self.suspects.binary_search(&pack_arc(node, arc)) {
            self.suspects.remove(pos);
        }
        true
    }

    /// Ensure `arc` (owned by `node`) has a wheel entry; parks it at
    /// `deadline` if it had none. Callers pass the arc's current
    /// `last_heard + window`, which is `> round` on every arm path.
    #[inline]
    fn arm(&mut self, node: NodeId, arc: usize, deadline: u64) {
        let (w, b) = self.bit(arc);
        if self.in_wheel[w] & b == 0 {
            self.in_wheel[w] |= b;
            let slot = (deadline % self.wheel.len() as u64) as usize;
            self.wheel[slot].push(pack_arc(node, arc));
        }
    }
}

/// The timeout detector of one simulator: silence clocks for every arc
/// plus one [`DetectorPart`] per partition. Absent under the oracle
/// detector, where scheduled faults are reported by the fault book.
pub struct Detector {
    /// Silence threshold in rounds.
    window: u64,
    /// `last_heard[arc_base(i) + neighbor_slot(i, j)]` = last round a
    /// message from `j` reached `i`'s receive handler. One global array —
    /// partitions touch element-disjoint, partition-contiguous ranges.
    last_heard: Vec<u64>,
    pub(crate) parts: PerPart<DetectorPart>,
    partitions: usize,
}

impl Detector {
    /// A detector over `graph` split at `part_starts` (empty: one part),
    /// with every arc monitored on an untouched silence clock.
    pub(crate) fn new(graph: &Graph, window: u64, part_starts: &[NodeId]) -> Self {
        assert!(
            graph.arc_count() <= u32::MAX as usize,
            "timeout detector packs arc ids into 32 bits"
        );
        let bounds: Vec<NodeId> = if part_starts.is_empty() {
            vec![0, graph.len() as NodeId]
        } else {
            part_starts.to_vec()
        };
        let arc_at = |i: NodeId| {
            if i as usize == graph.len() {
                graph.arc_count()
            } else {
                graph.arc_base(i)
            }
        };
        let parts = PerPart::from_fn(bounds.len() - 1, |p| {
            let (ns, ne) = (bounds[p], bounds[p + 1]);
            let mut d = DetectorPart::new(arc_at(ns), arc_at(ne), window);
            for i in ns..ne {
                let base = graph.arc_base(i);
                for s in 0..graph.degree(i) {
                    d.arm(i, base + s, window);
                }
            }
            d
        });
        Detector {
            window,
            last_heard: vec![0; graph.arc_count()],
            partitions: bounds.len() - 1,
            parts,
        }
    }

    /// A message from `src` reached `dst` over `arc` (in part `p`):
    /// restart the arc's silence clock and keep it monitored. `true` if
    /// `dst` suspected `src`, which the caller then rehabilitates.
    #[inline]
    pub(crate) fn hear(&mut self, p: usize, dst: NodeId, arc: usize, round: u64) -> bool {
        let part = &mut self.parts[p];
        let was_suspected = part.unsuspect(dst, arc);
        self.last_heard[arc] = round;
        part.arm(dst, arc, round.saturating_add(self.window));
        was_suspected
    }

    /// Forget any suspicion of `neighbor` by `node` and restart the arc's
    /// silence clock (heal/restart bookkeeping): the arc is (back) under
    /// monitoring.
    pub(crate) fn resume(&mut self, graph: &Graph, node: NodeId, neighbor: NodeId, round: u64) {
        if let Some(slot) = graph.neighbor_slot(node, neighbor) {
            let p = if self.partitions > 1 {
                part_index(node, self.partitions, graph.len())
            } else {
                0
            };
            self.hear(p, node, graph.arc_base(node) + slot, round);
        }
    }

    /// Timing-wheel maintenance for part `p`: drain the slot due at
    /// `round` into the part's `due` list (the arcs to suspect, sorted),
    /// re-parking entries whose silence clock was reset and dropping
    /// entries that stopped being monitored. Consumes no RNG.
    pub(crate) fn collect_due(&mut self, p: usize, graph: &Graph, believed: &Believed, round: u64) {
        let det = &mut self.parts[p];
        let wheel_len = det.wheel.len() as u64;
        let si = (round % wheel_len) as usize;
        let len0 = det.wheel[si].len();
        det.due.clear();
        for k in 0..len0 {
            let e = det.wheel[si][k];
            let (node, arc) = unpack_arc(e);
            let deadline = self.last_heard[arc].saturating_add(self.window);
            if deadline > round {
                // Heard from since parking: re-park at the new deadline
                // (same-slot pushes land past `len0` and are not re-read).
                let slot = (deadline % wheel_len) as usize;
                det.wheel[slot].push(e);
                continue;
            }
            // Due. The entry leaves the wheel either way: a suspicion
            // stops monitoring until rehabilitation, and an unmonitored
            // arc (owner dead / neighbor already excised) is re-armed by
            // whichever heal/restart/arrival path resumes monitoring.
            let (w, b) = det.bit(arc);
            det.in_wheel[w] &= !b;
            if !believed.is_alive(node) {
                continue;
            }
            let j = graph.neighbors(node)[arc - graph.arc_base(node)];
            if believed.list(graph, node).binary_search(&j).is_err() {
                continue;
            }
            det.due.push(e);
        }
        det.wheel[si].drain(..len0);
        // The legacy scan walked each believed list backwards: node
        // ascending, neighbor (≡ arc, lists are sorted) descending.
        det.due
            .sort_unstable_by(|a, b| (a >> 32).cmp(&(b >> 32)).then(b.cmp(a)));
    }
}
