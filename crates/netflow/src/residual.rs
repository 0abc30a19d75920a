//! Internal residual-graph representation shared by the solvers.
//!
//! Every original arc becomes a forward edge (residual capacity = capacity)
//! paired with a backward edge (residual capacity = 0, cost negated). Edges
//! are stored in one flat vector where edge `e` and `e ^ 1` are partners, the
//! classic pairing trick.
//!
//! Adjacency is compressed sparse row (CSR): after all edges are added,
//! [`Residual::finalize`] lays each node's edges out contiguously, and the
//! *live* per-edge state — residual capacity, cost, head — is mirrored into
//! packed [`Slot`] records in that same CSR slot order. The solvers' inner loops
//! (Dijkstra relaxation, Bellman–Ford, Dinic's BFS/DFS) therefore stream
//! sequential memory instead of chasing one random 24-byte load per edge,
//! which is where min-cost-flow solvers spend almost all of their time on
//! dense networks. Capacities change during a solve but the topology never
//! does, so the layout is built exactly once per solve and [`Residual::push`]
//! updates the slots directly (edge id → slot via a lookup table).
//!
//! Within each node's slot range, edges that can carry flow sit in an
//! **active prefix**: `finalize` places initially-positive edges first, and
//! whenever a push gives a zero-capacity edge (typically a backward edge)
//! residual capacity for the first time, the edge is swapped into the prefix
//! and [`Residual::active_end`] grows. Every slot at or beyond `active_end`
//! has capacity ≤ 0, so shortest-path and max-flow scans iterate
//! [`Residual::active_slots`] and never touch the dormant half of the edge
//! array — on a fresh residual graph that is exactly the backward edges,
//! i.e. half of all slots. Slots inside the prefix can still drop to zero
//! capacity (saturated forward edges), so scans keep their `cap > 0` check;
//! the prefix never shrinks.
//!
//! After `finalize`, the slot arrays are the single source of truth for
//! capacities; [`ResEdge::initial_cap`] is only the staging value.
//!
//! A scan of `v`'s whole slot range also sees every residual edge *into*
//! `v`: each slot's edge `e` runs `v → w`, and its partner `e ^ 1` runs
//! `w → v` at cost `-cost` with capacity `pair_cap[e >> 1] − cap`.
//! [`Residual::pair_cap`] holds each pair's capacity sum, which pushes
//! leave invariant, so sink-side shortest-path rounds read partner
//! capacities without growing [`Slot`] or chasing `slot_of`.

use crate::graph::{FlowNetwork, NodeId};
use crate::stamp::CacheStamp;

/// One directed edge of the residual graph as staged by
/// [`Residual::add_edge`]; live capacities move into the CSR slot arrays at
/// [`Residual::finalize`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResEdge {
    /// Head node index.
    pub to: u32,
    /// Capacity at build time (residual capacity until the first push).
    pub initial_cap: i64,
    /// Cost per unit (negated on backward edges).
    pub cost: i64,
}

/// Live state of one residual edge in its CSR slot. Packed as a struct so
/// an inner-loop visit (capacity test, cost, head) and a builder placement
/// (all four fields) each touch one 24-byte record instead of four parallel
/// arrays — the difference is one cache line versus four on the random
/// accesses that dominate build and push time.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    /// Live residual capacity.
    pub cap: i64,
    /// Cost per unit (negated on backward edges).
    pub cost: i64,
    /// Head node.
    pub to: u32,
    /// Index of the edge occupying this slot.
    pub edge: u32,
}

// Scans stream slots; a wider record (say, a partner-capacity field) costs
// every solve cache lines and peak memory. Partner capacities come from
// `Residual::pair_cap` instead.
const _: () = assert!(std::mem::size_of::<Slot>() == 24);

/// Identity of the [`Residual::build_transformed`] call that produced the
/// current CSR layout, kept alongside a mutation journal so a repeat of the
/// *same* call can restore the pristine build by undoing the journal instead
/// of rebuilding — sweeps and benches re-solving one instance turn the
/// O(V + E) counting-sort rebuild into O(pushes of the previous solve).
#[derive(Debug, Clone, Copy)]
struct BuiltMeta {
    /// Identity stamp of the network contents and endpoints as built.
    stamp: CacheStamp,
    target: i64,
    /// Total excess the transformed instance must route (memoised result).
    required: i64,
    /// `monotone` as of the pristine build (pushes clear the live flag).
    monotone: bool,
}

/// One recorded live-state mutation, undone in reverse order by the rollback
/// path of [`Residual::build_transformed`].
#[derive(Debug, Clone, Copy)]
enum JournalOp {
    /// The capacity transfer of `push(e, amount)`.
    Push { e: u32, amount: i64 },
    /// An active-prefix swap by [`Residual::activate`] on tail `u`: the
    /// activated edge sits at `active_end[u] - 1`, its displaced neighbour
    /// at `displaced_slot`; undoing swaps them back and shrinks the prefix.
    Activate { u: u32, displaced_slot: u32 },
}

/// Residual graph over `n` nodes with CSR adjacency and slot-ordered live
/// edge state.
#[derive(Debug, Clone)]
pub(crate) struct Residual {
    pub edges: Vec<ResEdge>,
    /// For original arc `i`, `edge_of_arc[i]` is its forward edge index
    /// (`None` for synthetic edges added by transformations).
    pub edge_of_arc: Vec<u32>,
    nodes: usize,
    /// CSR offsets: node `u`'s slots are
    /// `first_out[u]..first_out[u + 1]`. Empty until [`Residual::finalize`].
    pub first_out: Vec<u32>,
    /// Live per-slot edge state, grouped by tail node (authoritative after
    /// [`Residual::finalize`]).
    pub slots: Vec<Slot>,
    /// Per node: end of the active prefix — every slot in
    /// `first_out[u]..active_end[u]` may have positive capacity, every slot
    /// at or beyond `active_end[u]` has capacity ≤ 0.
    pub active_end: Vec<u32>,
    /// CSR slot of each edge index (inverse of `adj`).
    slot_of: Vec<u32>,
    /// Per edge pair `k`: `cap(2k) + cap(2k + 1)`, the pair's capacity
    /// sum. Pushes only move capacity within a pair, so only builds and
    /// [`Residual::set_cap_of`] write it; the partner of the edge in any
    /// slot has residual capacity `pair_cap[edge >> 1] − slot.cap`.
    pub pair_cap: Vec<i64>,
    /// Placement cursor scratch for [`Residual::finalize`] and
    /// [`Residual::build_transformed`], kept here so arena-reused graphs
    /// rebuild without allocating.
    cursor: Vec<u32>,
    /// Second placement cursor (dormant-half) for
    /// [`Residual::build_transformed`].
    cursor2: Vec<u32>,
    /// Node-excess scratch for [`Residual::build_transformed`].
    excess: Vec<i64>,
    /// True while the graph is fresh from [`Residual::build_transformed`]
    /// and every network arc ran from a lower to a higher node index. Then
    /// `[super_s, 0, 1, .., super_t]` is a topological order of the
    /// positive-capacity subgraph and the potential initialisation can skip
    /// Kahn's algorithm outright. Cleared by the first push, which may
    /// create a backward (descending) residual edge.
    pub monotone: bool,
    /// Rollback cache identity; `Some` while the journal faithfully records
    /// every live-state mutation since the pristine build.
    built: Option<BuiltMeta>,
    /// Mutation journal; see [`BuiltMeta`].
    journal: Vec<JournalOp>,
}

impl Default for Residual {
    /// An empty zero-node graph — the vacant state of a workspace arena.
    fn default() -> Self {
        Self::new(0)
    }
}

impl Residual {
    /// Builds a residual graph over `node_count` nodes with no edges yet.
    pub fn new(node_count: usize) -> Self {
        Self {
            edges: Vec::new(),
            edge_of_arc: Vec::new(),
            nodes: node_count,
            first_out: Vec::new(),
            slots: Vec::new(),
            active_end: Vec::new(),
            slot_of: Vec::new(),
            pair_cap: Vec::new(),
            cursor: Vec::new(),
            cursor2: Vec::new(),
            excess: Vec::new(),
            monotone: false,
            built: None,
            journal: Vec::new(),
        }
    }

    /// Builds the residual graph of `net` ignoring lower bounds (callers
    /// handle those via [`Residual::add_edge`] and supply adjustments), with
    /// `extra_nodes` additional nodes beyond the network's own (used by the
    /// lower-bound transformation to append a super-source and super-sink).
    pub fn from_network(net: &FlowNetwork, extra_nodes: usize) -> Self {
        let mut r = Self::new(0);
        r.rebuild_from_network(net, extra_nodes);
        r
    }

    /// [`Residual::from_network`] into `self`, keeping every buffer's
    /// allocation: the arena pattern used by the workspace-backed solvers to
    /// rebuild the residual topology per solve without reallocating.
    pub fn rebuild_from_network(&mut self, net: &FlowNetwork, extra_nodes: usize) {
        self.reset(net.node_count() + extra_nodes);
        self.edges.reserve(2 * net.arc_count());
        self.edge_of_arc.reserve(net.arc_count());
        for (_, arc) in net.arcs() {
            let e = self.add_edge(
                arc.from.index(),
                arc.to.index(),
                arc.capacity - arc.lower_bound,
                arc.cost,
            );
            self.edge_of_arc.push(e);
        }
    }

    /// Builds the excess/deficit-transformed residual of `net` directly in
    /// CSR form: network arcs (capacity minus lower bound) plus the
    /// super-source/super-sink supply edges implied by lower bounds and the
    /// `target`-unit `s -> t` requirement. Equivalent to
    /// [`Residual::rebuild_from_network`] + `add_edge(super, ..)` +
    /// [`Residual::finalize`], but in two passes over the arc list with no
    /// per-edge staging, which roughly halves solve setup time on the
    /// small-to-medium networks the allocator produces.
    ///
    /// Edge ids match the staged path: arc `i` is edge `2 * i`, its partner
    /// `2 * i + 1`, supply pairs follow. Returns
    /// `(super_s, super_t, required)` where `required` is the total excess
    /// that must reach the super-sink for feasibility.
    pub fn build_transformed(
        &mut self,
        net: &FlowNetwork,
        s: usize,
        t: usize,
        target: i64,
    ) -> (usize, usize, i64) {
        let n = net.node_count();
        let nodes = n + 2;
        let (super_s, super_t) = (n, n + 1);
        let stamp = CacheStamp::from_parts(net, s, t);
        // Rollback fast path: this arena already holds the pristine build of
        // the identical request and a faithful journal of everything the
        // last solve did to it — undo the journal instead of rebuilding.
        // Undoing in reverse restores the exact slot order, so cached solves
        // stay bit-identical to cold ones.
        if let Some(b) = self.built {
            if (b.stamp, b.target) == (stamp, target) {
                self.undo_journal();
                self.monotone = b.monotone;
                return (super_s, super_t, b.required);
            }
            self.built = None;
            self.journal.clear();
        }
        // Minimal reset: unlike [`Residual::reset`], the slot arrays keep
        // their lengths so the grow-only path below can skip re-zeroing
        // them; `first_out`/`active_end` are fully rewritten by the prefix
        // pass and resized (shrinking included) right before it.
        self.nodes = nodes;
        self.monotone = false;
        self.edges.clear();
        self.edge_of_arc.clear();
        let arcs = net.arcs_slice();

        // Pass 1: per-node active (positive residual) and dormant out-degree
        // counts, plus the lower-bound excesses.
        self.cursor.clear();
        self.cursor.resize(nodes, 0);
        self.cursor2.clear();
        self.cursor2.resize(nodes, 0);
        self.excess.clear();
        self.excess.resize(n, 0);
        let mut monotone = true;
        for arc in arcs {
            let (u, v) = (arc.from.index(), arc.to.index());
            monotone &= u < v;
            if arc.capacity > arc.lower_bound {
                self.cursor[u] += 1;
            } else {
                self.cursor2[u] += 1;
            }
            self.cursor2[v] += 1;
            if arc.lower_bound != 0 {
                self.excess[v] += arc.lower_bound;
                self.excess[u] -= arc.lower_bound;
            }
        }
        self.monotone = monotone;
        self.excess[s] += target;
        self.excess[t] -= target;
        let mut required = 0i64;
        for v in 0..n {
            match self.excess[v] {
                e if e > 0 => {
                    // super_s -> v carrying e.
                    self.cursor[super_s] += 1;
                    self.cursor2[v] += 1;
                    required += e;
                }
                e if e < 0 => {
                    // v -> super_t carrying -e.
                    self.cursor[v] += 1;
                    self.cursor2[super_t] += 1;
                }
                _ => {}
            }
        }

        // Prefix sums: `cursor` becomes the active placement cursor,
        // `cursor2` the dormant one; `active_end` is final immediately.
        self.first_out.clear();
        self.first_out.resize(nodes + 1, 0);
        self.active_end.clear();
        self.active_end.resize(nodes, 0);
        let mut acc = 0u32;
        for u in 0..nodes {
            let act = self.cursor[u];
            let dorm = self.cursor2[u];
            self.first_out[u] = acc;
            self.cursor[u] = acc;
            let ae = acc + act;
            self.active_end[u] = ae;
            self.cursor2[u] = ae;
            acc = ae + dorm;
        }
        self.first_out[nodes] = acc;
        let m = acc as usize;
        // Grow-only: every slot in `0..m` is overwritten by the placement
        // pass below (the cursor counts sum to exactly `m`), so zeroing
        // would be pure memory traffic. Lengths never shrink; stale entries
        // beyond `first_out[nodes]` are unreachable through the CSR offsets.
        if self.slots.len() < m {
            self.slots.resize(m, Slot::default());
            self.slot_of.resize(m, 0);
        }
        self.pair_cap.clear();
        self.pair_cap.reserve(m / 2);

        // Pass 2: placement, writing the live slots directly. The
        // destructuring borrow keeps both array bases in registers across
        // the stores per edge; going through `self` would force the
        // optimiser to re-derive them after each write.
        let Residual {
            slots,
            slot_of,
            cursor,
            cursor2,
            excess,
            edge_of_arc,
            pair_cap,
            ..
        } = self;
        let mut place = |u: usize, v: usize, c: i64, w: i64, e: u32, active: bool| {
            let slot = if active {
                let s = cursor[u];
                cursor[u] = s + 1;
                s
            } else {
                let s = cursor2[u];
                cursor2[u] = s + 1;
                s
            } as usize;
            slots[slot] = Slot {
                cap: c,
                cost: w,
                to: v as u32,
                edge: e,
            };
            slot_of[e as usize] = slot as u32;
        };
        for (i, arc) in arcs.iter().enumerate() {
            let (u, v) = (arc.from.index(), arc.to.index());
            let rc = arc.capacity - arc.lower_bound;
            let e = (2 * i) as u32;
            place(u, v, rc, arc.cost, e, rc > 0);
            place(v, u, 0, -arc.cost, e + 1, false);
            pair_cap.push(rc);
        }
        let mut e = (2 * arcs.len()) as u32;
        for (v, &ex) in excess.iter().enumerate().take(n) {
            if ex > 0 {
                place(super_s, v, ex, 0, e, true);
                place(v, super_s, 0, 0, e + 1, false);
            } else if ex < 0 {
                place(v, super_t, -ex, 0, e, true);
                place(super_t, v, 0, 0, e + 1, false);
            } else {
                continue;
            }
            pair_cap.push(ex.abs());
            e += 2;
        }
        edge_of_arc.extend((0..arcs.len() as u32).map(|i| 2 * i));
        self.journal.clear();
        self.built = Some(BuiltMeta {
            stamp,
            target,
            required,
            monotone: self.monotone,
        });
        (super_s, super_t, required)
    }

    /// Empties the graph and re-targets it at `node_count` nodes, retaining
    /// buffer capacity. The graph is back in the staging state: add edges,
    /// then [`Residual::finalize`].
    pub fn reset(&mut self, node_count: usize) {
        self.nodes = node_count;
        self.monotone = false;
        self.built = None;
        self.journal.clear();
        self.edges.clear();
        self.edge_of_arc.clear();
        self.first_out.clear();
        self.slots.clear();
        self.active_end.clear();
        self.slot_of.clear();
        self.pair_cap.clear();
    }

    /// Adds a forward/backward edge pair; returns the forward edge index.
    ///
    /// Must not be called after [`Residual::finalize`].
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> u32 {
        debug_assert!(!self.is_finalized(), "add_edge after finalize");
        debug_assert!(from < self.nodes && to < self.nodes);
        let e = self.edges.len() as u32;
        self.edges.push(ResEdge {
            to: to as u32,
            initial_cap: cap,
            cost,
        });
        self.edges.push(ResEdge {
            to: from as u32,
            initial_cap: 0,
            cost: -cost,
        });
        e
    }

    /// Builds the CSR adjacency by counting sort over edge tails and mirrors
    /// each edge's live state into slot order. Call once after the last
    /// [`Residual::add_edge`]; the solvers require it.
    pub fn finalize(&mut self) {
        let n = self.nodes;
        let m = self.edges.len();
        self.built = None;
        self.journal.clear();
        self.first_out.clear();
        self.first_out.resize(n + 1, 0);
        // The tail of edge `e` is the head of its partner `e ^ 1`.
        for e in 0..m {
            self.first_out[self.edges[e ^ 1].to as usize + 1] += 1;
        }
        for u in 0..n {
            self.first_out[u + 1] += self.first_out[u];
        }
        self.slots.clear();
        self.slots.resize(m, Slot::default());
        self.slot_of.clear();
        self.slot_of.resize(m, 0);
        self.pair_cap.clear();
        self.pair_cap.extend(
            self.edges
                .chunks_exact(2)
                .map(|pair| pair[0].initial_cap + pair[1].initial_cap),
        );
        // Two placement passes per node: initially-positive edges first (the
        // active prefix), then the zero-capacity ones; insertion order is
        // preserved within each group.
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.first_out);
        for e in 0..m {
            let edge = self.edges[e];
            if edge.initial_cap > 0 {
                let u = self.edges[e ^ 1].to as usize;
                let slot = self.cursor[u] as usize;
                self.slots[slot] = Slot {
                    cap: edge.initial_cap,
                    cost: edge.cost,
                    to: edge.to,
                    edge: e as u32,
                };
                self.slot_of[e] = slot as u32;
                self.cursor[u] += 1;
            }
        }
        self.active_end.clear();
        self.active_end.extend_from_slice(&self.cursor[..n]);
        for e in 0..m {
            let edge = self.edges[e];
            if edge.initial_cap <= 0 {
                let u = self.edges[e ^ 1].to as usize;
                let slot = self.cursor[u] as usize;
                self.slots[slot] = Slot {
                    cap: edge.initial_cap,
                    cost: edge.cost,
                    to: edge.to,
                    edge: e as u32,
                };
                self.slot_of[e] = slot as u32;
                self.cursor[u] += 1;
            }
        }
    }

    fn is_finalized(&self) -> bool {
        !self.first_out.is_empty()
    }

    /// Number of live edges (and slots). The slot arrays only grow, so
    /// after a rebuild into a larger arena they can be longer than this.
    pub fn edge_count(&self) -> usize {
        self.first_out[self.nodes] as usize
    }

    /// Slot range of node `u`'s outgoing edges (active or not). Forward
    /// scans only ever need [`Residual::active_slots`]; the full range
    /// serves *backward* traversals (a dormant forward slot's partner can
    /// still carry residual capacity) and white-box tests of the layout.
    #[inline]
    pub fn all_slots(&self, u: usize) -> std::ops::Range<usize> {
        debug_assert!(self.is_finalized(), "all_slots() before finalize");
        self.first_out[u] as usize..self.first_out[u + 1] as usize
    }

    /// Slot range of node `u`'s **active** outgoing edges — the only ones
    /// that can have positive residual capacity. Slots inside the range may
    /// still be saturated, so scans keep their `cap > 0` check.
    #[inline]
    pub fn active_slots(&self, u: usize) -> std::ops::Range<usize> {
        debug_assert!(self.is_finalized(), "active_slots() before finalize");
        self.first_out[u] as usize..self.active_end[u] as usize
    }

    /// Outgoing edge indices of node `u`, for white-box tests; solver loops
    /// read the parallel slot arrays directly.
    #[cfg(test)]
    pub fn out(&self, u: usize) -> Vec<u32> {
        debug_assert!(self.is_finalized(), "out() before finalize");
        self.slots[self.first_out[u] as usize..self.first_out[u + 1] as usize]
            .iter()
            .map(|s| s.edge)
            .collect()
    }

    /// Tail node of edge `e` (the head of its backward partner). Requires
    /// [`Residual::finalize`]: reads the slot arrays, so it also works on
    /// graphs built by [`Residual::build_transformed`], which never stage
    /// [`ResEdge`]s.
    #[inline]
    pub fn tail(&self, e: u32) -> usize {
        self.slots[self.slot_of[(e ^ 1) as usize] as usize].to as usize
    }

    /// `(tail, head, cost, headroom)` of forward edge `e`: the arc it was
    /// built from, as last priced, with its capacity above the lower bound.
    /// Pushes only move capacity between `e` and `e ^ 1`, so their sum is
    /// that headroom whatever flow the edge carries.
    #[inline]
    pub fn arc_state(&self, e: u32) -> (usize, usize, i64, i64) {
        let fwd = &self.slots[self.slot_of[e as usize] as usize];
        let back = &self.slots[self.slot_of[(e ^ 1) as usize] as usize];
        (
            back.to as usize,
            fwd.to as usize,
            fwd.cost,
            fwd.cap + back.cap,
        )
    }

    /// Live residual capacity of edge `e`. Requires [`Residual::finalize`].
    #[inline]
    pub fn cap_of(&self, e: u32) -> i64 {
        self.slots[self.slot_of[e as usize] as usize].cap
    }

    /// Cost per unit of edge `e`. Requires [`Residual::finalize`].
    #[inline]
    pub fn cost_of(&self, e: u32) -> i64 {
        self.slots[self.slot_of[e as usize] as usize].cost
    }

    /// Overwrites the cost of edge `e` in the slot arrays (warm-start
    /// reoptimisation applies sweep cost deltas in place; callers keep the
    /// `e`/`e ^ 1` negation convention themselves). The staging vector is
    /// deliberately left stale: after [`Residual::finalize`] the slot arrays
    /// are authoritative and the graph is never re-finalized.
    #[inline]
    pub fn set_cost_of(&mut self, e: u32, cost: i64) {
        self.built = None;
        self.journal.clear();
        self.slots[self.slot_of[e as usize] as usize].cost = cost;
    }

    /// Head node of edge `e`. Requires [`Residual::finalize`].
    #[inline]
    pub fn head(&self, e: u32) -> usize {
        self.slots[self.slot_of[e as usize] as usize].to as usize
    }

    /// Overwrites the live residual capacity of edge `e` (used to freeze the
    /// circulation edge in the max-flow lower-bound transformation).
    #[inline]
    pub fn set_cap_of(&mut self, e: u32, cap: i64) {
        self.built = None;
        self.journal.clear();
        let slot = self.slot_of[e as usize] as usize;
        self.pair_cap[(e >> 1) as usize] += cap - self.slots[slot].cap;
        self.slots[slot].cap = cap;
        if cap > 0 {
            self.activate(e, slot);
        }
    }

    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Flow currently carried by forward edge `e` (the residual capacity of
    /// its backward partner).
    pub fn flow_on(&self, e: u32) -> i64 {
        self.cap_of(e ^ 1)
    }

    /// Pushes `amount` units through edge `e`.
    #[inline]
    pub fn push(&mut self, e: u32, amount: i64) {
        self.monotone = false;
        if self.built.is_some() {
            self.record(JournalOp::Push { e, amount });
        }
        self.slots[self.slot_of[e as usize] as usize].cap -= amount;
        let back = e ^ 1;
        let back_slot = self.slot_of[back as usize] as usize;
        self.slots[back_slot].cap += amount;
        if self.slots[back_slot].cap > 0 {
            self.activate(back, back_slot);
        }
    }

    /// Undoes every journaled mutation in reverse, restoring the slot arrays
    /// (capacities, order, active prefixes) to the pristine post-build state.
    fn undo_journal(&mut self) {
        while let Some(op) = self.journal.pop() {
            match op {
                JournalOp::Push { e, amount } => {
                    let fwd = self.slot_of[e as usize] as usize;
                    self.slots[fwd].cap += amount;
                    let back = self.slot_of[(e ^ 1) as usize] as usize;
                    self.slots[back].cap -= amount;
                }
                JournalOp::Activate { u, displaced_slot } => {
                    let u = u as usize;
                    let boundary = (self.active_end[u] - 1) as usize;
                    let displaced = displaced_slot as usize;
                    self.slots.swap(boundary, displaced);
                    self.slot_of[self.slots[boundary].edge as usize] = boundary as u32;
                    self.slot_of[self.slots[displaced].edge as usize] = displaced as u32;
                    self.active_end[u] = boundary as u32;
                }
            }
        }
    }

    /// Mid-solve rewind to the pristine build: undoes the journal in place,
    /// leaving the journal armed for the rest of the solve. Returns `false`
    /// (flow untouched) when no journal is active — the caller keeps working
    /// with the current flow. Used by the cost-scaling backend to discard
    /// its cost-blind feasibility max-flow before the scaling phases.
    pub(crate) fn rollback(&mut self) -> bool {
        match self.built {
            Some(b) => {
                self.undo_journal();
                self.monotone = b.monotone;
                true
            }
            None => false,
        }
    }

    /// Appends `op` to the rollback journal, abandoning the cache if a
    /// push-heavy solve (cost scaling can revisit edges many times) would
    /// grow the journal past a small multiple of the slot count — at that
    /// point a rebuild is cheaper than the replay and the bookkeeping.
    #[inline]
    fn record(&mut self, op: JournalOp) {
        let cap = 8 * self.slots.len() + 64;
        if self.journal.len() >= cap {
            self.built = None;
            self.journal.clear();
            return;
        }
        self.journal.push(op);
    }

    /// Moves edge `e` (at `slot`) into its tail's active prefix if it is not
    /// there already, swapping it with the first dormant slot. The displaced
    /// edge has capacity ≤ 0, so the active-prefix invariant is preserved.
    fn activate(&mut self, e: u32, slot: usize) {
        let u = self.slots[self.slot_of[(e ^ 1) as usize] as usize].to as usize;
        let boundary = self.active_end[u] as usize;
        if slot < boundary {
            return;
        }
        if self.built.is_some() {
            self.record(JournalOp::Activate {
                u: u as u32,
                displaced_slot: slot as u32,
            });
        }
        debug_assert!(self.slots[boundary].cap <= 0 || boundary == slot);
        self.slots.swap(boundary, slot);
        self.slot_of[e as usize] = boundary as u32;
        self.slot_of[self.slots[slot].edge as usize] = slot as u32;
        self.active_end[u] = boundary as u32 + 1;
    }
}

/// Convenience: node index of a [`NodeId`].
pub(crate) fn idx(n: NodeId) -> usize {
    n.index()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowNetwork;

    #[test]
    fn pairing_and_push() {
        let mut r = Residual::new(2);
        let e = r.add_edge(0, 1, 5, 3);
        r.finalize();
        assert_eq!(r.flow_on(e), 0);
        r.push(e, 2);
        assert_eq!(r.flow_on(e), 2);
        assert_eq!(r.cap_of(e), 3);
        r.push(e ^ 1, 1); // cancel one unit
        assert_eq!(r.flow_on(e), 1);
    }

    #[test]
    fn from_network_subtracts_lower_bounds() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        let b = net.add_node();
        net.add_arc_bounded(a, b, 2, 5, 1).unwrap();
        let mut r = Residual::from_network(&net, 0);
        r.finalize();
        assert_eq!(r.cap_of(r.edge_of_arc[0]), 3);
    }

    #[test]
    fn csr_groups_edges_by_tail() {
        let mut r = Residual::new(4);
        let e01 = r.add_edge(0, 1, 1, 0);
        let e02 = r.add_edge(0, 2, 1, 0);
        let e13 = r.add_edge(1, 3, 1, 0);
        let e23 = r.add_edge(2, 3, 1, 0);
        r.finalize();
        // Initially-positive edges come first (the active prefix), then the
        // zero-capacity backward edges, insertion order within each group.
        assert_eq!(r.out(0), &[e01, e02]);
        assert_eq!(r.out(1), &[e13, e01 ^ 1]);
        assert_eq!(r.out(2), &[e23, e02 ^ 1]);
        assert_eq!(r.out(3), &[e13 ^ 1, e23 ^ 1]);
        assert_eq!(r.active_slots(0).len(), 2);
        assert_eq!(r.active_slots(1).len(), 1);
        assert_eq!(r.active_slots(2).len(), 1);
        assert_eq!(r.active_slots(3).len(), 0);
        for u in 0..4 {
            for e in r.out(u) {
                assert_eq!(r.tail(e), u);
            }
        }
    }

    #[test]
    fn pushes_activate_backward_edges() {
        // s -> a -> t chain; pushing along it must activate the backward
        // edges so a later cancelling pass can see them.
        let mut r = Residual::new(3);
        let sa = r.add_edge(0, 1, 2, 1);
        let at = r.add_edge(1, 2, 2, 1);
        r.finalize();
        assert_eq!(r.active_slots(1).len(), 1);
        assert_eq!(r.active_slots(2).len(), 0);
        r.push(sa, 1);
        r.push(at, 1);
        // Backward edges a -> s and t -> a now have capacity 1 and must be
        // inside the active prefix of their tails.
        assert_eq!(r.active_slots(1).len(), 2);
        assert_eq!(r.active_slots(2).len(), 1);
        let a_active: Vec<u32> = r.active_slots(1).map(|s| r.slots[s].edge).collect();
        assert!(a_active.contains(&(sa ^ 1)));
        assert!(a_active.contains(&at));
        assert_eq!(r.slots[r.active_slots(2).next().unwrap()].edge, at ^ 1);
        // Fully cancel: capacities drop to zero but the prefix never shrinks
        // and `cap > 0` checks still exclude them.
        r.push(sa ^ 1, 1);
        r.push(at ^ 1, 1);
        assert_eq!(r.active_slots(1).len(), 2);
        assert_eq!(r.cap_of(sa ^ 1), 0);
        assert_eq!(r.cap_of(sa), 2);
    }

    #[test]
    fn slot_arrays_mirror_edges() {
        let mut r = Residual::new(3);
        let e = r.add_edge(0, 1, 7, -4);
        let f = r.add_edge(1, 2, 2, 9);
        r.finalize();
        for u in 0..3 {
            for (slot, eid) in r.all_slots(u).zip(r.out(u)) {
                let edge = r.edges[eid as usize];
                assert_eq!(r.slots[slot].cap, edge.initial_cap);
                assert_eq!(r.slots[slot].cost, edge.cost);
                assert_eq!(r.slots[slot].to, edge.to);
            }
        }
        // A push is visible through the slot arrays and flow accessors.
        r.push(e, 3);
        assert_eq!(r.cap_of(e), 4);
        assert_eq!(r.cap_of(e ^ 1), 3);
        assert_eq!(r.cap_of(f), 2);
    }

    /// `pair_cap[k]` is `cap(2k) + cap(2k + 1)` for every pair, through
    /// pushes, the activations they cause, a journal rewind and
    /// `set_cap_of`, on both build paths.
    #[test]
    fn pair_capacities_track_every_mutation() {
        fn assert_pairs(r: &Residual) {
            for (k, &sum) in r.pair_cap.iter().enumerate() {
                let e = 2 * k as u32;
                assert_eq!(sum, r.cap_of(e) + r.cap_of(e + 1), "pair {k}");
            }
        }
        let mut net = FlowNetwork::new();
        let [s, a, b, t] = [(); 4].map(|()| net.add_node());
        net.add_arc_bounded(s, a, 1, 3, 2).unwrap();
        net.add_arc(a, b, 2, -1).unwrap();
        net.add_arc(b, t, 4, 0).unwrap();
        net.add_arc(s, t, 1, 5).unwrap();
        let mut r = Residual::default();
        let built = r.build_transformed(&net, s.index(), t.index(), 2);
        assert_eq!(r.pair_cap.len(), r.edge_count() / 2);
        assert_pairs(&r);
        let (a_b, b_t) = (r.edge_of_arc[1], r.edge_of_arc[2]);
        let dormant = r.active_slots(b.index()).len();
        r.push(a_b, 2);
        r.push(b_t, 1);
        assert!(
            r.active_slots(b.index()).len() > dormant,
            "a push activated b -> a"
        );
        assert_pairs(&r);
        // The same request again rewinds the journal instead of rebuilding.
        assert_eq!(r.build_transformed(&net, s.index(), t.index(), 2), built);
        assert_eq!(r.flow_on(a_b), 0);
        assert_pairs(&r);
        r.set_cap_of(a_b, 1);
        r.set_cap_of(a_b ^ 1, 3);
        assert_pairs(&r);
        assert_eq!(r.pair_cap[(a_b >> 1) as usize], 4);

        let mut r = Residual::new(3);
        let e = r.add_edge(0, 1, 5, 1);
        r.add_edge(1, 2, 2, 1);
        r.finalize();
        assert_pairs(&r);
        r.push(e, 3);
        r.set_cap_of(e ^ 1, 0);
        assert_pairs(&r);
    }

    #[test]
    fn csr_handles_isolated_nodes() {
        let mut r = Residual::new(5);
        r.add_edge(0, 4, 1, 0);
        r.finalize();
        assert!(r.out(1).is_empty());
        assert!(r.out(2).is_empty());
        assert!(r.out(3).is_empty());
        assert_eq!(r.out(0).len(), 1);
        assert_eq!(r.out(4).len(), 1);
    }
}
