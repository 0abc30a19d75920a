//! Network-flow graph construction (§5.1) over a [`Segmentation`].
//!
//! Every segment contributes a write node `w_i(v)` and a read node `r_i(v)`
//! joined by a unit-capacity arc (lower bound 1 when the segment is forced
//! into the register file, §5.2). A hand-off lets `v2`'s segment take over
//! the register `v1`'s segment gives up at its read; which reads may hand
//! off to which writes depends on the [`GraphStyle`]:
//!
//! * [`GraphStyle::Regions`] — the paper's construction. A hand-off is
//!   admitted only if no *region of maximum lifetime density* lies strictly
//!   between the read and the write; this is the generalisation of the
//!   "complete bipartite graph between adjacent regions" of §5.1 to events
//!   that fall inside regions, and it is what guarantees a minimum number of
//!   memory storage locations (§7).
//! * [`GraphStyle::AllPairs`] — ref \[8\]: every compatible pair is connected.
//!
//! The admitted hand-offs are emitted in one of two [`NetworkForm`]s:
//!
//! * [`NetworkForm::Bipartite`] — one arc `r_i(v1) → w_j(v2)` per admitted
//!   pair, priced `exit(v1) + enter(v2) + transition(v1, v2)`: Σ a·b arcs
//!   over the blocks between adjacent regions.
//! * [`NetworkForm::TimeLine`] — when the transition term is the same for
//!   every pair (the static model, or a uniform activity source), a
//!   hand-off's cost splits into one term per endpoint, so the pairs carry
//!   no pairwise information. Each region window then gets one chain of
//!   tick nodes: `r(v1) → tick(read)` at the exit cost plus the constant
//!   transition term, zero-cost forward tick arcs of capacity `R`, and
//!   `tick(write) → w(v2)` at the enter cost — O(segments + ticks) arcs
//!   with the same path costs. Only problems whose bipartite form would
//!   reach [`TIMELINE_MIN_PAIRS`] candidate pairs take it: ties between
//!   equal-cost optima are broken by a hash of the arc index
//!   ([`apply_tie_break`]), so a smaller network in the other form could
//!   settle a tie differently.
//!
//! The total flow is fixed at the register count `R`; a zero-cost `s → t`
//! bypass absorbs registers the optimum leaves unused, and optional relief
//! arcs (`r → t` everywhere, `s → w` into forced segments) keep irregular
//! instances feasible. Both are cost-neutral (DESIGN.md §4.3).

use crate::costs::CostCalculator;
use crate::problem::{AllocationProblem, GraphStyle};
use crate::segment::{Segment, SegmentId, Segmentation};
use crate::CoreError;
use lemra_energy::MicroEnergy;
use lemra_ir::{DensityProfile, Tick, TickRange};
use lemra_netflow::{ArcId, FlowNetwork, FlowSolution, NodeId};
use std::cell::RefCell;

/// Candidate hand-off pairs ([`window_pairs`]) from which a problem whose
/// hand-off cost splits per endpoint builds the [`NetworkForm::TimeLine`]
/// form. The gate keeps every smaller network bipartite, where the
/// arc-index tie-break has always settled ties; at the gate, the bipartite
/// block's Σ a·b arcs dominate both Build and the solver's per-round arc
/// scans.
const TIMELINE_MIN_PAIRS: usize = 100_000;

/// How a built network connects each read to the writes it may hand its
/// register to; see the [module documentation](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkForm {
    /// One hand-off arc per admitted `(read, write)` pair — §5.1's complete
    /// bipartite blocks.
    Bipartite,
    /// One chain of tick nodes per region window, with each read hooked in
    /// at its tick and each write hooked out at its own.
    TimeLine,
}

/// The constructed flow network plus the maps back to segments.
///
/// The arc maps beyond `segment_arc` exist for white-box tests and
/// diagnostics; the allocator itself only needs the segment arcs.
#[derive(Debug)]
#[allow(dead_code)]
pub(crate) struct BuiltNetwork {
    pub net: FlowNetwork,
    pub s: NodeId,
    pub t: NodeId,
    /// The hand-off structure this network was built in.
    pub form: NetworkForm,
    /// The segmentation's [`window_pairs`], which [`form_for`] gates on.
    pub window_pairs: usize,
    /// Per segment: its `w → r` arc.
    pub segment_arc: Vec<ArcId>,
    /// Per segment: its read node (tail of hand-off arcs).
    pub read_node: Vec<NodeId>,
    /// Per segment: its write node.
    pub write_node: Vec<NodeId>,
    /// Bipartite hand-off arcs as `(arc, from_segment, to_segment)`; empty
    /// in the time-line form.
    pub handoff_of: Vec<(ArcId, SegmentId, SegmentId)>,
    /// Chain arcs `(arc, from_segment)`; `to` is from's successor segment.
    pub chain_of: Vec<(ArcId, SegmentId)>,
    /// Time-line `r(seg) → tick` arcs as `(arc, seg)`; empty when bipartite.
    pub exit_of: Vec<(ArcId, SegmentId)>,
    /// Time-line `tick → w(seg)` arcs as `(arc, seg)`; empty when bipartite.
    pub enter_of: Vec<(ArcId, SegmentId)>,
    /// Time-line forward tick arcs (zero cost, capacity `R`).
    pub tick_arcs: Vec<ArcId>,
    /// Source hook-ups `s → w(seg)` as `(arc, segment)`.
    pub source_of: Vec<(ArcId, SegmentId)>,
    /// Sink hook-ups `r(seg) → t` as `(arc, segment)`.
    pub sink_of: Vec<(ArcId, SegmentId)>,
    /// The `s → t` bypass arc.
    pub bypass: ArcId,
    /// Factor every (gcd-reduced) arc cost was scaled by for deterministic
    /// tie-breaking (1 when the perturbation was skipped); see
    /// [`apply_tie_break`].
    pub cost_scale: i64,
    /// Common quantum divided out of every raw cost before scaling (1 when
    /// the perturbation was skipped).
    pub cost_unit: i64,
    /// Per-arc tie-break weight added after scaling; empty when
    /// `cost_scale == 1`. A solution's raw cost is
    /// `(cost - Σ flow(a)·tie_weights[a]) / cost_scale · cost_unit`.
    pub tie_weights: Vec<i64>,
    /// Which arcs get the tie-break preference discount (chains and
    /// hand-offs, or in the time-line form chains and tick hooks). Pure
    /// topology — [`refresh`] reuses it instead of rebuilding the mask per
    /// sweep point.
    pub preferred: Vec<bool>,
    /// Weight resolution [`apply_tie_break`] picked (0 when the perturbation
    /// was skipped). Cache key: when a refresh lands on the same resolution,
    /// the splitmix64 weight vector is reused verbatim instead of re-hashed,
    /// because every weight is a pure function of (arc index, bits,
    /// preferred) and those are all topology-stable.
    pub tie_bits: u32,
}

impl BuiltNetwork {
    /// Heap footprint of the built view — the arc arena plus every handle
    /// map and tie-break table, charged at capacity. The counted two-pass
    /// build sizes each buffer exactly, so this is also the Build stage's
    /// peak retained footprint, which the `--timings` peak-bytes column
    /// reports.
    pub(crate) fn heap_bytes(&self) -> usize {
        fn cap_bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        self.net.heap_bytes()
            + cap_bytes(&self.segment_arc)
            + cap_bytes(&self.read_node)
            + cap_bytes(&self.write_node)
            + cap_bytes(&self.handoff_of)
            + cap_bytes(&self.chain_of)
            + cap_bytes(&self.exit_of)
            + cap_bytes(&self.enter_of)
            + cap_bytes(&self.tick_arcs)
            + cap_bytes(&self.source_of)
            + cap_bytes(&self.sink_of)
            + cap_bytes(&self.tie_weights)
            + cap_bytes(&self.preferred)
    }
}

/// Per-thread scratch for the Build stage. The one-endpoint precompute
/// tables and the start- and end-order indexes are `n`-sized and were
/// rebuilt from scratch for every block, so whole-program pipelines — one
/// worker allocating dozens of blocks back to back — churned an allocation
/// per table per build. The arena keeps the buffers across builds on the same thread;
/// clearing retains capacity, so steady-state builds allocate nothing here.
#[derive(Default)]
struct BuildArena {
    exit_cost: Vec<MicroEnergy>,
    enter_cost: Vec<MicroEnergy>,
    register_carried_first: Vec<bool>,
    starts: Vec<Tick>,
    ends: Vec<Tick>,
    var_of: Vec<u32>,
    by_start: Vec<u32>,
    by_end: Vec<u32>,
    /// Start ticks of the register-carried first segments, sorted, for the
    /// bipartite census.
    carried_starts: Vec<Tick>,
    /// [`refresh`]'s per-arc raw costs, by arc index.
    raw_cost: Vec<i64>,
}

impl BuildArena {
    fn clear(&mut self) {
        self.exit_cost.clear();
        self.enter_cost.clear();
        self.register_carried_first.clear();
        self.starts.clear();
        self.ends.clear();
        self.var_of.clear();
        self.by_start.clear();
        self.by_end.clear();
        self.carried_starts.clear();
        self.raw_cost.clear();
    }
}

thread_local! {
    static BUILD_ARENA: RefCell<BuildArena> = RefCell::default();
}

/// True if a hand-off from a read at `from` to a write at `to` is admitted
/// under the region rule: `from <= to` and no maximum-density region lies
/// strictly inside the open interval `(from, to)`.
///
/// `regions` comes from [`DensityProfile::max_regions`]: sorted by start and
/// disjoint, so ends ascend in the same order and the earliest region
/// starting after `from` has the smallest end among all candidates — one
/// binary search decides the query ([`window_end`] is the same search). The
/// network builder calls this for every segment's hook-ups, so it must not
/// scan the region list linearly.
fn region_allows(regions: &[TickRange], from: Tick, to: Tick) -> bool {
    if from > to {
        return false;
    }
    debug_assert!(regions.windows(2).all(|w| w[0].end < w[1].start));
    let i = regions.partition_point(|r| r.start <= from);
    regions.get(i).is_none_or(|r| r.end >= to)
}

/// The Profile stage: the maximum-lifetime-density regions that gate
/// hand-off arcs under [`GraphStyle::Regions`] (empty for
/// [`GraphStyle::AllPairs`], which admits every compatible pair).
pub(crate) fn profile_regions(
    problem: &AllocationProblem,
    segmentation: &Segmentation,
) -> Vec<TickRange> {
    match problem.style {
        GraphStyle::Regions => DensityProfile::from_intervals(
            segmentation.block_len(),
            segmentation.iter().map(|(_, s)| (s.start(), s.end())),
        )
        .max_regions(),
        GraphStyle::AllPairs => Vec::new(),
    }
}

#[cfg(test)]
pub(crate) fn build(
    problem: &AllocationProblem,
    segmentation: &Segmentation,
) -> Result<BuiltNetwork, CoreError> {
    let regions = profile_regions(problem, segmentation);
    build_with_regions(problem, segmentation, &regions, None)
}

/// The BuildNetwork stage proper: emits the §5.1 network over a
/// [`Segmentation`] whose max-density `regions` were already profiled, in
/// the form [`form_for`] picks, or in `form` when that is given (forcing
/// the time-line form on a problem whose hand-off costs do not split per
/// endpoint panics).
///
/// Construction is a counted two-pass: a cheap census over the hand-off
/// windows and hook-up rules first establishes the exact arc total, then
/// every buffer — the arc arena, the handle maps, the tie-break tables — is
/// allocated once at its final size and filled. No buffer ever doubles, so
/// the stage's peak heap equals its retained result, which is what keeps
/// 4k-variable whole-program builds from dominating peak RSS.
pub(crate) fn build_with_regions(
    problem: &AllocationProblem,
    segmentation: &Segmentation,
    regions: &[TickRange],
    form: Option<NetworkForm>,
) -> Result<BuiltNetwork, CoreError> {
    BUILD_ARENA.with(|arena| {
        build_with_regions_in(
            problem,
            segmentation,
            regions,
            form,
            &mut arena.borrow_mut(),
        )
    })
}

/// The network form a problem builds in: the time-line form when its
/// hand-off costs split per endpoint
/// ([`CostCalculator::split_transition`]) and its segmentation's
/// [`window_pairs`] reach [`TIMELINE_MIN_PAIRS`]; the bipartite form
/// otherwise.
pub(crate) fn form_for(problem: &AllocationProblem, window_pairs: usize) -> NetworkForm {
    let costs = CostCalculator::for_problem(problem);
    if costs.split_transition().is_some() && window_pairs >= TIMELINE_MIN_PAIRS {
        NetworkForm::TimeLine
    } else {
        NetworkForm::Bipartite
    }
}

/// Last tick a write may start at to take over the register of a read at
/// `from` under the region rule: the end of the first max-density region
/// starting after `from` (unbounded past the last region, and always under
/// [`GraphStyle::AllPairs`], which has no regions). Regions are sorted and
/// disjoint, so that region has the smallest end among the candidates
/// [`region_allows`] would inspect.
fn window_end(regions: &[TickRange], from: Tick) -> Tick {
    let k = regions.partition_point(|r| r.start <= from);
    regions.get(k).map_or(Tick(u32::MAX), |r| r.end)
}

/// The gate quantity: Σ over reads of the writes starting inside their
/// region window, i.e. the candidate pairs the bipartite emission loop
/// walks before it drops same-variable and register-carried targets — an
/// upper bound on the bipartite hand-off count that needs only two binary
/// searches of `by_start` per read, O(n log n). It depends on the
/// segmentation and the regions alone, never on costs.
fn window_pairs(arena: &BuildArena, regions: &[TickRange]) -> usize {
    let starts = &arena.starts;
    arena
        .ends
        .iter()
        .map(|&from| {
            let last = window_end(regions, from);
            let lo = arena
                .by_start
                .partition_point(|&i| starts[i as usize] < from);
            let hi = arena
                .by_start
                .partition_point(|&i| starts[i as usize] <= last);
            hi.saturating_sub(lo)
        })
        .sum()
}

/// Number of ticks in the sorted `ticks` that fall in `from..=last`.
fn count_within<T>(ticks: &[T], tick: impl Fn(&T) -> Tick, from: Tick, last: Tick) -> usize {
    let hi = ticks.partition_point(|t| tick(t) <= last);
    hi.saturating_sub(ticks.partition_point(|t| tick(t) < from))
}

/// The bipartite form's hand-off count: the `pairs` [`window_pairs`]
/// counted, less each read's window targets the emission loop skips — the
/// segments of the read's own variable and the register-carried first
/// segments. No target is both: a window opens at its read's end, after
/// the start of its variable's first segment. Each count comes from binary
/// searches, over the variable's segments (in lifetime order, so by start)
/// and over the sorted starts of the carried segments: O(n log n), where
/// walking the pairs is O(E).
fn bipartite_census(
    arena: &mut BuildArena,
    segmentation: &Segmentation,
    regions: &[TickRange],
    pairs: usize,
) -> usize {
    arena.carried_starts.clear();
    let carried = arena.register_carried_first.iter();
    arena.carried_starts.extend(
        arena
            .starts
            .iter()
            .zip(carried)
            .filter_map(|(&start, &c)| c.then_some(start)),
    );
    arena.carried_starts.sort_unstable();
    let excluded: usize = segmentation
        .iter()
        .map(|(id, from)| {
            let from_end = arena.ends[id.index()];
            let last = window_end(regions, from_end);
            let own = segmentation.segments_of(from.var);
            count_within(own, Segment::start, from_end, last)
                + count_within(&arena.carried_starts, |&t| t, from_end, last)
        })
        .sum();
    pairs.saturating_sub(excluded)
}

/// One step of [`walk_time_lines`].
enum Hook {
    /// A new window's tick chain begins.
    Window,
    /// The next tick node of the current chain, one per distinct event
    /// tick, in ascending tick order.
    Tick,
    /// The arc `r(segment) →` the current tick.
    Exit(usize),
    /// The arc from the current tick `→ w(segment)`.
    Enter(usize),
}

/// Walks the time-line form's structure in emission order, so the census
/// and the emission pass share one definition of it.
///
/// Reads are grouped into windows by [`window_end`]: the reads of window
/// `k` end in `[regions[k-1].start, regions[k].start)`, and every write
/// they may hand off to starts between the window's first read and
/// `regions[k].end` (unbounded for the last window, and for
/// [`GraphStyle::AllPairs`], which has one window). Windows overlap only
/// inside a region, so a write attaches to at most two of them. Each
/// window gets one chain of ticks — the distinct ticks of its reads and
/// writes — with each read hooked in at its end tick and each write hooked
/// out at its start tick; a read reaches exactly the writes starting at or
/// after it inside its window, the pairs [`region_allows`] admits.
/// Register-carried first segments are skipped as targets (they enter only
/// from `s`), and reads with no write at or after them in their window get
/// no hook. Same-variable targets cannot be excluded on a shared chain;
/// such a path is never cheaper than the variable's chain arc.
fn walk_time_lines<E>(
    arena: &BuildArena,
    regions: &[TickRange],
    mut visit: impl FnMut(Hook) -> Result<(), E>,
) -> Result<(), E> {
    let (starts, ends) = (&arena.starts, &arena.ends);
    let target = |&i: &u32| !arena.register_carried_first[i as usize];
    let mut rest = &arena.by_end[..];
    while let Some(&first) = rest.first() {
        let first_end = ends[first as usize];
        let k = regions.partition_point(|r| r.start <= first_end);
        let split = regions.get(k).map_or(rest.len(), |r| {
            rest.partition_point(|&i| ends[i as usize] < r.start)
        });
        let (reads, later) = rest.split_at(split);
        rest = later;
        let last = window_end(regions, first_end);
        let lo = arena
            .by_start
            .partition_point(|&i| starts[i as usize] < first_end);
        let hi = arena
            .by_start
            .partition_point(|&i| starts[i as usize] <= last);
        let writes = &arena.by_start[lo..hi];
        let Some(last_write) = writes.iter().rev().find(|i| target(i)) else {
            continue;
        };
        let last_write = starts[*last_write as usize];
        let reads = &reads[..reads.partition_point(|&i| ends[i as usize] <= last_write)];
        visit(Hook::Window)?;
        let mut reads = reads.iter().peekable();
        let mut writes = writes.iter().filter(|i| target(i)).peekable();
        loop {
            let next_read = reads.peek().map(|&&i| ends[i as usize]);
            let next_write = writes.peek().map(|&&i| starts[i as usize]);
            let Some(now) = next_read.into_iter().chain(next_write).min() else {
                break;
            };
            visit(Hook::Tick)?;
            while let Some(&i) = reads.next_if(|&&i| ends[i as usize] == now) {
                visit(Hook::Exit(i as usize))?;
            }
            while let Some(&i) = writes.next_if(|&&i| starts[i as usize] == now) {
                visit(Hook::Enter(i as usize))?;
            }
        }
    }
    Ok(())
}

fn build_with_regions_in(
    problem: &AllocationProblem,
    segmentation: &Segmentation,
    regions: &[TickRange],
    forced: Option<NetworkForm>,
    arena: &mut BuildArena,
) -> Result<BuiltNetwork, CoreError> {
    let costs = CostCalculator::for_problem(problem);
    // t sits after every event; s before every event.
    let infinity = Tick(u32::MAX);
    let source_tick = Tick(0);
    let n = segmentation.len();
    let registers = i64::from(problem.registers);

    // ---- pass 1: per-segment precompute + exact arc census ---------------
    //
    // The hand-off double loop visits every admitted segment pair;
    // everything that depends on one endpoint only is computed once per
    // segment here, so the emission loop below is left with an O(1) window
    // test and the pair-specific Hamming transition term per candidate.
    arena.clear();
    let mut chain_count = 0usize;
    for (_, seg) in segmentation.iter() {
        arena.exit_cost.push(costs.exit(seg));
        arena.enter_cost.push(costs.enter(seg));
        arena
            .register_carried_first
            .push(seg.is_first && problem.carried_in_register.contains(&seg.var));
        arena.starts.push(seg.start());
        arena.ends.push(seg.end());
        arena.var_of.push(seg.var.0);
        chain_count += usize::from(!seg.is_last);
    }
    // Segment ids ordered by start tick (ties by id): the hand-off loop
    // binary-searches this order for the first feasible `to` and stops at the
    // end of the region window, instead of scanning all O(n²) pairs. The sort
    // key depends only on the segmentation, never on costs or capacities, so
    // two problems over the same lifetime table emit identical arc numbering
    // — the determinism the warm-start diff layer relies on.
    arena.by_start.extend(0..n as u32);
    let starts = &arena.starts;
    arena.by_start.sort_by_key(|&i| (starts[i as usize], i));

    let pairs = window_pairs(arena, regions);
    let form = forced.unwrap_or_else(|| form_for(problem, pairs));
    if form == NetworkForm::TimeLine {
        // The time-line walk also needs the reads in end-tick order.
        arena.by_end.extend(0..n as u32);
        let ends = &arena.ends;
        arena.by_end.sort_by_key(|&i| (ends[i as usize], i));
    }
    let transition = match form {
        NetworkForm::Bipartite => MicroEnergy::ZERO,
        NetworkForm::TimeLine => costs
            .split_transition()
            .expect("the time-line form needs hand-off costs that split per endpoint"),
    };

    // Census of the hand-off structure: the bipartite count follows from the
    // window pairs by binary search, the time-line form walks its chains;
    // either is cheap enough that counting first costs far less than
    // letting the arc arena double its way up.
    let (mut handoff_count, mut exit_count, mut enter_count) = (0usize, 0usize, 0usize);
    let (mut tick_count, mut window_count) = (0usize, 0usize);
    match form {
        NetworkForm::Bipartite => {
            handoff_count = bipartite_census(arena, segmentation, regions, pairs);
        }
        NetworkForm::TimeLine => {
            walk_time_lines(arena, regions, |hook| {
                match hook {
                    Hook::Window => window_count += 1,
                    Hook::Tick => tick_count += 1,
                    Hook::Exit(_) => exit_count += 1,
                    Hook::Enter(_) => enter_count += 1,
                }
                Ok::<(), CoreError>(())
            })?;
        }
    }
    let tick_arc_count = tick_count - window_count;
    let mut source_count = 0usize;
    let mut sink_count = 0usize;
    for (id, seg) in segmentation.iter() {
        let source_ok = region_allows(regions, source_tick, seg.start());
        let carried_register = arena.register_carried_first[id.index()];
        source_count += usize::from(
            source_ok || carried_register || (problem.relief_arcs && seg.forced_register),
        );
        let sink_ok = region_allows(regions, seg.end(), infinity);
        sink_count += usize::from(sink_ok || problem.relief_arcs);
    }
    // n segment arcs + chains + hand-off structure + hook-ups + the bypass.
    let arc_total = n
        + chain_count
        + handoff_count
        + exit_count
        + enter_count
        + tick_arc_count
        + source_count
        + sink_count
        + 1;

    // ---- pass 2: emission into exactly-sized buffers ---------------------
    let mut net = FlowNetwork::with_capacity(2 + 2 * n + tick_count, arc_total);
    let s = net.add_node();
    let t = net.add_node();
    let mut write_node = Vec::with_capacity(n);
    let mut read_node = Vec::with_capacity(n);
    let mut segment_arc = Vec::with_capacity(n);
    for (_, seg) in segmentation.iter() {
        let w = net.add_node();
        let r = net.add_node();
        let lb = i64::from(seg.forced_register);
        segment_arc.push(net.add_arc_bounded(w, r, lb, 1, 0)?);
        write_node.push(w);
        read_node.push(r);
    }

    let mut handoff_of = Vec::with_capacity(handoff_count);
    let mut chain_of = Vec::with_capacity(chain_count);
    for (from_id, from) in segmentation.iter() {
        // Chain arc to the variable's next segment — eq. (9).
        if !from.is_last {
            let next = segmentation.id_of(from.var, from.index + 1);
            let arc = net.add_arc(
                read_node[from_id.index()],
                write_node[next.index()],
                1,
                costs.chain(from).raw(),
            )?;
            chain_of.push((arc, from_id));
        }
        if form == NetworkForm::TimeLine {
            continue;
        }
        // Hand-off window out of `from` under the region rule: a write at
        // `to_start >= from.end()` is admitted up to `window_end`.
        let from_end = from.end();
        let last = window_end(regions, from_end);
        // Hand-off arcs to other variables' segments. A register-carried
        // variable's first segment is only reachable from `s` — its value
        // is already in a register at block entry, so it cannot take over
        // another variable's register. Candidates come from `by_start`: the
        // first segment starting at or after `from_end` through the last one
        // inside the region window.
        let lo = arena
            .by_start
            .partition_point(|&i| arena.starts[i as usize] < from_end);
        for &to_idx in &arena.by_start[lo..] {
            let to_start = arena.starts[to_idx as usize];
            if to_start > last {
                break;
            }
            let to_id = SegmentId(to_idx);
            if arena.var_of[to_id.index()] == from.var.0
                || arena.register_carried_first[to_id.index()]
            {
                continue;
            }
            let to = segmentation.segment(to_id);
            debug_assert!(region_allows(regions, from_end, to_start));
            let cost = arena.exit_cost[from_id.index()]
                + arena.enter_cost[to_id.index()]
                + costs.transition(from, to);
            debug_assert_eq!(cost, costs.handoff(from, to));
            let arc = net.add_arc(
                read_node[from_id.index()],
                write_node[to_id.index()],
                1,
                cost.raw(),
            )?;
            handoff_of.push((arc, from_id, to_id));
        }
    }

    // The time-line form: per window, `r → tick` at the exit cost (plus the
    // pair-independent transition term), zero-cost forward tick arcs of
    // capacity R, and `tick → w` at the enter cost — so every read-to-write
    // path costs exactly the bipartite hand-off arc it replaces.
    let mut exit_of = Vec::with_capacity(exit_count);
    let mut enter_of = Vec::with_capacity(enter_count);
    let mut tick_arcs = Vec::with_capacity(tick_arc_count);
    if form == NetworkForm::TimeLine {
        let (mut prev, mut tick) = (None, s);
        walk_time_lines(arena, regions, |hook| {
            match hook {
                Hook::Window => prev = None,
                Hook::Tick => {
                    tick = net.add_node();
                    if let Some(p) = prev.replace(tick) {
                        tick_arcs.push(net.add_arc(p, tick, registers, 0)?);
                    }
                }
                Hook::Exit(i) => {
                    let cost = arena.exit_cost[i] + transition;
                    let arc = net.add_arc(read_node[i], tick, 1, cost.raw())?;
                    exit_of.push((arc, SegmentId(i as u32)));
                }
                Hook::Enter(i) => {
                    let cost = arena.enter_cost[i];
                    let arc = net.add_arc(tick, write_node[i], 1, cost.raw())?;
                    enter_of.push((arc, SegmentId(i as u32)));
                }
            }
            Ok::<(), CoreError>(())
        })?;
    }

    // Source and sink hook-ups.
    let mut source_of = Vec::with_capacity(source_count);
    let mut sink_of = Vec::with_capacity(sink_count);
    for (id, seg) in segmentation.iter() {
        let source_ok = region_allows(regions, source_tick, seg.start());
        let carried_register = arena.register_carried_first[id.index()];
        if source_ok || carried_register || (problem.relief_arcs && seg.forced_register) {
            let arc = net.add_arc(s, write_node[id.index()], 1, costs.source(seg).raw())?;
            source_of.push((arc, id));
        }
        let sink_ok = region_allows(regions, seg.end(), infinity);
        if sink_ok || problem.relief_arcs {
            let arc = net.add_arc(read_node[id.index()], t, 1, costs.sink(seg).raw())?;
            sink_of.push((arc, id));
        }
    }

    // Unused registers flow straight through.
    let bypass = net.add_arc(s, t, registers, 0)?;
    if net.arc_count() != arc_total {
        return Err(CoreError::Internal {
            reason: format!(
                "arc census counted {arc_total} arcs, emission added {}",
                net.arc_count()
            ),
        });
    }

    // Chain and hand-off arcs get the tie-break discount: among equal-cost
    // optima, prefer the maximally-chained one (fewest registers touched).
    // In the time-line form the hand-off arcs are the `r → tick` and
    // `tick → w` hooks; the forward tick arcs stay unpreferred.
    let mut preferred = vec![false; net.arc_count()];
    let handoffs = handoff_of.iter().map(|&(arc, _, _)| arc);
    let hooks = exit_of.iter().chain(&enter_of).chain(&chain_of);
    for arc in handoffs.chain(hooks.map(|&(arc, _)| arc)) {
        preferred[arc.index()] = true;
    }
    let (cost_scale, cost_unit, tie_weights, tie_bits) =
        apply_tie_break(&mut net, &preferred, None);

    Ok(BuiltNetwork {
        net,
        s,
        t,
        form,
        window_pairs: pairs,
        segment_arc,
        read_node,
        write_node,
        handoff_of,
        chain_of,
        exit_of,
        enter_of,
        tick_arcs,
        source_of,
        sink_of,
        bypass,
        cost_scale,
        cost_unit,
        tie_weights,
        preferred,
        tie_bits,
    })
}

/// Re-prices a previously [`build`]-t network for a new parameter point over
/// the *same* topology (lifetimes, split, style, relief and register-carry
/// sets unchanged, and the same [`NetworkForm`]): every arc's raw cost is
/// recomputed from the new problem's energy model into the per-thread
/// arena, the bypass and tick-arc capacities take the new register count,
/// and the tie-break transform is re-applied. The result is bit-identical to
/// what a fresh [`build`] would produce — only ~3× cheaper, because the
/// segmentation scan, region profile and hand-off window search are all
/// skipped. [`PipelineCx::allocate_warm`](crate::PipelineCx::allocate_warm)
/// calls this on topology-stable sweep points so warm solves don't pay
/// construction costs, and only when the point's pricing inputs (energy
/// model, register-energy kind, register count, memory-carried set, and
/// the activity source under the activity model) differ from those the
/// network was last priced from: equal inputs price it the same, so that
/// case skips this function altogether.
///
/// Returns whether the network changed. When the recomputed raw costs and
/// the register count equal what the network already encodes (other
/// inputs that price it the same way), it is left untouched: no tie-break
/// re-application and no version bump, so the retained optimum still
/// answers the point.
pub(crate) fn refresh(
    problem: &AllocationProblem,
    segmentation: &Segmentation,
    built: &mut BuiltNetwork,
) -> Result<bool, CoreError> {
    let costs = CostCalculator::for_problem(problem);
    let registers = i64::from(problem.registers);
    BUILD_ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        arena.clear();
        let BuildArena {
            exit_cost,
            enter_cost,
            raw_cost: raw,
            ..
        } = &mut *arena;
        // Segment, bypass and tick arcs stay at zero.
        raw.resize(built.net.arc_count(), 0);
        for &(arc, from) in &built.chain_of {
            raw[arc.index()] = costs.chain(segmentation.segment(from)).raw();
        }
        match built.form {
            // Same one-endpoint precompute as `build`: the hand-off list is
            // the quadratic part of the network.
            NetworkForm::Bipartite => {
                for (_, seg) in segmentation.iter() {
                    exit_cost.push(costs.exit(seg));
                    enter_cost.push(costs.enter(seg));
                }
                for &(arc, from_id, to_id) in &built.handoff_of {
                    let from = segmentation.segment(from_id);
                    let to = segmentation.segment(to_id);
                    let cost = exit_cost[from_id.index()]
                        + enter_cost[to_id.index()]
                        + costs.transition(from, to);
                    debug_assert_eq!(cost, costs.handoff(from, to));
                    raw[arc.index()] = cost.raw();
                }
            }
            NetworkForm::TimeLine => {
                let transition = costs
                    .split_transition()
                    .expect("a time-line network is only retained for split costs");
                for &(arc, seg) in &built.exit_of {
                    raw[arc.index()] = (costs.exit(segmentation.segment(seg)) + transition).raw();
                }
                for &(arc, seg) in &built.enter_of {
                    raw[arc.index()] = costs.enter(segmentation.segment(seg)).raw();
                }
            }
        }
        for &(arc, seg) in &built.source_of {
            raw[arc.index()] = costs.source(segmentation.segment(seg)).raw();
        }
        for &(arc, seg) in &built.sink_of {
            raw[arc.index()] = costs.sink(segmentation.segment(seg)).raw();
        }
        if built.net.arc(built.bypass).capacity == registers && encodes(built, raw) {
            return Ok(false);
        }
        // Capacity before costs: `apply_tie_break` reads capacities when
        // sizing the weight resolution, and the bypass and tick arcs carry
        // the register count.
        for &arc in std::iter::once(&built.bypass).chain(&built.tick_arcs) {
            built
                .net
                .set_arc_capacity(arc, registers)
                .map_err(CoreError::Flow)?;
        }
        built.net.map_costs(|id, _| raw[id.index()]);
        // The preference mask is topology-only and the splitmix64 weights
        // are a pure function of (arc index, resolution, preference), so
        // both carry over from the previous point. Only the resolution
        // choice depends on the new costs; when it lands on the same width —
        // the common case in a sweep — the cached weight vector is reused
        // bit-for-bit.
        let cached =
            (built.tie_bits > 0).then(|| (built.tie_bits, std::mem::take(&mut built.tie_weights)));
        let (cost_scale, cost_unit, tie_weights, tie_bits) =
            apply_tie_break(&mut built.net, &built.preferred, cached);
        built.cost_scale = cost_scale;
        built.cost_unit = cost_unit;
        built.tie_weights = tie_weights;
        built.tie_bits = tie_bits;
        Ok(true)
    })
}

/// True if `built`'s tie-broken costs encode exactly the raw costs `raw`.
/// [`apply_tie_break`] stores `(c / unit) · scale + w` with `unit` dividing
/// every raw cost `c`, so `(cost − w) · unit = c · scale` recovers the
/// comparison without a division; 128-bit products cannot overflow.
fn encodes(built: &BuiltNetwork, raw: &[i64]) -> bool {
    let (scale, unit) = (i128::from(built.cost_scale), i128::from(built.cost_unit));
    // No weights when the perturbation was skipped (scale and unit are 1).
    let weight = |i: usize| built.tie_weights.get(i).copied().unwrap_or(0);
    built.net.arcs().zip(raw).all(|((id, arc), &c)| {
        i128::from(arc.cost - weight(id.index())) * unit == i128::from(c) * scale
    })
}

/// Deterministic per-arc tie-break weight at a given resolution: the top
/// `bits` bits of a splitmix64-finalised hash of the arc index. The
/// xor-shift rounds matter — a bare multiply is linear, so crossing
/// hand-off swaps with equal arc-index sums (`a1+a2 == a3+a4`, routine when
/// two rows list the same candidates) would collide in aggregate no matter
/// how wide the weights are. Preferred arcs (chains and hand-offs) are
/// shifted down by a full `2^bits` so every one of them undercuts every
/// non-preferred arc in a tie.
fn tie_weight(arc: usize, bits: u32, preferred: bool) -> i64 {
    let mut z = (arc as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let hashed = (z >> (64 - bits)) as i64;
    if preferred {
        hashed - (1i64 << bits)
    } else {
        hashed
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// The inverse of an odd `d` modulo 2^64: Newton's iteration doubles the
/// correct low bits per step, from the three that `d·d ≡ 1 (mod 8)` gives.
fn odd_inverse(d: i64) -> i64 {
    debug_assert_eq!(d & 1, 1);
    let mut x = d;
    for _ in 0..5 {
        x = x.wrapping_mul(2i64.wrapping_sub(d.wrapping_mul(x)));
    }
    x
}

/// Makes the min-cost flow optimum (generically) unique: every arc cost is
/// divided by the costs' common quantum (their gcd — energy deltas are
/// heavily quantised, so this is typically worth ~11 bits of headroom),
/// scaled by a common factor `M`, and offset by its [`tie_weight`], with `M`
/// exceeding any possible weight total a flow can accumulate. Flows that
/// differ in raw cost then still compare the same way (the raw gap is ≥ 1
/// quantum, worth more than `M` > any weight sum), while raw-cost ties are
/// broken by the hashed weights — so warm-started and cold solves land on
/// the *same* optimum instead of two equal-cost alternatives, which is what
/// lets a sweep promise identical placements, not just identical objectives.
///
/// The weight resolution adapts to the instance: the widest width up to 24
/// bits whose scaled magnitudes leave the solver's `i64` arithmetic ample
/// headroom. Wider weights make an aggregate hash collision — two tied
/// flows whose weight sums also tie — exponentially less likely. Returns
/// `(scale, unit, weights, bits)`; `(1, 1, [], 0)` when even 1-bit weights
/// would not fit, in which case the costs are left untouched. Every decision
/// depends only on the network, so all solvers see the same costs for a
/// problem.
///
/// The arcs are read once and written once. The read pass folds the gcd
/// only where a cost differs from its predecessor and is not already a
/// multiple of it, and sums `Σ cap·|c|` and `Σ cap` in `u128`; one division
/// by the unit, which divides every cost, then equals the per-arc
/// saturating fold `Σ cap·|c/unit|`. The weights are hashed in the loop
/// that sums `Σ cap·|w|`. The write pass divides each cost exactly by the
/// unit: an arithmetic shift by its power of two, then a multiply by its
/// odd part's inverse modulo 2^64.
///
/// `cached` may carry a previous application's `(bits, weights)` over the
/// same topology: when the freshly-chosen resolution matches, the weight
/// vector is reused instead of re-hashed — bit-identical by construction,
/// since weights depend only on arc index, resolution and preference.
fn apply_tie_break(
    net: &mut FlowNetwork,
    preferred: &[bool],
    cached: Option<(u32, Vec<i64>)>,
) -> (i64, i64, Vec<i64>, u32) {
    // Capacities are non-negative (the network rejects anything below an
    // arc's lower bound), so the `u128` sums never wrap: a term is below
    // 2^126 and the magnitude sum saturates.
    let weighed = |capacity: i64, value: i64| capacity as u128 * u128::from(value.unsigned_abs());
    let (mut unit, mut previous) = (0i64, 0i64);
    let (mut magnitude, mut cap_total) = (0u128, 0u128);
    for (_, arc) in net.arcs() {
        let cost = arc.cost;
        if cost != previous && (unit == 0 || cost % unit != 0) {
            unit = gcd(unit, cost);
        }
        previous = cost;
        magnitude = magnitude.saturating_add(weighed(arc.capacity, cost));
        cap_total += arc.capacity as u128;
    }
    let unit = unit.max(1);
    let clamp = |v: u128| i64::try_from(v).unwrap_or(i64::MAX);
    // Σ cap·|c/unit| ≥ any flow's |cost| total, in quanta.
    let cost_magnitude = clamp(magnitude / unit as u128);
    let cap_total = clamp(cap_total);
    let headroom = i64::MAX / 8;
    // Pick the widest weight resolution whose *bound* fits — `cap_total·2^b`
    // over-estimates Σ cap·|w| by at most 2×, and using the bound keeps the
    // selection a cheap O(1)-per-candidate scan instead of an O(arcs) pass
    // per candidate width.
    let Some(bits) = (1..=24u32).rev().find(|&bits| {
        let bound = cap_total.saturating_mul(1i64 << bits);
        cost_magnitude
            .checked_mul(bound.saturating_add(1))
            .and_then(|v| v.checked_add(bound))
            .is_some_and(|total| total < headroom)
    }) else {
        return (1, 1, Vec::new(), 0);
    };
    // Σ cap·|w| ≥ any |Σ Δf·w| over flow pairs.
    let mut weight_total = 0u128;
    let weights: Vec<i64> = match cached {
        Some((cached_bits, weights)) if cached_bits == bits && weights.len() == net.arc_count() => {
            for ((id, arc), &w) in net.arcs().zip(&weights) {
                debug_assert_eq!(w, tie_weight(id.index(), bits, preferred[id.index()]));
                weight_total += weighed(arc.capacity, w);
            }
            weights
        }
        _ => net
            .arcs()
            .map(|(id, arc)| {
                let w = tie_weight(id.index(), bits, preferred[id.index()]);
                weight_total += weighed(arc.capacity, w);
                w
            })
            .collect(),
    };
    let scale = clamp(weight_total).saturating_add(1);
    // In place, one version bump: no staging buffer of (arc, cost) pairs —
    // on a 4k-variable network that intermediate was several MB of churn
    // per build and per sweep point.
    let shift = unit.trailing_zeros();
    let inverse = odd_inverse(unit >> shift);
    net.map_costs(|id, arc| {
        (arc.cost >> shift).wrapping_mul(inverse) * scale + weights[id.index()]
    });
    (scale, unit, weights, bits)
}

/// The §5.1 flow network of a problem together with its stable arc-handle
/// maps — the problem-diff layer's view of [`build`]'s output.
///
/// Construction is deterministic: node and arc numbering depend only on the
/// segmentation (lifetime table plus split options) and the
/// [`NetworkForm`], never on costs, capacities or the register count. The
/// form itself depends on the segmentation and on whether the hand-off
/// costs split per endpoint (the register-energy kind and the activity
/// source), so two problems over the same lifetime table whose costs split
/// alike produce networks whose arcs line up index-for-index, which is what
/// lets a sweep express successive parameter points as arc deltas on one
/// retained network (see
/// [`PipelineCx::allocate_warm`](crate::PipelineCx::allocate_warm)).
#[derive(Debug)]
pub struct NetworkView {
    /// The flow network (solve it for `R` units from `source` to `sink`).
    pub net: FlowNetwork,
    /// Source node `s`.
    pub source: NodeId,
    /// Sink node `t`.
    pub sink: NodeId,
    /// The hand-off structure the network was built in.
    pub form: NetworkForm,
    /// Per segment (by [`SegmentId`] index): its `w → r` arc; unit flow on
    /// it places the segment in a register.
    pub segment_arc: Vec<ArcId>,
    /// Hand-off arcs as `(arc, from_segment, to_segment)`; empty in the
    /// time-line form, whose hand-offs run through tick nodes.
    pub handoff_arcs: Vec<(ArcId, SegmentId, SegmentId)>,
    /// Chain arcs as `(arc, from_segment)`; the head is the variable's next
    /// segment.
    pub chain_arcs: Vec<(ArcId, SegmentId)>,
    /// The zero-cost `s → t` bypass absorbing unused registers.
    pub bypass: ArcId,
    /// Arc costs are energy deltas divided by [`Self::cost_unit`], scaled by
    /// this factor, and offset by a small deterministic per-arc tie-break
    /// weight so the optimum is unique; [`Self::raw_cost`] undoes the
    /// encoding. 1 when the perturbation was skipped for headroom.
    pub cost_scale: i64,
    /// Common quantum divided out of every raw cost before scaling (1 when
    /// the perturbation was skipped).
    pub cost_unit: i64,
    /// Always empty. It held cut positions for the region-parallel solver
    /// backend, which has been removed; kept so existing readers compile
    /// (it pairs with the no-op [`ResilientSolver::set_region_hints`]), to
    /// be removed.
    ///
    /// [`ResilientSolver::set_region_hints`]: lemra_netflow::ResilientSolver::set_region_hints
    pub region_hints: Vec<u32>,
    tie_weights: Vec<i64>,
}

impl NetworkView {
    /// A solution's cost in micro-energy units: the tie-break weights its
    /// flow picked up subtracted, the scale divided out and the quantum
    /// restored — the allocation's [`flow_cost`](crate::Allocation::flow_cost)
    /// for the flow the allocator binds.
    pub fn raw_cost(&self, solution: &FlowSolution) -> i64 {
        raw_cost(solution, self.cost_scale, self.cost_unit, &self.tie_weights)
    }
}

/// Undoes [`apply_tie_break`]'s encoding of a solution's cost: subtract the
/// flow's weight total, divide by the (exact) scale, and restore the cost
/// quantum.
pub(crate) fn raw_cost(solution: &FlowSolution, scale: i64, unit: i64, weights: &[i64]) -> i64 {
    if scale == 1 {
        return solution.cost;
    }
    let picked: i64 = weights
        .iter()
        .zip(&solution.flows)
        .map(|(&w, &f)| w * f)
        .sum();
    debug_assert_eq!((solution.cost - picked) % scale, 0);
    (solution.cost - picked) / scale * unit
}

/// Builds the flow network for `problem` and returns it with the arc-handle
/// maps; see [`NetworkView`] for the determinism guarantee. This is the
/// network [`allocate`](crate::allocate) solves.
///
/// # Errors
///
/// Returns [`CoreError::Flow`] if network construction fails (an internal
/// error for well-formed problems).
pub fn build_network(problem: &AllocationProblem) -> Result<NetworkView, CoreError> {
    view_as(problem, None)
}

/// [`build_network`] in the [`NetworkForm::Bipartite`] form whatever the
/// problem's size — the reference the time-line form is checked against.
///
/// # Errors
///
/// Same as [`build_network`].
pub fn build_network_bipartite(problem: &AllocationProblem) -> Result<NetworkView, CoreError> {
    view_as(problem, Some(NetworkForm::Bipartite))
}

fn view_as(
    problem: &AllocationProblem,
    form: Option<NetworkForm>,
) -> Result<NetworkView, CoreError> {
    let segmentation = Segmentation::new(&problem.lifetimes, &problem.split);
    let regions = profile_regions(problem, &segmentation);
    let built = build_with_regions(problem, &segmentation, &regions, form)?;
    Ok(NetworkView {
        net: built.net,
        source: built.s,
        sink: built.t,
        form: built.form,
        segment_arc: built.segment_arc,
        handoff_arcs: built.handoff_of,
        chain_arcs: built.chain_of,
        bypass: built.bypass,
        cost_scale: built.cost_scale,
        cost_unit: built.cost_unit,
        region_hints: Vec::new(),
        tie_weights: built.tie_weights,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SplitOptions;
    use lemra_ir::{LifetimeTable, Step};

    fn figure1_table() -> LifetimeTable {
        LifetimeTable::from_intervals(
            7,
            vec![
                (1, vec![3], false), // a
                (1, vec![3], false), // b
                (2, vec![], true),   // c
                (3, vec![], true),   // d
                (5, vec![7], false), // e
            ],
        )
        .unwrap()
    }

    #[test]
    fn region_rule() {
        let regions = vec![
            TickRange {
                start: Tick(5),
                end: Tick(7),
            },
            TickRange {
                start: Tick(11),
                end: Tick(14),
            },
        ];
        // Within one gap: fine.
        assert!(region_allows(&regions, Tick(8), Tick(10)));
        // Region boundary contact: fine.
        assert!(region_allows(&regions, Tick(5), Tick(10)));
        assert!(region_allows(&regions, Tick(2), Tick(7)));
        // Spans the second region entirely: rejected.
        assert!(!region_allows(&regions, Tick(8), Tick(16)));
        // Backwards in time: rejected.
        assert!(!region_allows(&regions, Tick(9), Tick(8)));
    }

    #[test]
    fn figure1_network_shape() {
        let problem = crate::AllocationProblem::new(figure1_table(), 2);
        let segs = Segmentation::new(&problem.lifetimes, &SplitOptions::none());
        let built = build(&problem, &segs).unwrap();
        // Far below the gate: the bipartite form.
        assert_eq!(built.form, NetworkForm::Bipartite);
        // 2 terminals + 2 nodes per segment.
        assert_eq!(built.net.node_count(), 2 + 2 * segs.len());
        // a's read (t3r) can hand off to d (t3w) and e (t5w): both in the
        // gap between the two max-density regions.
        let a_handoffs: Vec<_> = built
            .handoff_of
            .iter()
            .filter(|(_, from, _)| segs.segment(*from).var == lemra_ir::VarId(0))
            .map(|(_, _, to)| segs.segment(*to).var)
            .collect();
        assert!(a_handoffs.contains(&lemra_ir::VarId(3))); // d
        assert!(a_handoffs.contains(&lemra_ir::VarId(4))); // e
                                                           // a cannot hand off to c (c starts before a ends).
        assert!(!a_handoffs.contains(&lemra_ir::VarId(2)));
    }

    #[test]
    fn all_pairs_has_at_least_region_arcs() {
        let table = figure1_table();
        let p_regions = crate::AllocationProblem::new(table.clone(), 2);
        let p_all = crate::AllocationProblem::new(table, 2)
            .with_style(GraphStyle::AllPairs)
            .with_relief_arcs(false);
        let segs = Segmentation::new(&p_regions.lifetimes, &SplitOptions::none());
        let built_r = build(&p_regions, &segs).unwrap();
        let built_a = build(&p_all, &segs).unwrap();
        assert!(built_a.handoff_of.len() >= built_r.handoff_of.len());
    }

    #[test]
    fn forced_segment_arc_has_lower_bound() {
        let table = LifetimeTable::from_intervals(8, vec![(2, vec![4], false)]).unwrap();
        let problem = crate::AllocationProblem::new(table, 1).with_access_period(4);
        let segs = Segmentation::new(&problem.lifetimes, &problem.split);
        assert!(segs.segment(crate::SegmentId(0)).forced_register);
        let built = build(&problem, &segs).unwrap();
        let arc = built.net.arc(built.segment_arc[0]);
        assert_eq!(arc.lower_bound, 1);
    }

    #[test]
    fn chain_arcs_connect_split_segments() {
        let table = LifetimeTable::from_intervals(8, vec![(1, vec![3, 7], false)]).unwrap();
        let problem = crate::AllocationProblem::new(table, 1);
        let segs = Segmentation::new(&problem.lifetimes, &problem.split);
        assert_eq!(segs.len(), 2);
        let built = build(&problem, &segs).unwrap();
        assert_eq!(built.chain_of.len(), 1);
        let (arc, from) = built.chain_of[0];
        assert_eq!(from, crate::SegmentId(0));
        let a = built.net.arc(arc);
        assert_eq!(a.from, built.read_node[0]);
        assert_eq!(a.to, built.write_node[1]);
    }

    #[test]
    fn arc_numbering_is_deterministic_across_parameter_points() {
        // Two sweep points over one lifetime table — different energy
        // model, objective and register count — must produce networks whose
        // arcs line up index-for-index (endpoints and lower bounds equal),
        // with identical handle maps. This is the contract the warm-start
        // diff layer depends on.
        let table = figure1_table();
        let a = crate::AllocationProblem::new(table.clone(), 2);
        let b = crate::AllocationProblem::new(table, 5)
            .with_energy(lemra_energy::EnergyModel::default_16bit().with_memory_voltage(1.2))
            .with_register_energy(lemra_energy::RegisterEnergyKind::Static);
        let va = build_network(&a).unwrap();
        let vb = build_network(&b).unwrap();
        assert_eq!(va.net.node_count(), vb.net.node_count());
        assert_eq!(va.net.arc_count(), vb.net.arc_count());
        for ((_, x), (_, y)) in va.net.arcs().zip(vb.net.arcs()) {
            assert_eq!(x.from, y.from);
            assert_eq!(x.to, y.to);
            assert_eq!(x.lower_bound, y.lower_bound);
        }
        assert_eq!(va.segment_arc, vb.segment_arc);
        assert_eq!(va.handoff_arcs, vb.handoff_arcs);
        assert_eq!(va.chain_arcs, vb.chain_arcs);
        assert_eq!(va.bypass, vb.bypass);
        // Only the bypass capacity (the register count) may differ.
        assert_eq!(va.net.arc(va.bypass).capacity, 2);
        assert_eq!(vb.net.arc(vb.bypass).capacity, 5);
        // Hand-off arcs out of each segment are emitted in start-tick order.
        let segs = Segmentation::new(&a.lifetimes, &a.split);
        for w in va.handoff_arcs.windows(2) {
            let ((_, f0, t0), (_, f1, t1)) = (w[0], w[1]);
            if f0 == f1 {
                let key0 = (segs.segment(t0).start(), t0);
                let key1 = (segs.segment(t1).start(), t1);
                assert!(key0 <= key1, "hand-offs out of order");
            }
        }
    }

    #[test]
    fn refresh_reprices_bit_identically_to_fresh_build() {
        // Re-pricing point a's network for point b (different voltage,
        // register accounting and register count) must reproduce b's fresh
        // build exactly — costs, capacities and tie-break encoding alike —
        // so the warm path solves the very same instance the cold path does.
        // Both forms: the time-line form re-prices its exit and enter hooks
        // and resets its tick capacities to the new register count.
        let table = figure1_table();
        let a = crate::AllocationProblem::new(table.clone(), 2);
        let b = crate::AllocationProblem::new(table.clone(), 5)
            .with_energy(lemra_energy::EnergyModel::default_16bit().with_memory_voltage(1.2))
            .with_register_energy(lemra_energy::RegisterEnergyKind::Static);
        let c = crate::AllocationProblem::new(table, 3)
            .with_register_energy(lemra_energy::RegisterEnergyKind::Activity)
            .with_activity(lemra_ir::ActivitySource::Uniform { hamming: 6.0 });
        let segs = Segmentation::new(&a.lifetimes, &a.split);
        let regions = profile_regions(&a, &segs);
        for form in [NetworkForm::Bipartite, NetworkForm::TimeLine] {
            let mut refreshed = build_with_regions(&a, &segs, &regions, Some(form)).unwrap();
            for next in [&b, &c] {
                refresh(next, &segs, &mut refreshed).unwrap();
                let fresh = build_with_regions(next, &segs, &regions, Some(form)).unwrap();
                assert_eq!(refreshed.form, fresh.form);
                assert_eq!(refreshed.cost_scale, fresh.cost_scale);
                assert_eq!(refreshed.cost_unit, fresh.cost_unit);
                assert_eq!(refreshed.tie_weights, fresh.tie_weights);
                assert_eq!(refreshed.net.arc_count(), fresh.net.arc_count());
                for ((_, x), (_, y)) in refreshed.net.arcs().zip(fresh.net.arcs()) {
                    assert_eq!(x.from, y.from);
                    assert_eq!(x.to, y.to);
                    assert_eq!(x.lower_bound, y.lower_bound);
                    assert_eq!(x.capacity, y.capacity);
                    assert_eq!(x.cost, y.cost);
                }
            }
            assert_eq!(
                refreshed.tick_arcs.is_empty(),
                form == NetworkForm::Bipartite
            );
        }
    }

    /// Raw arc costs, recovered from a built network's tie-broken ones.
    fn raw_costs(built: &BuiltNetwork) -> Vec<i64> {
        built
            .net
            .arcs()
            .map(|(id, arc)| {
                let weight = built.tie_weights.get(id.index()).copied().unwrap_or(0);
                (arc.cost - weight) / built.cost_scale * built.cost_unit
            })
            .collect()
    }

    #[test]
    fn refresh_leaves_an_unchanged_point_untouched() {
        // A pair-table activity source: the (a, e) entry prices exactly one
        // hand-off arc, a's read at tick 3 into e's write at tick 5.
        let table = figure1_table();
        let point = |hamming: f64, registers: u32| {
            crate::AllocationProblem::new(table.clone(), registers)
                .with_style(GraphStyle::AllPairs)
                .with_register_energy(lemra_energy::RegisterEnergyKind::Activity)
                .with_activity(lemra_ir::ActivitySource::from_pairs([(
                    lemra_ir::VarId(0),
                    lemra_ir::VarId(4),
                    hamming,
                )]))
        };
        let p = point(0.2, 2);
        let segs = Segmentation::new(&p.lifetimes, &p.split);
        let mut retained = build(&p, &segs).unwrap();
        let encoded: Vec<i64> = retained.net.arcs().map(|(_, arc)| arc.cost).collect();
        assert!(!refresh(&p, &segs, &mut retained).unwrap(), "same point");
        let after: Vec<i64> = retained.net.arcs().map(|(_, arc)| arc.cost).collect();
        assert_eq!(after, encoded, "an unchanged point must not be re-encoded");

        // One arc's raw cost, then only the register count: each re-prices
        // into exactly the fresh build of the new point.
        let moved = point(0.7, 2);
        let differing = raw_costs(&build(&moved, &segs).unwrap())
            .iter()
            .zip(raw_costs(&retained))
            .filter(|(x, y)| **x != *y)
            .count();
        assert_eq!(differing, 1);
        for next in [moved, point(0.7, 3)] {
            assert!(refresh(&next, &segs, &mut retained).unwrap());
            let fresh = build(&next, &segs).unwrap();
            assert_eq!(retained.cost_scale, fresh.cost_scale);
            assert_eq!(retained.cost_unit, fresh.cost_unit);
            assert_eq!(retained.tie_weights, fresh.tie_weights);
            for ((_, x), (_, y)) in retained.net.arcs().zip(fresh.net.arcs()) {
                assert_eq!((x.capacity, x.cost), (y.capacity, y.cost));
            }
            assert!(!refresh(&next, &segs, &mut retained).unwrap(), "repeat");
        }
    }

    #[test]
    fn repeated_refresh_reuses_cached_tie_weights_bit_identically() {
        // Drive one retained network through a sweep — voltage, register
        // accounting and register-count moves (the last shifts `cap_total`,
        // which can shift the tie-break resolution and force the re-hash
        // path) — and compare every refresh against an uncached fresh build
        // of the same point. The cached weight reuse must be invisible.
        let table = figure1_table();
        let points: Vec<crate::AllocationProblem> = [
            (3.3, 2u32),
            (2.4, 2),
            (1.8, 5),
            (1.2, 1_000_000_000),
            (3.3, 2),
        ]
        .into_iter()
        .map(|(volts, regs)| {
            crate::AllocationProblem::new(table.clone(), regs)
                .with_energy(lemra_energy::EnergyModel::default_16bit().with_memory_voltage(volts))
        })
        .collect();
        let segs = Segmentation::new(&points[0].lifetimes, &points[0].split);
        let mut retained = build(&points[0], &segs).unwrap();
        let mut resolutions = vec![retained.tie_bits];
        for p in &points[1..] {
            refresh(p, &segs, &mut retained).unwrap();
            resolutions.push(retained.tie_bits);
            let fresh = build(p, &segs).unwrap();
            assert_eq!(retained.cost_scale, fresh.cost_scale);
            assert_eq!(retained.cost_unit, fresh.cost_unit);
            assert_eq!(retained.tie_bits, fresh.tie_bits);
            assert_eq!(retained.tie_weights, fresh.tie_weights);
            assert_eq!(retained.preferred, fresh.preferred);
            for ((_, x), (_, y)) in retained.net.arcs().zip(fresh.net.arcs()) {
                assert_eq!((x.capacity, x.cost), (y.capacity, y.cost));
            }
        }
        // The sweep must exercise both the cache-hit path (stable
        // resolution between consecutive points) and the re-hash path (the
        // register-count jump moves the resolution).
        assert!(resolutions.windows(2).any(|w| w[0] == w[1]), "no cache hit");
        assert!(
            resolutions.windows(2).any(|w| w[0] != w[1]),
            "resolution never moved: {resolutions:?}"
        );
    }

    #[test]
    fn counted_build_reserves_exact_capacities() {
        // The census and the emission loop must agree, and no buffer may
        // over-reserve: peak build heap equals the retained result. Both
        // forms.
        let problem = crate::AllocationProblem::new(figure1_table(), 2);
        let segs = Segmentation::new(&problem.lifetimes, &SplitOptions::none());
        let regions = profile_regions(&problem, &segs);
        for form in [NetworkForm::Bipartite, NetworkForm::TimeLine] {
            let built = build_with_regions(&problem, &segs, &regions, Some(form)).unwrap();
            assert_eq!(
                built.net.heap_bytes(),
                built.net.arc_count() * std::mem::size_of::<lemra_netflow::Arc>()
            );
            assert_eq!(built.handoff_of.capacity(), built.handoff_of.len());
            assert_eq!(built.chain_of.capacity(), built.chain_of.len());
            assert_eq!(built.exit_of.capacity(), built.exit_of.len());
            assert_eq!(built.enter_of.capacity(), built.enter_of.len());
            assert_eq!(built.tick_arcs.capacity(), built.tick_arcs.len());
            assert_eq!(built.source_of.capacity(), built.source_of.len());
            assert_eq!(built.sink_of.capacity(), built.sink_of.len());
            assert!(built.heap_bytes() > built.net.heap_bytes());
        }
    }

    /// Allocates `problem` through the network built in `form`: the
    /// pipeline's Segment → Profile → Build → Solve → Bind stages with the
    /// form forced. Returns the built network and its solution beside the
    /// allocation so callers can inspect arc flows.
    fn allocate_as(
        problem: &crate::AllocationProblem,
        form: NetworkForm,
    ) -> Result<(crate::Allocation, BuiltNetwork, FlowSolution), CoreError> {
        let segs = Segmentation::new(&problem.lifetimes, &problem.split);
        let regions = profile_regions(problem, &segs);
        let built = build_with_regions(problem, &segs, &regions, Some(form))?;
        let target = i64::from(problem.registers);
        let solution = lemra_netflow::min_cost_flow(&built.net, built.s, built.t, target)
            .map_err(|e| crate::allocator::flow_error(problem, e))?;
        let allocation = crate::allocator::extract_allocation(problem, segs, &built, &solution)?;
        Ok((allocation, built, solution))
    }

    /// Two consecutive segments of one variable in a register chain must be
    /// joined by that variable's chain arc, never through a tick chain.
    fn assert_same_variable_joins_use_chain_arcs(
        allocation: &crate::Allocation,
        built: &BuiltNetwork,
        solution: &FlowSolution,
    ) {
        let segs = allocation.segmentation();
        for chain in allocation.chains() {
            for pair in chain.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                if segs.segment(a).var != segs.segment(b).var {
                    continue;
                }
                assert_eq!(b.index(), a.index() + 1, "{a} and {b} joined across a gap");
                let &(arc, _) = built
                    .chain_of
                    .iter()
                    .find(|&&(_, from)| from == a)
                    .expect("a non-last segment has a chain arc");
                assert_eq!(solution.flow(arc), 1, "{a} → {b} not through the chain arc");
            }
        }
    }

    /// Routes `allocation`'s register chains through the bipartite network
    /// `bipartite` — `s`, each chain's segment, chain and hand-off arcs, `t`,
    /// and the bypass for unused registers — and returns that flow, checked
    /// feasible. Panics if a step of a chain has no bipartite arc.
    fn bipartite_flow_of(
        allocation: &crate::Allocation,
        bipartite: &BuiltNetwork,
        registers: u32,
    ) -> FlowSolution {
        let mut flows = vec![0i64; bipartite.net.arc_count()];
        let arc_of = |list: &[(ArcId, SegmentId)], seg: SegmentId| {
            list.iter().find(|&&(_, s)| s == seg).map(|&(arc, _)| arc)
        };
        for chain in allocation.chains() {
            let (first, last) = (chain[0], chain[chain.len() - 1]);
            flows[arc_of(&bipartite.source_of, first)
                .expect("source arc")
                .index()] += 1;
            flows[arc_of(&bipartite.sink_of, last).expect("sink arc").index()] += 1;
            for &seg in chain {
                flows[bipartite.segment_arc[seg.index()].index()] += 1;
            }
            for pair in chain.windows(2) {
                let chained = arc_of(&bipartite.chain_of, pair[0])
                    .filter(|_| pair[1].index() == pair[0].index() + 1);
                let arc = chained.or_else(|| {
                    bipartite
                        .handoff_of
                        .iter()
                        .find(|&&(_, from, to)| (from, to) == (pair[0], pair[1]))
                        .map(|&(arc, _, _)| arc)
                });
                flows[arc.expect("a bipartite hand-off arc").index()] += 1;
            }
        }
        let unused = i64::from(registers) - allocation.chains().len() as i64;
        flows[bipartite.bypass.index()] += unused;
        let cost = bipartite
            .net
            .arcs()
            .map(|(id, arc)| arc.cost * flows[id.index()])
            .sum();
        let solution = FlowSolution {
            flows,
            value: i64::from(registers),
            cost,
        };
        lemra_netflow::validate(&bipartite.net, bipartite.s, bipartite.t, &solution).unwrap();
        solution
    }

    /// A random split-cost instance from `seed`: up to 11 variables over
    /// 4–15 steps, static model or uniform activity, either graph style,
    /// with or without an access period and relief arcs, some variables
    /// carried in from memory or a register, at one of three memory
    /// voltages. `None` when the table comes out empty.
    fn random_instance(seed: u64) -> Option<crate::AllocationProblem> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let block_len = rng.gen_range(4u32..16);
        let vars: Vec<(u32, Vec<u32>, bool)> = (0..rng.gen_range(1usize..12))
            .filter_map(|_| {
                let def = rng.gen_range(1..block_len);
                let mut reads: Vec<u32> = (0..rng.gen_range(0usize..=3))
                    .map(|_| rng.gen_range(def + 1..=block_len))
                    .collect();
                reads.sort_unstable();
                reads.dedup();
                let live_out = rng.gen::<bool>();
                (!reads.is_empty() || live_out).then_some((def, reads, live_out))
            })
            .collect();
        let table = LifetimeTable::from_intervals(block_len, vars).ok()?;
        let volts = [3.3, 1.8, 1.2][rng.gen_range(0usize..3)];
        let mut p = crate::AllocationProblem::new(table, rng.gen_range(0u32..6))
            .with_relief_arcs(rng.gen::<bool>())
            .with_energy(lemra_energy::EnergyModel::default_16bit().with_memory_voltage(volts));
        if rng.gen::<bool>() {
            p = p.with_style(GraphStyle::AllPairs);
        }
        if rng.gen::<bool>() {
            let hamming = [0.0, 4.0, 11.5][rng.gen_range(0usize..3)];
            p = p
                .with_register_energy(lemra_energy::RegisterEnergyKind::Activity)
                .with_activity(lemra_ir::ActivitySource::Uniform { hamming });
        }
        if rng.gen_bool(0.3) {
            p = p.with_access_period(rng.gen_range(2u32..5));
        }
        for v in 0..p.lifetimes.len() {
            let var = lemra_ir::VarId(v as u32);
            p = match rng.gen_range(0u32..6) {
                0 => p.with_carried_in_memory(var),
                1 => p.with_carried_in_register(var),
                _ => p,
            };
        }
        Some(p)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The time-line form is the bipartite network with its hand-offs
        /// routed through ticks: on split-cost instances it reaches the
        /// same de-weighted optimum (or is infeasible too), its allocation
        /// validates, no variable hands its register to itself through a
        /// tick chain, and its register chains route through the bipartite
        /// network at the bipartite optimum — so it is one of the bipartite
        /// network's optima. Where the optimum is not unique, the two
        /// forms' arc-index tie-breaks may settle on different optima,
        /// whose replayed energies can differ by the arc model's known gap
        /// (DESIGN.md §4, point 5d); on static-model instances without an
        /// access period they replay to the same static energy.
        #[test]
        fn timeline_matches_bipartite(seed in proptest::prelude::any::<u64>()) {
            let Some(p) = random_instance(seed) else { return Ok(()); };
            let bipartite = allocate_as(&p, NetworkForm::Bipartite);
            let timeline = allocate_as(&p, NetworkForm::TimeLine);
            let ((b, b_built, _), (t, built, solution)) = match (bipartite, timeline) {
                (Ok(b), Ok(t)) => (b, t),
                // Both infeasible. The shortfall is the max flow of a
                // different network, so only the verdict must agree.
                (Err(b), Err(t)) => {
                    let too_few = |e: &CoreError| matches!(e, CoreError::TooFewRegisters { .. });
                    proptest::prop_assert!(too_few(&b) && too_few(&t), "{} vs {}", b, t);
                    return Ok(());
                }
                (b, t) => panic!("forms disagree on feasibility: {:?} vs {:?}", b.err(), t.err()),
            };
            proptest::prop_assert_eq!(built.form, NetworkForm::TimeLine);
            proptest::prop_assert_eq!(t.flow_cost(), b.flow_cost());
            crate::validate(&p, &t).unwrap();
            assert_same_variable_joins_use_chain_arcs(&t, &built, &solution);
            let routed = bipartite_flow_of(&t, &b_built, p.registers);
            let routed_cost = raw_cost(&routed, b_built.cost_scale, b_built.cost_unit, &b_built.tie_weights);
            proptest::prop_assert_eq!(routed_cost, b.flow_cost().raw());
            if p.register_energy == lemra_energy::RegisterEnergyKind::Static && p.split.access_period == 1 {
                let (eb, et) = (
                    crate::AllocationReport::new(&p, &b).static_energy,
                    crate::AllocationReport::new(&p, &t).static_energy,
                );
                proptest::prop_assert!((eb - et).abs() <= 1e-9 * eb.abs().max(1.0), "{} vs {}", eb, et);
            }
        }
    }

    /// The multi-pass encoding [`apply_tie_break`] replaced, kept as the
    /// reference it must match bit for bit: a gcd fold, saturating folds of
    /// `Σ cap·|c/unit|`, `Σ cap` and `Σ cap·|w|`, and a division per arc.
    fn apply_tie_break_reference(
        net: &mut FlowNetwork,
        preferred: &[bool],
        cached: Option<(u32, Vec<i64>)>,
    ) -> (i64, i64, Vec<i64>, u32) {
        let unit = net.arcs().fold(0i64, |g, (_, arc)| gcd(g, arc.cost)).max(1);
        let cost_magnitude = net.arcs().fold(0i64, |m, (_, arc)| {
            m.saturating_add(arc.capacity.saturating_mul((arc.cost / unit).abs()))
        });
        let headroom = i64::MAX / 8;
        let cap_total = net
            .arcs()
            .fold(0i64, |t, (_, arc)| t.saturating_add(arc.capacity));
        let Some(bits) = (1..=24u32).rev().find(|&bits| {
            let bound = cap_total.saturating_mul(1i64 << bits);
            cost_magnitude
                .checked_mul(bound.saturating_add(1))
                .and_then(|v| v.checked_add(bound))
                .is_some_and(|total| total < headroom)
        }) else {
            return (1, 1, Vec::new(), 0);
        };
        let weights: Vec<i64> = match cached {
            Some((cached_bits, weights))
                if cached_bits == bits && weights.len() == net.arc_count() =>
            {
                weights
            }
            _ => (0..net.arc_count())
                .map(|a| tie_weight(a, bits, preferred[a]))
                .collect(),
        };
        let weight_total = net.arcs().fold(0i64, |t, (id, arc)| {
            t.saturating_add(arc.capacity.saturating_mul(weights[id.index()].abs()))
        });
        let scale = weight_total.saturating_add(1);
        net.map_costs(|id, arc| (arc.cost / unit) * scale + weights[id.index()]);
        (scale, unit, weights, bits)
    }

    /// Arcs as `(capacity, cost, preferred)` over two nodes: the encoding
    /// reads nothing else.
    fn network_of(arcs: &[(i64, i64, bool)]) -> FlowNetwork {
        let mut net = FlowNetwork::new();
        let (a, b) = (net.add_node(), net.add_node());
        for &(capacity, cost, _) in arcs {
            net.add_arc(a, b, capacity, cost).unwrap();
        }
        net
    }

    /// Applies both encodings to `arcs` and asserts they agree on
    /// `(scale, unit, bits, weights)` and on every encoded cost. Returns
    /// the weights for a cached follow-up.
    fn assert_encodings_agree(
        arcs: &[(i64, i64, bool)],
        cached: Option<(u32, Vec<i64>)>,
    ) -> (u32, Vec<i64>) {
        let preferred: Vec<bool> = arcs.iter().map(|a| a.2).collect();
        let (mut fast, mut reference) = (network_of(arcs), network_of(arcs));
        let got = apply_tie_break(&mut fast, &preferred, cached.clone());
        let want = apply_tie_break_reference(&mut reference, &preferred, cached);
        assert_eq!(got, want);
        let costs = |net: &FlowNetwork| net.arcs().map(|(_, a)| a.cost).collect::<Vec<_>>();
        assert_eq!(costs(&fast), costs(&reference));
        (got.3, got.2)
    }

    /// Random arc lists for the encoding: costs are multiples of a unit
    /// that is 1, a power of two, odd, or both mixed, with zero, negative
    /// and positive multipliers up to a per-case magnitude of up to 2^45,
    /// so the chosen resolution ranges from 24 bits down to none at all.
    fn random_arcs() -> impl proptest::prelude::Strategy<Value = Vec<(i64, i64, bool)>> {
        use proptest::prelude::Strategy;
        let unit = (0u32..4, 1u32..20, 0i64..1 << 16).prop_map(|(kind, shift, odd)| {
            let odd = 2 * odd + 1;
            match kind {
                0 => 1,
                1 => 1i64 << shift,
                2 => odd,
                _ => odd << shift.min(12),
            }
        });
        (unit, 0u32..46, 0u32..4, 1usize..60).prop_flat_map(|(unit, width, caps, n)| {
            // Keep every cost, scaled or not, inside i64.
            let width = width.min(61 - unit.ilog2());
            let multiplier = (0u32..4, -(1i64 << width)..=(1i64 << width)).prop_map(|(kind, m)| {
                if kind == 0 {
                    0
                } else {
                    m
                }
            });
            let capacity = (0u32..8, 0i64..4, 0i64..1 << 20).prop_map(move |(kind, small, big)| {
                if kind == 0 && caps > 1 {
                    big
                } else {
                    small
                }
            });
            proptest::collection::vec((capacity, multiplier, proptest::bool::ANY), n..n + 1)
                .prop_map(move |arcs| {
                    arcs.into_iter()
                        .map(|(cap, m, preferred)| (cap, m * unit, preferred))
                        .collect()
                })
        })
    }

    proptest::proptest! {
        /// The one-pass encoding equals the multi-pass reference bit for
        /// bit — scale, unit, resolution, every weight and every encoded
        /// cost — fresh and through the cached-weights path: a refresh
        /// whose costs keep the resolution (negated costs keep every
        /// magnitude) reuses the weights, and one whose costs move it
        /// re-hashes them.
        #[test]
        fn tie_break_matches_the_multi_pass_reference(
            arcs in random_arcs(),
            others in random_arcs(),
        ) {
            let cached = assert_encodings_agree(&arcs, None);
            let negated: Vec<_> = arcs.iter().map(|&(cap, c, p)| (cap, -c, p)).collect();
            let (bits, _) = assert_encodings_agree(&negated, Some(cached.clone()));
            proptest::prop_assert_eq!(bits, cached.0);
            let moved: Vec<_> = arcs
                .iter()
                .zip(others.iter().cycle())
                .map(|(&(cap, _, p), &(_, c, _))| (cap, c, p))
                .collect();
            assert_encodings_agree(&moved, Some(cached));
        }

        /// The bipartite census equals the hand-off arcs the emission loop
        /// adds and an all-pairs count of the targets it admits, under both
        /// graph styles, with access periods splitting lifetimes and
        /// register-carried first segments excluded as targets.
        #[test]
        fn bipartite_census_matches_emission(seed in proptest::prelude::any::<u64>()) {
            let Some(p) = random_instance(seed) else { return Ok(()); };
            for style in [GraphStyle::Regions, GraphStyle::AllPairs] {
                let p = p.clone().with_style(style);
                let segs = Segmentation::new(&p.lifetimes, &p.split);
                let regions = profile_regions(&p, &segs);
                let mut arena = BuildArena::default();
                let built = build_with_regions_in(
                    &p, &segs, &regions, Some(NetworkForm::Bipartite), &mut arena,
                ).unwrap();
                let census = bipartite_census(&mut arena, &segs, &regions, built.window_pairs);
                let carried = |to: &crate::segment::Segment| {
                    to.is_first && p.carried_in_register.contains(&to.var)
                };
                let admitted = segs
                    .iter()
                    .flat_map(|(_, from)| segs.iter().map(move |(_, to)| (from, to)))
                    .filter(|(from, to)| {
                        to.start() >= from.end()
                            && to.start() <= window_end(&regions, from.end())
                            && to.var != from.var
                            && !carried(to)
                    })
                    .count();
                proptest::prop_assert_eq!(census, built.handoff_of.len());
                proptest::prop_assert_eq!(census, admitted);
            }
        }
    }

    #[test]
    fn extra_split_changes_shape() {
        let table = LifetimeTable::from_intervals(8, vec![(1, vec![8], false)]).unwrap();
        let problem =
            crate::AllocationProblem::new(table, 1).with_extra_split(lemra_ir::VarId(0), Step(4));
        let segs = Segmentation::new(&problem.lifetimes, &problem.split);
        assert_eq!(segs.len(), 2);
    }
}
