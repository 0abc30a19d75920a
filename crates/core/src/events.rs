//! Exact storage-event simulation.
//!
//! Given a placement for every segment of a variable, this module replays
//! the variable's life and records every memory/register access. The
//! resulting counts are *exact* (values are write-once: once a variable has
//! been written back to memory it is never written again), unlike the arc
//! costs, which locally approximate rare double-spill shapes (DESIGN.md §4).
//! Reports are always computed from these traces.

use crate::allocator::Placement;
use crate::problem::CarryIn;
use crate::segment::{Boundary, Segmentation};
use lemra_ir::{Step, Tick, VarId};

/// One memory access, for port-pressure analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Control step of the access.
    pub step: Step,
    /// True for writes, false for reads.
    pub is_write: bool,
}

/// Replayed storage behaviour of one variable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarTrace {
    /// Memory reads (genuine reads served from memory plus fetches).
    pub mem_reads: u32,
    /// Memory writes (at most one — values are write-once).
    pub mem_writes: u32,
    /// Register reads (genuine reads served from the register file).
    pub reg_reads: u32,
    /// Register writes (one per register entry).
    pub reg_writes: u32,
    /// All memory accesses with their steps.
    pub accesses: Vec<MemAccess>,
    /// All register-file accesses with their steps (same record shape).
    pub reg_accesses: Vec<MemAccess>,
    /// First-memory-write to last-memory-access interval, if the variable
    /// ever touches memory.
    pub memory_residency: Option<(Tick, Tick)>,
}

impl VarTrace {
    fn reg_read(&mut self, step: Step) {
        self.reg_reads += 1;
        self.reg_accesses.push(MemAccess {
            step,
            is_write: false,
        });
    }

    fn reg_write(&mut self, step: Step) {
        self.reg_writes += 1;
        self.reg_accesses.push(MemAccess {
            step,
            is_write: true,
        });
    }

    fn mem_read(&mut self, tick: Tick) {
        self.mem_reads += 1;
        self.accesses.push(MemAccess {
            step: tick.step(),
            is_write: false,
        });
        self.touch(tick);
    }

    fn mem_write(&mut self, tick: Tick) {
        self.mem_writes += 1;
        self.accesses.push(MemAccess {
            step: tick.step(),
            is_write: true,
        });
        self.touch(tick);
    }

    /// Empties the trace for the next variable, keeping both access
    /// buffers' capacity.
    fn clear(&mut self) {
        self.mem_reads = 0;
        self.mem_writes = 0;
        self.reg_reads = 0;
        self.reg_writes = 0;
        self.accesses.clear();
        self.reg_accesses.clear();
        self.memory_residency = None;
    }

    pub(crate) fn touch(&mut self, tick: Tick) {
        self.memory_residency = Some(match self.memory_residency {
            None => (tick, tick),
            Some((s, e)) => (s.min(tick), e.max(tick)),
        });
    }
}

/// Replays variable `var` under `placements` (block-local variables; for
/// carried-in variables of a multi-block chain the reports use the
/// carry-aware internal variant).
///
/// # Panics
///
/// Panics if `var` has no segments in `segmentation`.
pub fn trace_var(segmentation: &Segmentation, placements: &[Placement], var: VarId) -> VarTrace {
    trace_var_carried(segmentation, placements, var, CarryIn::Defined)
}

/// Replays variable `var` under `placements`, honouring how the value
/// enters the block (multi-block allocation, §7 "beyond basic blocks").
///
/// # Panics
///
/// Panics if `var` has no segments in `segmentation`.
pub(crate) fn trace_var_carried(
    segmentation: &Segmentation,
    placements: &[Placement],
    var: VarId,
    carry: CarryIn,
) -> VarTrace {
    let mut t = VarTrace::default();
    trace_var_into(segmentation, placements, var, carry, &mut t);
    t
}

/// [`trace_var_carried`] into a caller-owned buffer, which is cleared
/// first: callers replaying every variable of a block reuse one buffer
/// instead of allocating two access vectors per variable.
///
/// # Panics
///
/// Panics if `var` has no segments in `segmentation`.
#[allow(clippy::needless_range_loop)] // index drives parallel lookups
pub(crate) fn trace_var_into(
    segmentation: &Segmentation,
    placements: &[Placement],
    var: VarId,
    carry: CarryIn,
    t: &mut VarTrace,
) {
    let segs = segmentation.segments_of(var);
    assert!(!segs.is_empty(), "variable {var} has no segments");
    let base = segmentation.id_of(var, 0).index();
    let place = |i: usize| placements[base + i];

    t.clear();
    let mut in_memory = false;

    // Block entry: where the value lands (or already lives).
    let entry_step = segs[0].start_step;
    match (carry, place(0)) {
        (CarryIn::Defined, Placement::Register(_)) => t.reg_write(entry_step),
        (CarryIn::Defined, Placement::Memory) => {
            t.mem_write(segs[0].start());
            in_memory = true;
        }
        (CarryIn::Memory, Placement::Register(_)) => {
            // Already in memory (residency spans from block entry); fetch
            // it into the register.
            t.touch(Tick(0));
            t.mem_read(segs[0].start());
            t.reg_write(entry_step);
            in_memory = true;
        }
        (CarryIn::Memory, Placement::Memory) => {
            // Already exactly where it should be.
            t.touch(Tick(0));
            t.touch(segs[0].start());
            in_memory = true;
        }
        (CarryIn::Register, Placement::Register(_)) => {
            // Stays put: no write, no switching.
        }
        (CarryIn::Register, Placement::Memory) => {
            // Boundary spill.
            t.mem_write(segs[0].start());
            in_memory = true;
        }
    }

    for i in 1..segs.len() {
        let prev = place(i - 1);
        let cur = place(i);
        let boundary = segs[i].start_kind;
        let step = segs[i].start_step;

        // The boundary read (if genuine) is served from wherever the value
        // lived during the previous segment.
        if boundary == Boundary::Read {
            match prev {
                Placement::Register(_) => t.reg_read(step),
                Placement::Memory => t.mem_read(step.read_tick()),
            }
        }

        match (prev, cur) {
            (Placement::Register(a), Placement::Register(b)) if a == b => {}
            (Placement::Register(_), Placement::Register(_)) => {
                // Register-to-register move goes through memory.
                if !in_memory {
                    t.mem_write(step.write_tick());
                    in_memory = true;
                }
                t.mem_read(step.write_tick());
                t.reg_write(step);
            }
            (Placement::Register(_), Placement::Memory) => {
                if !in_memory {
                    t.mem_write(step.write_tick());
                    in_memory = true;
                }
            }
            (Placement::Memory, Placement::Register(_)) => {
                if boundary != Boundary::Read {
                    // No genuine read at this cut: fetch explicitly.
                    t.mem_read(step.read_tick());
                }
                t.reg_write(step);
                // The value also stays in memory (write-once, no
                // invalidation) — residency simply continues.
            }
            (Placement::Memory, Placement::Memory) => {}
        }
    }

    // Final read at the end of the last segment.
    let last = segs.last().expect("non-empty");
    if last.end_kind == Boundary::Read {
        match place(segs.len() - 1) {
            Placement::Register(_) => t.reg_read(last.end_step),
            Placement::Memory => t.mem_read(last.end()),
        }
    }
    debug_assert_eq!(t.reg_accesses.len() as u32, t.reg_reads + t.reg_writes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{Segmentation, SplitOptions};
    use lemra_ir::LifetimeTable;

    fn seg3() -> Segmentation {
        // One variable, reads at 3, 5, 7: three segments.
        let t = LifetimeTable::from_intervals(7, vec![(1, vec![3, 5, 7], false)]).unwrap();
        Segmentation::new(&t, &SplitOptions::none())
    }

    #[test]
    fn all_memory_counts_reads_and_one_write() {
        let s = seg3();
        let placements = vec![Placement::Memory; 3];
        let t = trace_var(&s, &placements, VarId(0));
        assert_eq!(t.mem_writes, 1);
        assert_eq!(t.mem_reads, 3);
        assert_eq!(t.reg_reads + t.reg_writes, 0);
        let (start, end) = t.memory_residency.unwrap();
        assert_eq!(start, Step(1).write_tick());
        assert_eq!(end, Step(7).read_tick());
    }

    #[test]
    fn all_register_chained_counts_register_traffic_only() {
        let s = seg3();
        let placements = vec![Placement::Register(0); 3];
        let t = trace_var(&s, &placements, VarId(0));
        assert_eq!(t.mem_writes + t.mem_reads, 0);
        assert_eq!(t.reg_writes, 1);
        assert_eq!(t.reg_reads, 3);
        assert!(t.memory_residency.is_none());
    }

    #[test]
    fn spill_and_reload() {
        // Register for segment 1, memory for segment 2, register again for
        // segment 3: write-back once, reload once.
        let s = seg3();
        let placements = vec![
            Placement::Register(0),
            Placement::Memory,
            Placement::Register(1),
        ];
        let t = trace_var(&s, &placements, VarId(0));
        // Reads: step 3 from register, step 5 from memory, step 7 from reg.
        assert_eq!(t.reg_reads, 2);
        // Write-back at step 3; the read at 5 doubles as the reload (the
        // boundary into segment 3 is a genuine read).
        assert_eq!(t.mem_writes, 1);
        assert_eq!(t.mem_reads, 1);
        assert_eq!(t.reg_writes, 2);
    }

    #[test]
    fn split_boundary_fetch_costs_extra_read() {
        // Cut at an access time (step 4 with period 3: steps 1, 4, 7):
        // memory segment then register segment, boundary is a Split.
        let table = LifetimeTable::from_intervals(7, vec![(1, vec![7], false)]).unwrap();
        let s = Segmentation::new(&table, &SplitOptions::with_period(3));
        assert_eq!(s.len(), 2);
        let placements = vec![Placement::Memory, Placement::Register(0)];
        let t = trace_var(&s, &placements, VarId(0));
        // Write at def, explicit fetch at the cut, final read from register.
        assert_eq!(t.mem_writes, 1);
        assert_eq!(t.mem_reads, 1);
        assert_eq!(t.reg_writes, 1);
        assert_eq!(t.reg_reads, 1);
    }

    #[test]
    fn register_to_register_goes_through_memory() {
        let s = seg3();
        let placements = vec![
            Placement::Register(0),
            Placement::Register(1),
            Placement::Register(1),
        ];
        let t = trace_var(&s, &placements, VarId(0));
        assert_eq!(t.mem_writes, 1);
        assert_eq!(t.mem_reads, 1);
        assert_eq!(t.reg_writes, 2);
        assert_eq!(t.reg_reads, 3);
    }
}
