//! Arc costs: equations (3)–(10) of the paper, generalised.
//!
//! All costs are *deltas* against the "everything lives in memory" baseline
//! (the constant first term of the paper's objective, which "we can remove
//! … in our minimization problem"):
//!
//! * baseline per variable: one memory write at its definition plus one
//!   memory read per genuine read (`E^m_w + rlast_v · E^m_r`).
//!
//! Each arc then carries the energy consequences of the placement decision
//! it encodes:
//!
//! * **segment arc** `w_i(v) → r_i(v)`: cost 0 — eq. (3);
//! * **chain arc** `r_i(v) → w_{i+1}(v)` (value stays in its register):
//!   refunds the boundary memory read if the boundary is a genuine read —
//!   eq. (9);
//! * **hand-off arc** `r_i(v1) → w_j(v2)` (v2 takes over v1's register):
//!   `exit(v1, i) + enter(v2, j) + transition(v1, v2)` — this reproduces
//!   eqs. (4), (6), (8), (10) exactly and corrects eq. (7), which drops the
//!   `−E^m_r(v1)` refund its siblings carry (documented in DESIGN.md);
//! * **source/sink arcs** carry the enter/exit halves so that totals match
//!   eq. (1)/(2) exactly — the paper leaves these implicit.
//!
//! The static model (eq. 1) adds `E^r_w` on every register entry and `E^r_r`
//! on every read served from a register; the activity model (eq. 2) instead
//! charges `H(v1, v2) · C^r_rw · Vr²` per register overwrite, with register
//! reads free.

use crate::problem::{AllocationProblem, CarryIn};
use crate::segment::{Boundary, Segment};
use lemra_energy::{EnergyModel, MicroEnergy, RegisterEnergyKind};
use lemra_ir::{ActivitySource, VarId};

/// Computes arc costs for one allocation problem.
#[derive(Debug)]
pub(crate) struct CostCalculator<'a> {
    energy: &'a EnergyModel,
    kind: RegisterEnergyKind,
    activity: &'a ActivitySource,
    carried_memory: &'a [VarId],
    carried_register: &'a [VarId],
}

impl<'a> CostCalculator<'a> {
    pub fn new(
        energy: &'a EnergyModel,
        kind: RegisterEnergyKind,
        activity: &'a ActivitySource,
        carried_memory: &'a [VarId],
        carried_register: &'a [VarId],
    ) -> Self {
        Self {
            energy,
            kind,
            activity,
            carried_memory,
            carried_register,
        }
    }

    /// The calculator for `problem`'s energy model, register accounting,
    /// activity source and carried-in sets.
    pub fn for_problem(problem: &'a AllocationProblem) -> Self {
        Self::new(
            &problem.energy,
            problem.register_energy,
            &problem.activity,
            &problem.carried_in_memory,
            &problem.carried_in_register,
        )
    }

    fn carry_of(&self, var: VarId) -> CarryIn {
        if self.carried_memory.contains(&var) {
            CarryIn::Memory
        } else if self.carried_register.contains(&var) {
            CarryIn::Register
        } else {
            CarryIn::Defined
        }
    }

    /// Delta for serving a boundary read from the register file instead of
    /// memory: `−E^m_r` (+`E^r_r` under the static model).
    fn read_from_register(&self) -> MicroEnergy {
        let refund = -self.energy.e_mem_read();
        match self.kind {
            RegisterEnergyKind::Static => refund + self.energy.e_reg_read(),
            RegisterEnergyKind::Activity => refund,
        }
    }

    /// Static-model register write charge (the activity model charges the
    /// Hamming term on the transition instead).
    fn register_write(&self) -> MicroEnergy {
        match self.kind {
            RegisterEnergyKind::Static => self.energy.e_reg_write(),
            RegisterEnergyKind::Activity => MicroEnergy::ZERO,
        }
    }

    /// Cost of the chain arc out of `seg` into the variable's next segment
    /// (same register, value untouched) — eq. (9).
    pub fn chain(&self, seg: &Segment) -> MicroEnergy {
        if seg.end_kind == Boundary::Read {
            self.read_from_register()
        } else {
            MicroEnergy::ZERO
        }
    }

    /// Exit half of a hand-off / sink arc: `seg`'s register is given up at
    /// its end boundary.
    pub fn exit(&self, seg: &Segment) -> MicroEnergy {
        let mut cost = MicroEnergy::ZERO;
        if seg.end_kind == Boundary::Read {
            // The boundary read is served from the register before it is
            // overwritten (reads happen on the read tick, writes after).
            cost += self.read_from_register();
        }
        if !seg.is_last {
            // The variable still has uses ahead but loses its register: it
            // must be written back to memory — the `+E^m_w(v1)` of eq. (6).
            cost += self.energy.e_mem_write();
        }
        cost
    }

    /// Enter half of a hand-off / source arc: `seg` moves into a register
    /// at its start boundary.
    pub fn enter(&self, seg: &Segment) -> MicroEnergy {
        let mut cost = MicroEnergy::ZERO;
        let mut needs_register_write = true;
        if seg.is_first {
            match self.carry_of(seg.var) {
                // Defined straight into the register: the baseline memory
                // write never happens — the `−E^m_w(v2)` of eqs. (4), (6),
                // (10).
                CarryIn::Defined => cost -= self.energy.e_mem_write(),
                // Already in memory at block entry: registering it is a
                // fetch, not a saved write.
                CarryIn::Memory => cost += self.energy.e_mem_read(),
                // Already sitting in a register: staying there avoids the
                // baseline boundary spill and needs no register write.
                CarryIn::Register => {
                    cost -= self.energy.e_mem_write();
                    needs_register_write = false;
                }
            }
        } else if seg.start_kind == Boundary::Split {
            // Mid-lifetime entry at a cut that is not a genuine read: the
            // value must be fetched from memory.
            cost += self.energy.e_mem_read();
        }
        // (A mid-lifetime entry at a genuine read reuses that read's value.)
        if needs_register_write {
            cost + self.register_write()
        } else {
            cost
        }
    }

    /// Hamming transition term for `to_var` overwriting `from_var`'s
    /// register (activity model only).
    pub fn transition(&self, from: &Segment, to: &Segment) -> MicroEnergy {
        match self.kind {
            RegisterEnergyKind::Static => MicroEnergy::ZERO,
            RegisterEnergyKind::Activity => self
                .energy
                .e_reg_activity(self.activity.hamming(from.var, to.var)),
        }
    }

    /// The transition term when it is the same for every pair of variables
    /// — always under the static model, and under the activity model with a
    /// uniform activity source — so that a hand-off's cost splits into one
    /// term per endpoint; `None` for pairwise activity (bit patterns, pair
    /// tables).
    pub fn split_transition(&self) -> Option<MicroEnergy> {
        match (self.kind, self.activity) {
            (RegisterEnergyKind::Static, _) => Some(MicroEnergy::ZERO),
            (RegisterEnergyKind::Activity, ActivitySource::Uniform { hamming }) => {
                Some(self.energy.e_reg_activity(*hamming))
            }
            (RegisterEnergyKind::Activity, _) => None,
        }
    }

    /// Full hand-off arc cost `r_i(v1) → w_j(v2)` — eqs. (4)/(6)/(7)/(8)/(10).
    pub fn handoff(&self, from: &Segment, to: &Segment) -> MicroEnergy {
        self.exit(from) + self.enter(to) + self.transition(from, to)
    }

    /// Source arc cost `s → w_j(v)`: enter plus the initial register write
    /// switching (the paper "assume[s] that 0.5 of the bits change at time
    /// 0"). Register-carried variables switch nothing — the value is
    /// already in place.
    pub fn source(&self, to: &Segment) -> MicroEnergy {
        let carried_register = to.is_first && self.carry_of(to.var) == CarryIn::Register;
        let initial = match self.kind {
            RegisterEnergyKind::Activity if !carried_register => {
                self.energy.e_reg_activity(self.activity.initial(to.var))
            }
            _ => MicroEnergy::ZERO,
        };
        self.enter(to) + initial
    }

    /// Sink arc cost `r_i(v) → t`: the exit half only.
    pub fn sink(&self, from: &Segment) -> MicroEnergy {
        self.exit(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemra_ir::{Step, VarId};

    fn seg(var: u32, first: bool, last: bool, start: Boundary, end: Boundary) -> Segment {
        Segment {
            var: VarId(var),
            index: usize::from(!first),
            start_step: Step(1),
            end_step: Step(3),
            start_kind: start,
            end_kind: end,
            forced_register: false,
            is_first: first,
            is_last: last,
        }
    }

    fn whole(var: u32) -> Segment {
        seg(var, true, true, Boundary::Def, Boundary::Read)
    }

    #[test]
    fn eq10_last_read_to_first_write_static() {
        // e = E^r_w + E^r_r − E^m_w − E^m_r  (the static analogue of (10)).
        let m = EnergyModel::default_16bit();
        let a = ActivitySource::Uniform { hamming: 8.0 };
        let c = CostCalculator::new(&m, RegisterEnergyKind::Static, &a, &[], &[]);
        let cost = c.handoff(&whole(0), &whole(1));
        let expected = m.e_reg_write() + m.e_reg_read() - m.e_mem_write() - m.e_mem_read();
        assert_eq!(cost, expected);
    }

    #[test]
    fn eq10_activity() {
        // e = H(v1,v2)·C − E^m_w − E^m_r  (eq. 10 / eq. 5).
        let m = EnergyModel::default_16bit();
        let a = ActivitySource::Uniform { hamming: 8.0 };
        let c = CostCalculator::new(&m, RegisterEnergyKind::Activity, &a, &[], &[]);
        let cost = c.handoff(&whole(0), &whole(1));
        let expected = m.e_reg_activity(8.0) - m.e_mem_write() - m.e_mem_read();
        assert_eq!(cost, expected);
    }

    #[test]
    fn eq6_midlife_exit_adds_writeback() {
        // ri(v1) with i < last → w1(v2):
        // e = −E^m_r(v1) − E^m_w(v2) + E^m_w(v1) + H·C   (eq. 6)
        let m = EnergyModel::default_16bit();
        let a = ActivitySource::Uniform { hamming: 4.0 };
        let c = CostCalculator::new(&m, RegisterEnergyKind::Activity, &a, &[], &[]);
        let from = seg(0, true, false, Boundary::Def, Boundary::Read);
        let to = whole(1);
        let cost = c.handoff(&from, &to);
        let expected = -m.e_mem_read() - m.e_mem_write() + m.e_mem_write() + m.e_reg_activity(4.0);
        assert_eq!(cost, expected);
    }

    #[test]
    fn eq8_last_read_to_midlife_write() {
        // rlast(v1) → wi(v2), i > 1, boundary a genuine read of v2:
        // e = −E^m_r(v1) + H·C   (eq. 8)
        let m = EnergyModel::default_16bit();
        let a = ActivitySource::Uniform { hamming: 4.0 };
        let c = CostCalculator::new(&m, RegisterEnergyKind::Activity, &a, &[], &[]);
        let from = whole(0);
        let to = seg(1, false, true, Boundary::Read, Boundary::Read);
        let cost = c.handoff(&from, &to);
        let expected = -m.e_mem_read() + m.e_reg_activity(4.0);
        assert_eq!(cost, expected);
    }

    #[test]
    fn eq9_chain_refunds_read_only_at_genuine_reads() {
        let m = EnergyModel::default_16bit();
        let a = ActivitySource::Uniform { hamming: 4.0 };
        let c = CostCalculator::new(&m, RegisterEnergyKind::Activity, &a, &[], &[]);
        let read_end = seg(0, true, false, Boundary::Def, Boundary::Read);
        assert_eq!(c.chain(&read_end), -m.e_mem_read());
        let split_end = seg(0, true, false, Boundary::Def, Boundary::Split);
        assert_eq!(c.chain(&split_end), MicroEnergy::ZERO);
    }

    #[test]
    fn midlife_split_entry_pays_fetch() {
        let m = EnergyModel::default_16bit();
        let a = ActivitySource::Uniform { hamming: 4.0 };
        let c = CostCalculator::new(&m, RegisterEnergyKind::Static, &a, &[], &[]);
        let to = seg(1, false, true, Boundary::Split, Boundary::Read);
        assert_eq!(c.enter(&to), m.e_mem_read() + m.e_reg_write());
    }

    #[test]
    fn source_and_sink_halves_sum_to_whole_variable_delta() {
        // A single-segment variable placed in a register via s → w → r → t
        // saves its full memory roundtrip and pays register accesses.
        let m = EnergyModel::default_16bit();
        let a = ActivitySource::Uniform { hamming: 4.0 };
        let c = CostCalculator::new(&m, RegisterEnergyKind::Static, &a, &[], &[]);
        let v = whole(0);
        let total = c.source(&v) + c.sink(&v);
        let expected = m.e_reg_write() + m.e_reg_read() - m.e_mem_write() - m.e_mem_read();
        assert_eq!(total, expected);
        // Placing a variable in a register is beneficial under the default
        // model — the premise of the whole approach.
        assert!(total < MicroEnergy::ZERO);
    }
}
