//! Exact accounting of a solved allocation.
//!
//! Everything the paper's evaluation tables report is derived here from the
//! [event traces](crate::events): memory/register access counts, storage
//! locations, static energy (eq. 1), activity-based energy (eq. 2), the
//! switching totals of Figures 3/4, and per-step port pressure (§7).

use crate::allocator::Allocation;
use crate::events::{trace_var_into, VarTrace};
use crate::problem::{AllocationProblem, CarryIn};
use lemra_energy::{MicroEnergy, RegisterEnergyKind};
use lemra_ir::{Tick, VarId};

/// # Examples
///
/// ```
/// use lemra_core::{allocate, AllocationProblem, AllocationReport};
/// use lemra_ir::LifetimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lifetimes = LifetimeTable::from_intervals(4, vec![(1, vec![4], false)])?;
/// let problem = AllocationProblem::new(lifetimes, 0); // everything in memory
/// let report = AllocationReport::new(&problem, &allocate(&problem)?);
/// assert_eq!(report.mem_accesses(), 2); // one write, one read
/// assert_eq!(report.storage_locations, 1);
/// # Ok(())
/// # }
/// ```
/// Measured results of one allocation.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AllocationReport {
    /// Memory reads (genuine reads served from memory plus reloads).
    pub mem_reads: u32,
    /// Memory writes.
    pub mem_writes: u32,
    /// Register-file reads.
    pub reg_reads: u32,
    /// Register-file writes.
    pub reg_writes: u32,
    /// Registers the solution uses.
    pub registers_used: u32,
    /// Distinct memory storage locations.
    pub storage_locations: u32,
    /// Total energy under the static model (eq. 1), in energy units.
    pub static_energy: f64,
    /// Total energy under the activity model (eq. 2), in energy units.
    pub activity_energy: f64,
    /// Total Hamming switching inside the register file (incl. the 0.5·word
    /// initial writes the paper assumes).
    pub register_switching: f64,
    /// Total Hamming switching across memory locations (consecutive
    /// residents of the same address) — the quantity Figure 3 compares.
    pub memory_switching: f64,
    /// Worst-case simultaneous memory reads in one control step (the
    /// number of memory read ports the solution needs, §7).
    pub max_reads_per_step: u32,
    /// Worst-case simultaneous memory writes in one control step.
    pub max_writes_per_step: u32,
    /// Worst-case simultaneous register-file reads in one control step
    /// (the register read ports the solution needs — the paper supports
    /// "single port or multiport register files", §2).
    pub max_reg_reads_per_step: u32,
    /// Worst-case simultaneous register-file writes in one control step.
    pub max_reg_writes_per_step: u32,
    /// Static-model energy dissipated per control step, indexed by step
    /// (slot 0 unused; the last slot is the post-block live-out step) — the
    /// storage subsystem's power profile.
    pub energy_per_step: Vec<f64>,
}

impl AllocationReport {
    /// Computes the report for `allocation` solved from `problem`.
    pub fn new(problem: &AllocationProblem, allocation: &Allocation) -> Self {
        let seg = allocation.segmentation();
        let placements = allocation.placements();
        let energy = &problem.energy;

        let mut mem_reads = 0;
        let mut mem_writes = 0;
        let mut reg_reads = 0;
        let mut reg_writes = 0;
        let steps = problem.lifetimes.block_len() as usize + 2;
        // Accesses per control step, indexed by step, one column per kind:
        // memory read, memory write, register read, register write.
        // Accesses land on steps 1 to `block_len + 1`; the table grows
        // rather than clamp a step past that.
        let mut per_step: Vec<[u32; 4]> = vec![[0; 4]; steps];
        let mut energy_per_step = vec![0.0; steps];
        let mem = (energy.e_mem_read(), energy.e_mem_write());
        let reg = (energy.e_reg_read(), energy.e_reg_write());
        let mut trace = VarTrace::default();
        for v in 0..problem.lifetimes.len() {
            let var = VarId(v as u32);
            trace_var_into(seg, placements, var, problem.carry_of(var), &mut trace);
            mem_reads += trace.mem_reads;
            mem_writes += trace.mem_writes;
            reg_reads += trace.reg_reads;
            reg_writes += trace.reg_writes;
            let kinds = [(&trace.accesses, 0, mem), (&trace.reg_accesses, 2, reg)];
            for (accesses, column, (read, write)) in kinds {
                for a in accesses {
                    let step = a.step.0 as usize;
                    if step >= per_step.len() {
                        per_step.resize(step + 1, [0; 4]);
                    }
                    per_step[step][column + usize::from(a.is_write)] += 1;
                    let amount = if a.is_write { write } else { read };
                    energy_per_step[step.min(steps - 1)] += amount.as_units();
                }
            }
        }
        let max_per_step = |column: usize| per_step.iter().map(|c| c[column]).max().unwrap_or(0);

        // Register switching from the chains: an initial write per register
        // plus one Hamming term per overwrite.
        let mut register_switching = 0.0;
        for chain in allocation.chains() {
            let mut prev: Option<VarId> = None;
            for &sid in chain {
                let segment = seg.segment(sid);
                let var = segment.var;
                match prev {
                    None => {
                        // Register-carried values are already in place: a
                        // chain starting with one switches nothing.
                        let carried =
                            segment.is_first && problem.carry_of(var) == CarryIn::Register;
                        if !carried {
                            register_switching += problem.activity.initial(var);
                        }
                    }
                    Some(p) if p != var => register_switching += problem.activity.hamming(p, var),
                    Some(_) => {}
                }
                prev = Some(var);
            }
        }

        // Memory switching: consecutive residents of each address, in
        // ascending address order.
        let mut residents: Vec<(u32, Tick, VarId)> = (0..problem.lifetimes.len() as u32)
            .map(VarId)
            .filter_map(|v| {
                let start = allocation.memory_residency(v)?.0;
                Some((allocation.memory_address(v)?, start, v))
            })
            .collect();
        residents.sort_unstable();
        let mut memory_switching = 0.0;
        let mut prev: Option<(u32, VarId)> = None;
        for &(address, _, v) in &residents {
            memory_switching += match prev {
                Some((at, p)) if at == address => problem.activity.hamming(p, v),
                _ => problem.activity.initial(v),
            };
            prev = Some((address, v));
        }

        let mem_energy = energy.e_mem_read().scale(i64::from(mem_reads))
            + energy.e_mem_write().scale(i64::from(mem_writes));
        let static_energy = (mem_energy
            + energy.e_reg_read().scale(i64::from(reg_reads))
            + energy.e_reg_write().scale(i64::from(reg_writes)))
        .as_units();
        let activity_energy = (mem_energy + energy.e_reg_activity(register_switching)).as_units();

        Self {
            mem_reads,
            mem_writes,
            reg_reads,
            reg_writes,
            registers_used: allocation.registers_used(),
            storage_locations: allocation.storage_locations(),
            static_energy,
            activity_energy,
            register_switching,
            memory_switching,
            max_reads_per_step: max_per_step(0),
            max_writes_per_step: max_per_step(1),
            max_reg_reads_per_step: max_per_step(2),
            max_reg_writes_per_step: max_per_step(3),
            energy_per_step,
        }
    }

    /// The largest per-step energy — the storage subsystem's peak power,
    /// in energy units per control step.
    pub fn peak_step_energy(&self) -> f64 {
        self.energy_per_step.iter().copied().fold(0.0, f64::max)
    }

    /// Total memory accesses (the paper's "# Accesses / Mem" column).
    pub fn mem_accesses(&self) -> u32 {
        self.mem_reads + self.mem_writes
    }

    /// Total register-file accesses ("# Accesses / Reg").
    pub fn reg_accesses(&self) -> u32 {
        self.reg_reads + self.reg_writes
    }

    /// The energy under the model `kind` (convenience selector).
    pub fn energy(&self, kind: RegisterEnergyKind) -> f64 {
        match kind {
            RegisterEnergyKind::Static => self.static_energy,
            RegisterEnergyKind::Activity => self.activity_energy,
        }
    }
}

/// The constant first term of the paper's objective: the energy if every
/// variable lived purely in memory (`Σ_v E^m_w + rlast_v · E^m_r`).
///
/// For placements the local arc model captures exactly,
/// `report.energy(kind) == baseline + allocation.flow_cost()`.
pub fn baseline_energy(problem: &AllocationProblem) -> MicroEnergy {
    problem
        .lifetimes
        .iter()
        .map(|lt| {
            // Memory-carried variables are already stored: the baseline
            // pays no definition write for them.
            let write = match problem.carry_of(lt.var) {
                CarryIn::Memory => MicroEnergy::ZERO,
                _ => problem.energy.e_mem_write(),
            };
            write + problem.energy.e_mem_read().scale(lt.read_count() as i64)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate;
    use crate::events::trace_var_carried;
    use lemra_ir::{ActivitySource, LifetimeTable, Step};
    use std::collections::HashMap;

    /// The report as computed before its per-step counts moved into flat
    /// arrays: four `HashMap` step counters, one `trace_var_carried` replay
    /// per variable and a `HashMap` of address residents, summed in that
    /// map's iteration order. `report_matches_the_hash_map_reference` holds
    /// [`AllocationReport::new`] to it.
    fn hash_map_reference(
        problem: &AllocationProblem,
        allocation: &Allocation,
    ) -> AllocationReport {
        let seg = allocation.segmentation();
        let placements = allocation.placements();
        let energy = &problem.energy;

        let mut mem_reads = 0;
        let mut mem_writes = 0;
        let mut reg_reads = 0;
        let mut reg_writes = 0;
        let mut reads_at: HashMap<u32, u32> = HashMap::new();
        let mut writes_at: HashMap<u32, u32> = HashMap::new();
        let mut reg_reads_at: HashMap<u32, u32> = HashMap::new();
        let mut reg_writes_at: HashMap<u32, u32> = HashMap::new();
        let steps = problem.lifetimes.block_len() as usize + 2;
        let mut energy_per_step = vec![0.0; steps];
        let mut charge = |step: u32, amount: lemra_energy::MicroEnergy| {
            let slot = (step as usize).min(steps - 1);
            energy_per_step[slot] += amount.as_units();
        };
        for v in 0..problem.lifetimes.len() {
            let var = VarId(v as u32);
            let t = trace_var_carried(seg, placements, var, problem.carry_of(var));
            mem_reads += t.mem_reads;
            mem_writes += t.mem_writes;
            reg_reads += t.reg_reads;
            reg_writes += t.reg_writes;
            for a in &t.accesses {
                let slot = if a.is_write {
                    &mut writes_at
                } else {
                    &mut reads_at
                };
                *slot.entry(a.step.0).or_insert(0) += 1;
                charge(
                    a.step.0,
                    if a.is_write {
                        energy.e_mem_write()
                    } else {
                        energy.e_mem_read()
                    },
                );
            }
            for a in &t.reg_accesses {
                let slot = if a.is_write {
                    &mut reg_writes_at
                } else {
                    &mut reg_reads_at
                };
                *slot.entry(a.step.0).or_insert(0) += 1;
                charge(
                    a.step.0,
                    if a.is_write {
                        energy.e_reg_write()
                    } else {
                        energy.e_reg_read()
                    },
                );
            }
        }

        // Register switching from the chains: an initial write per register
        // plus one Hamming term per overwrite.
        let mut register_switching = 0.0;
        for chain in allocation.chains() {
            let mut prev: Option<VarId> = None;
            for &sid in chain {
                let segment = seg.segment(sid);
                let var = segment.var;
                match prev {
                    None => {
                        // Register-carried values are already in place: a
                        // chain starting with one switches nothing.
                        let carried =
                            segment.is_first && problem.carry_of(var) == CarryIn::Register;
                        if !carried {
                            register_switching += problem.activity.initial(var);
                        }
                    }
                    Some(p) if p != var => register_switching += problem.activity.hamming(p, var),
                    Some(_) => {}
                }
                prev = Some(var);
            }
        }

        // Memory switching: consecutive residents of each address.
        let mut by_address: HashMap<u32, Vec<VarId>> = HashMap::new();
        let mut vars_by_start: Vec<VarId> = (0..problem.lifetimes.len() as u32)
            .map(VarId)
            .filter(|&v| allocation.memory_address(v).is_some())
            .collect();
        vars_by_start.sort_by_key(|&v| allocation.memory_residency(v).expect("addressed").0);
        for v in vars_by_start {
            by_address
                .entry(allocation.memory_address(v).expect("addressed"))
                .or_default()
                .push(v);
        }
        let mut memory_switching = 0.0;
        for residents in by_address.values() {
            let mut prev: Option<VarId> = None;
            for &v in residents {
                match prev {
                    None => memory_switching += problem.activity.initial(v),
                    Some(p) => memory_switching += problem.activity.hamming(p, v),
                }
                prev = Some(v);
            }
        }

        let mem_energy = energy.e_mem_read().scale(i64::from(mem_reads))
            + energy.e_mem_write().scale(i64::from(mem_writes));
        let static_energy = (mem_energy
            + energy.e_reg_read().scale(i64::from(reg_reads))
            + energy.e_reg_write().scale(i64::from(reg_writes)))
        .as_units();
        let activity_energy = (mem_energy + energy.e_reg_activity(register_switching)).as_units();

        AllocationReport {
            mem_reads,
            mem_writes,
            reg_reads,
            reg_writes,
            registers_used: allocation.registers_used(),
            storage_locations: allocation.storage_locations(),
            static_energy,
            activity_energy,
            register_switching,
            memory_switching,
            max_reads_per_step: reads_at.values().copied().max().unwrap_or(0),
            max_writes_per_step: writes_at.values().copied().max().unwrap_or(0),
            max_reg_reads_per_step: reg_reads_at.values().copied().max().unwrap_or(0),
            max_reg_writes_per_step: reg_writes_at.values().copied().max().unwrap_or(0),
            energy_per_step,
        }
    }

    fn table() -> LifetimeTable {
        LifetimeTable::from_intervals(
            6,
            vec![
                (1, vec![3], false),
                (3, vec![6], false),
                (1, vec![6], false),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_memory_report_matches_baseline() {
        let p = AllocationProblem::new(table(), 0);
        let a = allocate(&p).unwrap();
        let r = AllocationReport::new(&p, &a);
        assert_eq!(r.mem_writes, 3);
        assert_eq!(r.mem_reads, 3);
        assert_eq!(r.reg_accesses(), 0);
        assert_eq!(r.static_energy, baseline_energy(&p).as_units());
        assert_eq!(r.registers_used, 0);
    }

    #[test]
    fn static_identity_baseline_plus_flow_cost() {
        for regs in [0, 1, 2, 5] {
            let p = AllocationProblem::new(table(), regs);
            let a = allocate(&p).unwrap();
            let r = AllocationReport::new(&p, &a);
            let expected = (baseline_energy(&p) + a.flow_cost()).as_units();
            assert!(
                (r.static_energy - expected).abs() < 1e-9,
                "R={regs}: report {} vs baseline+flow {expected}",
                r.static_energy
            );
        }
    }

    #[test]
    fn activity_identity_baseline_plus_flow_cost() {
        let p = AllocationProblem::new(table(), 2)
            .with_register_energy(RegisterEnergyKind::Activity)
            .with_activity(ActivitySource::Uniform { hamming: 3.0 });
        let a = allocate(&p).unwrap();
        let r = AllocationReport::new(&p, &a);
        let expected = (baseline_energy(&p) + a.flow_cost()).as_units();
        assert!(
            (r.activity_energy - expected).abs() < 1e-9,
            "report {} vs {expected}",
            r.activity_energy
        );
    }

    #[test]
    fn more_registers_never_increase_energy() {
        let mut prev = f64::INFINITY;
        for regs in 0..4 {
            let p = AllocationProblem::new(table(), regs);
            let a = allocate(&p).unwrap();
            let r = AllocationReport::new(&p, &a);
            assert!(r.static_energy <= prev + 1e-9);
            prev = r.static_energy;
        }
    }

    #[test]
    fn register_port_pressure_counted() {
        // Two variables read at the same step from registers.
        let t = LifetimeTable::from_intervals(4, vec![(1, vec![3], false), (2, vec![3], false)])
            .unwrap();
        let p = AllocationProblem::new(t, 2);
        let a = allocate(&p).unwrap();
        let r = AllocationReport::new(&p, &a);
        assert_eq!(r.max_reg_reads_per_step, 2);
        assert!(r.max_reg_writes_per_step >= 1);
    }

    #[test]
    fn power_profile_sums_to_total_energy() {
        for regs in [0u32, 1, 2, 4] {
            let p = AllocationProblem::new(table(), regs);
            let a = allocate(&p).unwrap();
            let r = AllocationReport::new(&p, &a);
            let sum: f64 = r.energy_per_step.iter().sum();
            assert!(
                (sum - r.static_energy).abs() < 1e-9,
                "R={regs}: profile sums to {sum}, total {}",
                r.static_energy
            );
            assert!(r.peak_step_energy() <= r.static_energy + 1e-9);
            assert!(r.peak_step_energy() > 0.0 || r.static_energy == 0.0);
        }
    }

    #[test]
    fn port_pressure_counted() {
        // Three variables all defined at step 1 and read at step 4, no
        // registers: 3 writes at step 1, 3 reads at step 4.
        let t = LifetimeTable::from_intervals(
            4,
            vec![
                (1, vec![4], false),
                (1, vec![4], false),
                (1, vec![4], false),
            ],
        )
        .unwrap();
        let p = AllocationProblem::new(t, 0);
        let a = allocate(&p).unwrap();
        let r = AllocationReport::new(&p, &a);
        assert_eq!(r.max_writes_per_step, 3);
        assert_eq!(r.max_reads_per_step, 3);
    }

    #[test]
    fn switching_totals_with_pair_table() {
        use lemra_ir::VarId;
        let p = AllocationProblem::new(table(), 1)
            .with_register_energy(RegisterEnergyKind::Activity)
            .with_activity(ActivitySource::from_pairs([(VarId(0), VarId(1), 0.2)]));
        let a = allocate(&p).unwrap();
        let r = AllocationReport::new(&p, &a);
        // One register chain a -> b: initial 0.5 + H(a,b) 0.2.
        assert!((r.register_switching - 0.7).abs() < 1e-9);
        // c alone in memory: initial 0.5.
        assert!((r.memory_switching - 0.5).abs() < 1e-9);
    }

    /// A random instance from `seed` for the report property: up to 11
    /// variables over 4–15 steps (live-out ones are read at step
    /// `block_len + 1`), 0–5 registers (0 leaves every register port
    /// maximum at 0), some variables carried in from memory or a register,
    /// an access period or manual splits, either register-energy kind, and
    /// bit-pattern or pair-table activity. Pair-table values are multiples
    /// of 1/8, so every switching sum is exact in any order and the
    /// reference's map-ordered sum compares bit for bit. `None` when the
    /// table comes out empty.
    fn random_instance(seed: u64) -> Option<AllocationProblem> {
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
        let n = table.len() as u32;
        let mut p = AllocationProblem::new(table, rng.gen_range(0u32..6));
        if rng.gen_bool(0.3) {
            p = p.with_access_period(rng.gen_range(2u32..5));
        }
        for var in (0..n).map(VarId) {
            if rng.gen_bool(0.3) {
                p = p.with_extra_split(var, Step(rng.gen_range(2..=block_len)));
            }
            p = match rng.gen_range(0u32..6) {
                0 => p.with_carried_in_memory(var),
                1 => p.with_carried_in_register(var),
                _ => p,
            };
        }
        if rng.gen::<bool>() {
            p = p.with_register_energy(RegisterEnergyKind::Activity);
        }
        let eighths = |rng: &mut SmallRng| f64::from(rng.gen_range(0u32..=128)) / 8.0;
        p.activity = if rng.gen::<bool>() {
            ActivitySource::BitPatterns {
                patterns: (0..n).map(|_| rng.gen()).collect(),
                width: 16,
            }
        } else {
            let mut table = HashMap::new();
            for _ in 0..rng.gen_range(0..=n * n) {
                let pair = (VarId(rng.gen_range(0..n)), VarId(rng.gen_range(0..n)));
                table.insert(pair, eighths(&mut rng));
            }
            ActivitySource::PairTable {
                table,
                default: eighths(&mut rng),
                initial: eighths(&mut rng),
            }
        };
        Some(p)
    }

    proptest::proptest! {
        /// The flat-array report equals the hash-map reference on every
        /// field, every `f64` bit for bit.
        #[test]
        fn report_matches_the_hash_map_reference(seed in proptest::prelude::any::<u64>()) {
            let Some(p) = random_instance(seed) else { return Ok(()); };
            let Ok(a) = allocate(&p) else { return Ok(()); };
            let report = AllocationReport::new(&p, &a);
            let reference = hash_map_reference(&p, &a);
            proptest::prop_assert_eq!(format!("{:?}", report), format!("{:?}", reference));
        }
    }
}
