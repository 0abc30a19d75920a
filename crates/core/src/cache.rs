//! Cross-request allocation cache, keyed by the content fingerprints of
//! the built network (see `lemra_netflow::instance_key`).
//!
//! Two tables behind one process-wide lock:
//!
//! * **Exact** — exact [`Fingerprint`] → the optimal flow in arc creation
//!   order. The allocator's build is deterministic, so an equal key means
//!   the same network arc for arc and the flow replays unchanged. A hit is
//!   re-validated against the live network, so the returned solution is
//!   byte-identical to what a cold solve of that instance would produce
//!   (the tie-break transform makes the optimum unique) and a fingerprint
//!   collision can never smuggle in a wrong answer.
//! * **Warm** — structural-class [`Fingerprint`] → a checked-out/returned
//!   [`Reoptimizer`]. Adoption *removes* the slot (no aliased solver
//!   state); the adopter donates it back after solving, now certifying the
//!   newest instance of the class. The reoptimizer re-verifies its snapshot
//!   against the incoming network arc-by-arc and falls back to a cold
//!   rebuild on any mismatch, so adopting donated state is unconditionally
//!   safe — at worst it is useless, never wrong.
//!
//! Eviction is pelikan-style least-access-count with FIFO on ties (the
//! `merge_at_{head,mid,tail}` thresholds of pelikan's seg cache reduce to
//! exactly this when segments are single entries): each table is capped at
//! [`LemraConfig::cache_cap`] entries and the insert that overflows it
//! evicts the entry with the fewest recorded accesses, oldest first.
//!
//! Lock discipline: every critical section is a map lookup/insert — no
//! solve ever runs under the lock, so contention is bounded by hashing a
//! 128-bit key, and a panic inside a replay (fault injection) cannot
//! poison the cache mid-solve.

use lemra_netflow::{Fingerprint, LemraConfig, Reoptimizer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Live counters of the process-wide allocation cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Solves answered by replaying a cached solution byte-identically.
    pub exact_hits: u64,
    /// Solves answered by warm-repairing adopted reoptimizer state.
    pub warm_hits: u64,
    /// Cache-enabled solves that found nothing usable and solved cold.
    pub misses: u64,
    /// Exact entries inserted (first solve of each distinct instance).
    pub insertions: u64,
    /// Entries evicted under the capacity cap, both tables combined.
    pub evictions: u64,
    /// Exact entries currently resident.
    pub exact_entries: usize,
    /// Warm reoptimizer slots currently resident (checked-out slots are
    /// absent until donated back).
    pub warm_entries: usize,
}

struct ExactEntry {
    /// Optimal flow per arc, in creation order.
    flows: Vec<i64>,
    /// Units routed (the solve target).
    value: i64,
    access: u64,
    seq: u64,
}

struct WarmSlot {
    reopt: Reoptimizer,
    access: u64,
    seq: u64,
}

#[derive(Default)]
struct Inner {
    exact: HashMap<u128, ExactEntry>,
    warm: HashMap<u128, WarmSlot>,
    /// Monotone insertion counter, the FIFO eviction tiebreak.
    seq: u64,
}

static CACHE: Mutex<Option<Inner>> = Mutex::new(None);

// Counters live outside the table lock so `cache_stats` and the hot paths
// never serialize on reporting.
static EXACT_HITS: AtomicU64 = AtomicU64::new(0);
static WARM_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static INSERTIONS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

fn with<R>(f: impl FnOnce(&mut Inner) -> R) -> R {
    let mut guard = match CACHE.lock() {
        Ok(g) => g,
        // The lock only ever guards map operations; a poisoned state is
        // still structurally sound, so recover rather than cascade.
        Err(poisoned) => poisoned.into_inner(),
    };
    f(guard.get_or_insert_with(Inner::default))
}

fn cap() -> usize {
    LemraConfig::get().cache_cap
}

/// Evicts the least-accessed (oldest on ties) entry if `len` exceeds the
/// cap after the pending insert. Returns whether an eviction happened.
fn evict_to_cap<V>(map: &mut HashMap<u128, V>, access_of: impl Fn(&V) -> (u64, u64)) -> bool {
    if map.len() < cap() {
        return false;
    }
    let victim = map
        .iter()
        .min_by_key(|(_, v)| access_of(v))
        .map(|(&k, _)| k);
    if let Some(k) = victim {
        map.remove(&k);
        EVICTIONS.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    false
}

/// Looks up the exact table; returns the creation-order flow and the
/// routed value, bumping the entry's access count. The caller replays and
/// re-validates before counting this as a hit.
pub(crate) fn lookup_exact(fp: Fingerprint) -> Option<(Vec<i64>, i64)> {
    with(|inner| {
        let entry = inner.exact.get_mut(&fp.0)?;
        entry.access += 1;
        Some((entry.flows.clone(), entry.value))
    })
}

/// Inserts (or refreshes) an exact entry, evicting under the cap.
pub(crate) fn insert_exact(fp: Fingerprint, flows: Vec<i64>, value: i64) {
    with(|inner| {
        if let Some(existing) = inner.exact.get_mut(&fp.0) {
            // Re-derived result for a known instance (e.g. both cache modes
            // racing): keep the slot's age, refresh the payload.
            existing.flows = flows;
            existing.value = value;
            return;
        }
        evict_to_cap(&mut inner.exact, |e| (e.access, e.seq));
        inner.seq += 1;
        let seq = inner.seq;
        inner.exact.insert(
            fp.0,
            ExactEntry {
                flows,
                value,
                access: 0,
                seq,
            },
        );
        INSERTIONS.fetch_add(1, Ordering::Relaxed);
    });
}

/// Checks out the warm reoptimizer retained for a structural class, if one
/// is resident. The slot is removed — solver state is never aliased — and
/// the adopter is expected to [`donate_warm`] it back after solving.
pub(crate) fn adopt_warm(class: Fingerprint) -> Option<Reoptimizer> {
    with(|inner| {
        let slot = inner.warm.remove(&class.0)?;
        Some(slot.reopt)
    })
}

/// Returns (or first donates) a reoptimizer to a structural class's slot.
/// Stateless reoptimizers are not worth a slot and are dropped.
pub(crate) fn donate_warm(class: Fingerprint, reopt: Reoptimizer) {
    if !reopt.is_warm() {
        return;
    }
    with(|inner| {
        if let Some(slot) = inner.warm.get_mut(&class.0) {
            // A concurrent donor beat us back; prefer the resident slot's
            // age, refresh its state (ours is at least as recent).
            slot.reopt = reopt;
            slot.access += 1;
            return;
        }
        evict_to_cap(&mut inner.warm, |s| (s.access, s.seq));
        inner.seq += 1;
        let seq = inner.seq;
        inner.warm.insert(
            class.0,
            WarmSlot {
                reopt,
                access: 0,
                seq,
            },
        );
    });
}

pub(crate) fn note_exact_hit() {
    EXACT_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_warm_hit() {
    WARM_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_miss() {
    MISSES.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide cache counters and occupancy — what the drivers print
/// behind `--timings`.
pub fn cache_stats() -> CacheStats {
    let (exact_entries, warm_entries) = with(|inner| (inner.exact.len(), inner.warm.len()));
    CacheStats {
        exact_hits: EXACT_HITS.load(Ordering::Relaxed),
        warm_hits: WARM_HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        insertions: INSERTIONS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        exact_entries,
        warm_entries,
    }
}

/// Drops every cached entry and zeroes the counters (bench harness and
/// test isolation; never called on a production path).
pub fn clear_cache() {
    with(|inner| {
        inner.exact.clear();
        inner.warm.clear();
        inner.seq = 0;
    });
    EXACT_HITS.store(0, Ordering::Relaxed);
    WARM_HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    INSERTIONS.store(0, Ordering::Relaxed);
    EVICTIONS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(x: u128) -> Fingerprint {
        // Spread test keys far from real fingerprints so concurrent suite
        // runs sharing the process-wide cache cannot collide with them.
        Fingerprint(x ^ 0xdead_beef_0000_0000_0000_0000_0000_0001)
    }

    #[test]
    fn exact_entries_round_trip_and_bump_access() {
        let key = fp(1);
        insert_exact(key, vec![1, 2, 3], 2);
        let (flows, value) = lookup_exact(key).expect("inserted");
        assert_eq!(flows, [1, 2, 3]);
        assert_eq!(value, 2);
        assert!(lookup_exact(fp(2)).is_none());
    }

    #[test]
    fn warm_slots_check_out_exclusively() {
        let class = fp(10);
        // A stateless reoptimizer is not worth caching.
        donate_warm(class, Reoptimizer::new());
        assert!(adopt_warm(class).is_none());
    }

    #[test]
    fn eviction_prefers_least_accessed_then_oldest() {
        let mut map: HashMap<u128, (u64, u64)> = HashMap::new();
        map.insert(1, (5, 1));
        map.insert(2, (0, 2));
        map.insert(3, (0, 3));
        // Direct policy check: fewest accesses wins, FIFO breaks the tie.
        let victim = *map.iter().min_by_key(|(_, v)| **v).map(|(k, _)| k).unwrap();
        assert_eq!(victim, 2);
    }
}
