//! Cross-request allocation cache, keyed by the content fingerprint of
//! the built network (see `lemra_netflow::instance_key`).
//!
//! One table behind one process-wide lock maps a [`Fingerprint`] to the
//! optimal flow in arc creation order. The allocator's build is
//! deterministic, so an equal key means the same network arc for arc and
//! the flow replays unchanged: the returned solution is byte-identical to
//! what a solve of that instance would produce (the tie-break transform
//! makes the optimum unique). A hit is re-checked against the live network
//! for bounds, conservation, value and cost (`lemra_netflow::validate`),
//! so a corrupted entry or most key collisions degrade to a miss. That
//! check does not cover optimality or the requested target: optimality of
//! a replay rests on the 128-bit key.
//!
//! Eviction is pelikan-style least-access-count with FIFO on ties (the
//! `merge_at_{head,mid,tail}` thresholds of pelikan's seg cache reduce to
//! exactly this when segments are single entries): the table is capped at
//! [`LemraConfig::cache_cap`] entries and the insert that overflows it
//! evicts the entry with the fewest recorded accesses, oldest first.
//!
//! Lock discipline: every critical section is a map lookup/insert — no
//! solve ever runs under the lock, so contention is bounded by hashing a
//! 128-bit key, and a panic inside a replay (fault injection) cannot
//! poison the cache mid-solve.

use lemra_netflow::{Fingerprint, LemraConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Live counters of the process-wide allocation cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Solves answered by replaying a cached solution byte-identically.
    pub exact_hits: u64,
    /// Cache-enabled solves that found nothing usable and solved cold.
    pub misses: u64,
    /// Entries inserted (first solve of each distinct instance).
    pub insertions: u64,
    /// Entries evicted under the capacity cap.
    pub evictions: u64,
    /// Entries currently resident.
    pub exact_entries: usize,
}

struct ExactEntry {
    /// Optimal flow per arc, in creation order.
    flows: Vec<i64>,
    /// Units routed (the solve target).
    value: i64,
    access: u64,
    seq: u64,
}

#[derive(Default)]
struct Inner {
    exact: HashMap<u128, ExactEntry>,
    /// Monotone insertion counter, the FIFO eviction tiebreak.
    seq: u64,
}

static CACHE: Mutex<Option<Inner>> = Mutex::new(None);

// Counters live outside the table lock so `cache_stats` and the hot paths
// never serialize on reporting.
static EXACT_HITS: AtomicU64 = AtomicU64::new(0);
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

/// Evicts the least-accessed (oldest on ties) entry if the table is full
/// before the pending insert.
fn evict_to_cap(map: &mut HashMap<u128, ExactEntry>) {
    if map.len() < cap() {
        return;
    }
    let victim = map
        .iter()
        .min_by_key(|(_, e)| (e.access, e.seq))
        .map(|(&k, _)| k);
    if let Some(k) = victim {
        map.remove(&k);
        EVICTIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Looks up the table; returns the creation-order flow and the
/// routed value, bumping the entry's access count. The caller replays and
/// re-validates before counting this as a hit.
pub(crate) fn lookup_exact(fp: Fingerprint) -> Option<(Vec<i64>, i64)> {
    with(|inner| {
        let entry = inner.exact.get_mut(&fp.0)?;
        entry.access += 1;
        Some((entry.flows.clone(), entry.value))
    })
}

/// Inserts (or refreshes) an entry, evicting under the cap.
pub(crate) fn insert_exact(fp: Fingerprint, flows: Vec<i64>, value: i64) {
    with(|inner| {
        if let Some(existing) = inner.exact.get_mut(&fp.0) {
            // Re-derived result for a known instance (two contexts solving
            // it concurrently): keep the slot's age, refresh the payload.
            existing.flows = flows;
            existing.value = value;
            return;
        }
        evict_to_cap(&mut inner.exact);
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

pub(crate) fn note_exact_hit() {
    EXACT_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_miss() {
    MISSES.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide cache counters and occupancy — what the drivers print
/// behind `--timings`.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        exact_hits: EXACT_HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        insertions: INSERTIONS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        exact_entries: with(|inner| inner.exact.len()),
    }
}

/// Drops every cached entry and zeroes the counters (bench harness and
/// test isolation; never called on a production path).
pub fn clear_cache() {
    with(|inner| {
        inner.exact.clear();
        inner.seq = 0;
    });
    EXACT_HITS.store(0, Ordering::Relaxed);
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
