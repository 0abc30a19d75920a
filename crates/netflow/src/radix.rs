//! Monotone priority queue (radix heap) for Dijkstra rounds.
//!
//! Dijkstra over non-negative reduced costs pops keys in non-decreasing
//! order and never pushes a key below the last popped one — exactly the
//! contract a radix heap needs. Compared with a binary heap it turns every
//! push into O(1) work on a sequentially-growing bucket (no sift-up through
//! a pointer-chased array), which matters because the solver pushes several
//! entries per settled node and discards most of them unpopped at early
//! termination.
//!
//! Keys are bucketed by the most significant bit in which they differ from
//! the last popped key; bucket 0 therefore holds keys *equal* to it and pops
//! are O(1) until it drains, at which point the lowest non-empty bucket is
//! emptied and its entries redistributed strictly downwards (each key agrees
//! with the new minimum on every bit above the bucket's own, so its new
//! bucket index is smaller — the classic amortised-O(bits) argument).
//!
//! # Stale entries
//!
//! A Dijkstra round pushes a new entry on every label improvement and
//! leaves the superseded one behind. [`RadixHeap::pop`] takes the caller's
//! liveness test (in the solvers: the entry's key still equals its node's
//! label in the current round) and, whenever it drains a bucket, drops the
//! entries that fail it and redistributes only the rest around their
//! minimum. A dead entry stays dead — labels only fall within a round — so
//! it would only have been moved down again and skipped when it surfaced.
//!
//! This changes no live pop, ties included:
//!
//! * every entry of key `k` sits in bucket `f(last, k)`, the bucket of the
//!   highest bit in which `k` differs from `last`, whichever of the old or
//!   the new minimum became `last`: the new one is the minimum of the same
//!   bucket's live entries, and a key in a higher bucket differs from both
//!   at that bucket's bit and agrees with both above it;
//! * so all entries of one key share a bucket, in push order (pushes
//!   append, redistribution and `retain` keep relative order), until the
//!   drain that makes `k` the minimum moves them to bucket 0 as a stack
//!   that later pushes of `k` extend;
//! * the callers push only after a live pop, so between the last live pop
//!   below `k` and that drain nothing is pushed, dropping or keeping the
//!   dead entries alike.
//!
//! The live pops therefore come out in exactly the order the unfiltered
//! heap would give, and the labels, tight-arc lists, walks and settled
//! counts built from them are unchanged. Every entry a pop returns is live:
//! it was live when it reached bucket 0, and nothing can supersede a label
//! equal to the floor.

/// A monotone priority queue over `(key, value)` pairs with non-negative
/// `i64` keys.
///
/// `push` requires `key >= ` the last key returned by [`pop`] (and `>= 0`
/// after a [`reset`]); violating this is a logic error caught by a debug
/// assertion.
///
/// [`pop`]: RadixHeap::pop
/// [`reset`]: RadixHeap::reset
#[derive(Debug)]
pub(crate) struct RadixHeap {
    /// `buckets[b]` holds keys whose highest bit differing from `last` is
    /// `b - 1`; `buckets[0]` holds keys equal to `last`.
    buckets: Vec<Vec<(i64, u32)>>,
    /// Bit `b` set iff `buckets[b]` is non-empty, so finding the lowest
    /// occupied bucket is one `trailing_zeros` instead of a linear scan.
    occupied: u128,
    /// The monotone floor: last popped key (or the reset floor).
    last: i64,
    len: usize,
}

const BUCKETS: usize = 65;

impl Default for RadixHeap {
    fn default() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: 0,
            last: 0,
            len: 0,
        }
    }
}

impl RadixHeap {
    /// Empties the heap and resets the monotone floor to 0, keeping bucket
    /// capacity for reuse across rounds.
    pub fn reset(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupied = 0;
        self.last = 0;
        self.len = 0;
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket_index(last: i64, key: i64) -> usize {
        ((key as u64) ^ (last as u64))
            .checked_ilog2()
            .map_or(0, |b| b as usize + 1)
    }

    /// Inserts `(key, value)`. `key` must be `>=` the last popped key.
    #[inline]
    pub fn push(&mut self, key: i64, value: u32) {
        debug_assert!(key >= self.last, "radix heap requires monotone keys");
        let b = Self::bucket_index(self.last, key);
        self.buckets[b].push((key, value));
        self.occupied |= 1 << b;
        self.len += 1;
    }

    /// Removes and returns a pair with the minimum key among the entries
    /// `live(key, value)` accepts. Entries it rejects are dropped when
    /// their bucket is drained; `live` must never accept an entry it once
    /// rejected (see the [module documentation](self)).
    pub fn pop(&mut self, live: impl Fn(i64, u32) -> bool) -> Option<(i64, u32)> {
        while self.buckets[0].is_empty() {
            if self.len == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            debug_assert!(b < BUCKETS, "len > 0 implies a non-empty bucket");
            // Take the bucket out to appease the borrow checker, but put it
            // back afterwards so its capacity survives for later rounds —
            // dropping it here would make every redistribution free and then
            // re-grow the same buffer.
            let mut drained = std::mem::take(&mut self.buckets[b]);
            self.occupied &= !(1u128 << b);
            let before = drained.len();
            let mut min = i64::MAX;
            drained.retain(|&(k, v)| {
                let keep = live(k, v);
                if keep {
                    min = min.min(k);
                }
                keep
            });
            self.len -= before - drained.len();
            if !drained.is_empty() {
                self.last = min;
                for &(k, v) in &drained {
                    let nb = Self::bucket_index(min, k);
                    debug_assert!(nb < b, "redistribution must move entries down");
                    self.buckets[nb].push((k, v));
                    self.occupied |= 1 << nb;
                }
            }
            drained.clear();
            self.buckets[b] = drained;
        }
        self.len -= 1;
        let out = self.buckets[0].pop();
        if self.buckets[0].is_empty() {
            self.occupied &= !1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The liveness test that keeps every entry: the heap as it was before
    /// it dropped stale entries, and the reference the proptest compares
    /// against.
    fn all(_: i64, _: u32) -> bool {
        true
    }

    #[test]
    fn pops_in_sorted_order() {
        let mut h = RadixHeap::default();
        for (i, k) in [5i64, 3, 9, 3, 0, 17, 8].into_iter().enumerate() {
            h.push(k, i as u32);
        }
        let mut keys = Vec::new();
        while let Some((k, _)) = h.pop(all) {
            keys.push(k);
        }
        assert_eq!(keys, vec![0, 3, 3, 5, 8, 9, 17]);
        assert!(h.pop(all).is_none());
    }

    #[test]
    fn interleaved_monotone_pushes() {
        let mut h = RadixHeap::default();
        h.push(2, 0);
        h.push(7, 1);
        assert_eq!(h.pop(all), Some((2, 0)));
        // New keys at or above the popped key are fine.
        h.push(2, 2);
        h.push(1 << 40, 3);
        assert_eq!(h.pop(all).unwrap().0, 2);
        assert_eq!(h.pop(all).unwrap().0, 7);
        assert_eq!(h.pop(all).unwrap().0, 1 << 40);
        assert!(h.is_empty());
    }

    #[test]
    fn reset_restores_floor() {
        let mut h = RadixHeap::default();
        h.push(10, 0);
        assert_eq!(h.pop(all), Some((10, 0)));
        h.reset();
        // After reset, small keys are legal again.
        h.push(1, 1);
        assert_eq!(h.pop(all), Some((1, 1)));
    }

    #[test]
    fn equal_keys_all_surface() {
        let mut h = RadixHeap::default();
        for v in 0..100 {
            h.push(42, v);
        }
        let mut seen: Vec<u32> = std::iter::from_fn(|| h.pop(all).map(|(_, v)| v)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn large_key_range() {
        let mut h = RadixHeap::default();
        let keys = [0i64, 1, i64::MAX / 4, 1 << 62, 12345678901234];
        for (i, &k) in keys.iter().enumerate() {
            h.push(k, i as u32);
        }
        let mut sorted = keys;
        sorted.sort_unstable();
        for &want in &sorted {
            assert_eq!(h.pop(all).unwrap().0, want);
        }
    }

    #[test]
    fn dead_entries_are_dropped_and_never_returned() {
        let mut h = RadixHeap::default();
        h.push(0, 9);
        assert_eq!(h.pop(all), Some((0, 9)));
        // Value 1 is superseded twice, value 2 once; both dead entries sit
        // below the live minimum of their bucket.
        for (k, v) in [(40, 1), (33, 2), (36, 1), (35, 1), (50, 2), (34, 3)] {
            h.push(k, v);
        }
        let label = |v: u32| [0, 35, 33, 34][v as usize];
        let live = |k: i64, v: u32| label(v) == k;
        assert_eq!(h.pop(live), Some((33, 2)));
        assert_eq!(h.pop(live), Some((34, 3)));
        assert_eq!(h.pop(live), Some((35, 1)));
        assert_eq!(h.pop(live), None);
        assert!(h.is_empty());
    }

    /// A Dijkstra run over `adj` from the first `sources` nodes at key 0,
    /// relaxing a node only when it pops at its label, like the solvers'
    /// rounds. Returns every pair the heap popped, in order, with whether
    /// it was live (key equal to the node's label) when it popped.
    fn dijkstra_pops(
        adj: &[Vec<(usize, i64)>],
        sources: usize,
        drop_dead: bool,
    ) -> Vec<(i64, u32, bool)> {
        let mut dist = vec![i64::MAX; adj.len()];
        let mut h = RadixHeap::default();
        for (u, d) in dist.iter_mut().enumerate().take(sources) {
            *d = 0;
            h.push(0, u as u32);
        }
        let mut pops = Vec::new();
        loop {
            let popped = if drop_dead {
                h.pop(|k, v| dist[v as usize] == k)
            } else {
                h.pop(all)
            };
            let Some((d, u)) = popped else {
                break;
            };
            let live = dist[u as usize] == d;
            pops.push((d, u, live));
            if !live {
                continue;
            }
            for &(v, w) in &adj[u as usize] {
                if d + w < dist[v] {
                    dist[v] = d + w;
                    h.push(d + w, v as u32);
                }
            }
        }
        pops
    }

    /// Random digraphs whose arc lengths mix zero (ties), small values and
    /// values near 2^20 and 2^44, so keys spread over many buckets and
    /// labels are superseded often.
    fn random_graph() -> impl Strategy<Value = (Vec<Vec<(usize, i64)>>, usize)> {
        (2usize..40).prop_flat_map(|n| {
            let arc = (0..n, 0..n, 0u32..4, 0i64..8);
            (proptest::collection::vec(arc, 0..6 * n), 1..n.min(4) + 1).prop_map(
                move |(arcs, sources)| {
                    let mut adj = vec![Vec::new(); n];
                    for (u, v, kind, small) in arcs {
                        let w = match kind {
                            0 => 0,
                            1 => small,
                            2 => (small + 1) << 20,
                            _ => (small + 1) << 44,
                        };
                        adj[u].push((v, w));
                    }
                    (adj, sources)
                },
            )
        })
    }

    proptest! {
        /// Dropping dead entries changes no live pop: the heap that drops
        /// them returns exactly the live subsequence of what the heap that
        /// keeps them returns, ties in the same order, and every pair it
        /// returns is live.
        #[test]
        fn pop_returns_the_live_subsequence_of_the_unfiltered_heap(graph in random_graph()) {
            let (adj, sources) = graph;
            let kept = dijkstra_pops(&adj, sources, false);
            let dropped = dijkstra_pops(&adj, sources, true);
            let live: Vec<_> = kept.iter().copied().filter(|p| p.2).collect();
            prop_assert_eq!(&dropped, &live);
        }
    }
}
