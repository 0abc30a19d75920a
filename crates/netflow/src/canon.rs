//! Content key of a built flow network.
//!
//! The `(uid, version)` stamp in [`graph`](crate::graph) answers "is this
//! the same network *object*, unmutated?" — good enough for memoising work
//! inside one solve, useless for recognising that two independently built
//! networks pose the same problem. [`instance_key`] answers the second
//! question for networks emitted by a deterministic builder: it folds the
//! instance `(net, s, t, target)` in arc creation order into one 128-bit
//! [`Fingerprint`] covering the node count, the endpoints, every arc's
//! endpoints, lower bound, capacity and cost, and the flow target. Two
//! instances with equal keys are the same problem arc for arc, so a cached
//! optimal flow replays onto either one unchanged.
//!
//! Arc order is part of the key on purpose. The allocator numbers nodes and
//! arcs from the segmentation alone and prices ties by arc index, so two
//! builds of one problem are identical arc for arc, while two emissions of
//! it in different arc orders pose differently priced instances.

use crate::graph::{FlowNetwork, NodeId};

/// Identity stamp of a network's contents for a given endpoint pair: the
/// process-unique `(uid, version)` of [`FlowNetwork`] plus `s`/`t`. Two
/// stamps compare equal only if taken from the same network instance, with
/// no mutation in between, for the same endpoints — the validity condition
/// for caching artifacts derived from a scan of the arcs (input-validation
/// verdicts, residual CSR layouts). This is the *identity*-keyed complement
/// of the *content*-keyed [`instance_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheStamp {
    pub(crate) uid: u64,
    pub(crate) version: u64,
    pub(crate) s: u32,
    pub(crate) t: u32,
}

impl CacheStamp {
    /// Stamp of `net`'s current contents for endpoints `s → t`.
    #[inline]
    pub(crate) fn of(net: &FlowNetwork, s: NodeId, t: NodeId) -> Self {
        let (uid, version) = net.cache_stamp();
        Self {
            uid,
            version,
            s: s.index() as u32,
            t: t.index() as u32,
        }
    }

    /// Stamp from raw parts (for call sites that carry indices, not ids).
    #[inline]
    pub(crate) fn from_parts(net: &FlowNetwork, s: usize, t: usize) -> Self {
        let (uid, version) = net.cache_stamp();
        Self {
            uid,
            version,
            s: s as u32,
            t: t as u32,
        }
    }
}

/// A 128-bit content fingerprint (see [`instance_key`]). Displayed as hex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// splitmix64 finalizer: the bijective avalanche behind the fingerprint.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Order-dependent 128-bit fold over a word stream: two decorrelated u64
/// lanes, finalized through [`mix`].
#[derive(Clone, Copy)]
struct Fold {
    a: u64,
    b: u64,
}

impl Fold {
    fn new(tag: u64) -> Self {
        Self {
            a: mix(tag ^ 0x9e37_79b9_7f4a_7c15),
            b: mix(tag.wrapping_add(0x6a09_e667_f3bc_c909)),
        }
    }

    #[inline]
    fn push(&mut self, w: u64) {
        self.a = mix(self.a ^ w);
        self.b = mix(self.b.wrapping_add(w).rotate_left(17));
    }

    fn finish(self) -> Fingerprint {
        let hi = mix(self.a ^ self.b.rotate_left(32));
        let lo = mix(self.b.wrapping_add(self.a));
        Fingerprint((u128::from(hi) << 64) | u128::from(lo))
    }
}

/// Computes the content key of the built instance `(net, s, t, target)`
/// in one `O(E)` pass over the arcs in creation order.
///
/// Equal keys stand for the same instance only up to a 128-bit collision.
/// `lemra-core`'s cache re-checks a replayed flow's bounds, conservation,
/// value and cost against the live network ([`validate`](crate::validate)),
/// but not its optimality nor that its value is the requested target:
/// those rest on the key alone.
pub fn instance_key(net: &FlowNetwork, s: NodeId, t: NodeId, target: i64) -> Fingerprint {
    let mut key = Fold::new(0xF1F0);
    for w in [net.node_count(), s.index(), t.index()] {
        key.push(w as u64);
    }
    key.push(target as u64);
    for arc in net.arcs_slice() {
        // Each arc's words are pre-hashed independently of the fold state,
        // so the serial dependency is two pushes per arc.
        let ends = (arc.from.index() as u64) << 32 | arc.to.index() as u64;
        key.push(mix(ends ^ mix(arc.lower_bound as u64)));
        key.push(mix(arc.capacity as u64 ^ mix(arc.cost as u64)));
    }
    key.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Arc;
    use proptest::prelude::*;

    /// A small sweep-shaped network: source → variables → {mem, reg} → sink.
    fn build(costs: &[i64], caps: &[i64]) -> (FlowNetwork, NodeId, NodeId) {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        let mem = net.add_node();
        let reg = net.add_node();
        for (i, (&c, _)) in costs.iter().zip(caps).enumerate() {
            let v = net.add_node();
            net.add_arc_bounded(s, v, 1, 1, 0).unwrap();
            net.add_arc(v, mem, 1, c).unwrap();
            net.add_arc(v, reg, 1, c / 2 - i as i64).unwrap();
        }
        net.add_arc(mem, t, caps[0].max(1), 1).unwrap();
        net.add_arc(reg, t, caps.iter().sum::<i64>().max(1), 2)
            .unwrap();
        (net, s, t)
    }

    /// Rebuilds `net` in the same arc order, passing each arc (with its
    /// index) through `edit`.
    fn rebuilt(net: &FlowNetwork, edit: impl Fn(usize, Arc) -> Arc) -> FlowNetwork {
        let mut out = FlowNetwork::new();
        out.add_nodes(net.node_count());
        for (i, (_, &a)) in net.arcs().enumerate() {
            let a = edit(i, a);
            out.add_arc_bounded(a.from, a.to, a.lower_bound, a.capacity, a.cost)
                .unwrap();
        }
        out
    }

    #[test]
    fn identical_builds_share_the_fingerprint() {
        let (na, s, t) = build(&[10, 20, 30], &[1, 1, 1]);
        let (nb, _, _) = build(&[10, 20, 30], &[1, 1, 1]);
        assert_eq!(instance_key(&na, s, t, 3), instance_key(&nb, s, t, 3));
        let nc = rebuilt(&na, |_, a| a);
        assert_eq!(instance_key(&na, s, t, 3), instance_key(&nc, s, t, 3));
    }

    #[test]
    fn costs_target_and_lower_bounds_move_the_fingerprint() {
        let (na, s, t) = build(&[10, 20, 30], &[1, 1, 1]);
        let (nb, _, _) = build(&[11, 21, 31], &[1, 1, 1]);
        let nc = rebuilt(&na, |i, a| Arc {
            lower_bound: if i == 0 { 0 } else { a.lower_bound },
            ..a
        });
        let a = instance_key(&na, s, t, 3);
        assert_ne!(a, instance_key(&nb, s, t, 3), "costs");
        assert_ne!(a, instance_key(&na, s, t, 2), "target");
        assert_ne!(a, instance_key(&nc, s, t, 3), "lower bounds");
    }

    #[test]
    fn display_is_32_hex_digits() {
        let (net, s, t) = build(&[10, 20], &[1, 1]);
        let text = instance_key(&net, s, t, 2).to_string();
        assert_eq!(text.len(), 32);
        assert!(text.chars().all(|c| c.is_ascii_hexdigit()));
    }

    proptest! {
        /// Perturbing a single cost or a single capacity moves the
        /// fingerprint.
        #[test]
        fn single_perturbation_moves_the_fingerprint(
            costs in proptest::collection::vec(-50i64..50, 2..8),
            which in 0usize..64,
            bump in 1i64..5,
            cap_not_cost in proptest::bool::ANY,
        ) {
            let caps = vec![2i64; costs.len()];
            let (net, s, t) = build(&costs, &caps);
            let hit = which % net.arc_count();
            let nb = rebuilt(&net, |i, a| match (i == hit, cap_not_cost) {
                (true, true) => Arc { capacity: a.capacity + bump, ..a },
                (true, false) => Arc { cost: a.cost + bump, ..a },
                (false, _) => a,
            });
            let a = instance_key(&net, s, t, costs.len() as i64);
            let b = instance_key(&nb, s, t, costs.len() as i64);
            prop_assert_ne!(a, b);
        }
    }
}
