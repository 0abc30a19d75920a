//! Identity stamp of a flow network's contents.
//!
//! The `(uid, version)` stamp in [`graph`](crate::graph) answers "is this
//! the same network *object*, unmutated?" — the validity condition for
//! memoising work derived from a scan of its arcs inside and across solves
//! on one workspace. It says nothing about whether two independently built
//! networks pose the same problem.

use crate::graph::{FlowNetwork, NodeId};

/// Identity stamp of a network's contents for a given endpoint pair: the
/// process-unique `(uid, version)` of [`FlowNetwork`] plus `s`/`t`. Two
/// stamps compare equal only if taken from the same network instance, with
/// no mutation in between, for the same endpoints — the validity condition
/// for caching artifacts derived from a scan of the arcs (input-validation
/// verdicts, residual CSR layouts).
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
