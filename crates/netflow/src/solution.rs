//! Flow solutions: per-arc flows, validation, and path decomposition.

use crate::graph::{ArcId, FlowNetwork, NodeId};
use crate::NetflowError;

/// The result of a flow computation over a [`FlowNetwork`].
///
/// `flows[i]` is the flow on the arc with [`ArcId::index`] `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSolution {
    /// Flow per arc, indexed by [`ArcId::index`].
    pub flows: Vec<i64>,
    /// Net flow delivered from the source to the sink.
    pub value: i64,
    /// Total cost `Σ cost(a) · flow(a)`.
    pub cost: i64,
}

impl FlowSolution {
    /// Flow carried by `arc`.
    ///
    /// # Panics
    ///
    /// Panics if `arc` does not belong to the solved network.
    pub fn flow(&self, arc: ArcId) -> i64 {
        self.flows[arc.index()]
    }

    /// Recomputes the cost of this solution against `net` (used by tests to
    /// confirm the solver's bookkeeping).
    pub fn recompute_cost(&self, net: &FlowNetwork) -> i64 {
        net.arcs()
            .map(|(id, arc)| arc.cost * self.flows[id.index()])
            .sum()
    }

    /// Decomposes the flow into `s`→`t` paths.
    ///
    /// Returns `(arcs-of-path, units)` pairs whose units sum to
    /// [`FlowSolution::value`]. The decomposition is greedy and assumes the
    /// flow is acyclic (always true for the DAG networks built by
    /// `lemra-core`). Each walk leaves a node by its first out-arc, in arc
    /// creation order, that still carries flow, so the paths and their order
    /// depend only on the network and the flows.
    ///
    /// # Errors
    ///
    /// Returns [`NetflowError::CyclicFlow`] if some flow cannot be routed
    /// from `s` (it circulates on a cycle).
    pub fn decompose_paths(
        &self,
        net: &FlowNetwork,
        s: NodeId,
        t: NodeId,
    ) -> Result<Vec<(Vec<ArcId>, i64)>, NetflowError> {
        let mut remaining = self.flows.clone();
        // The flow-carrying out-arcs as one CSR array, in arc order: node
        // `v`'s row is `out[row[v]..row[v + 1]]`, and `cursor[v]` walks it
        // so each arc is scanned past once.
        let nodes = net.node_count();
        let mut row = vec![0usize; nodes + 1];
        for (id, arc) in net.arcs() {
            if remaining[id.index()] > 0 {
                row[arc.from.index() + 1] += 1;
            }
        }
        for v in 0..nodes {
            row[v + 1] += row[v];
        }
        let mut cursor = row[..nodes].to_vec();
        let mut out = vec![ArcId(0); row[nodes]];
        for (id, arc) in net.arcs() {
            if remaining[id.index()] > 0 {
                let next = &mut cursor[arc.from.index()];
                out[*next] = id;
                *next += 1;
            }
        }
        cursor.copy_from_slice(&row[..nodes]);
        let mut paths = Vec::new();
        let mut delivered = 0i64;
        while delivered < self.value {
            let mut path = Vec::new();
            let mut units = i64::MAX;
            let mut v = s;
            while v != t {
                let vi = v.index();
                // Skip exhausted arcs.
                let end = row[vi + 1];
                while cursor[vi] < end && remaining[out[cursor[vi]].index()] == 0 {
                    cursor[vi] += 1;
                }
                if cursor[vi] == end {
                    return Err(NetflowError::CyclicFlow { stuck_at: v });
                }
                let a = out[cursor[vi]];
                units = units.min(remaining[a.index()]);
                path.push(a);
                v = net.arc(a).to;
                if path.len() > net.arc_count() {
                    return Err(NetflowError::CyclicFlow { stuck_at: v });
                }
            }
            units = units.min(self.value - delivered);
            for &a in &path {
                remaining[a.index()] -= units;
            }
            delivered += units;
            paths.push((path, units));
        }
        Ok(paths)
    }
}

/// Checks that `sol` is a feasible flow of its claimed value and cost on
/// `net`.
///
/// Verifies, for every arc, `lower_bound <= flow <= capacity`; conservation
/// at every node other than `s` and `t`; that the net out-flow of `s` (and
/// in-flow of `t`) equals `sol.value`; and that `sol.cost` matches the
/// recomputed cost.
///
/// # Errors
///
/// Returns a [`NetflowError::InvalidSolution`] describing the first violated
/// condition.
pub fn validate(
    net: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    sol: &FlowSolution,
) -> Result<(), NetflowError> {
    if sol.flows.len() != net.arc_count() {
        return Err(invalid(format!(
            "solution has {} flows for {} arcs",
            sol.flows.len(),
            net.arc_count()
        )));
    }
    let mut balance = vec![0i64; net.node_count()];
    for (id, arc) in net.arcs() {
        let f = sol.flows[id.index()];
        if f < arc.lower_bound || f > arc.capacity {
            return Err(invalid(format!(
                "arc {id} flow {f} outside [{}, {}]",
                arc.lower_bound, arc.capacity
            )));
        }
        balance[arc.from.index()] -= f;
        balance[arc.to.index()] += f;
    }
    for (v, &b) in balance.iter().enumerate() {
        if v == s.index() || v == t.index() {
            continue;
        }
        if b != 0 {
            return Err(invalid(format!("node n{v} violates conservation by {b}")));
        }
    }
    if balance[s.index()] != -sol.value {
        return Err(invalid(format!(
            "source emits {} units, solution claims {}",
            -balance[s.index()],
            sol.value
        )));
    }
    if balance[t.index()] != sol.value {
        return Err(invalid(format!(
            "sink absorbs {} units, solution claims {}",
            balance[t.index()],
            sol.value
        )));
    }
    let cost = sol.recompute_cost(net);
    if cost != sol.cost {
        return Err(invalid(format!(
            "cost mismatch: recomputed {cost}, claimed {}",
            sol.cost
        )));
    }
    Ok(())
}

fn invalid(reason: String) -> NetflowError {
    NetflowError::InvalidSolution { reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::min_cost_flow;

    fn solved_diamond() -> (FlowNetwork, NodeId, NodeId, FlowSolution) {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_arc(s, a, 1, 1).unwrap();
        net.add_arc(a, t, 1, 1).unwrap();
        net.add_arc(s, b, 1, 3).unwrap();
        net.add_arc(b, t, 1, 3).unwrap();
        let sol = min_cost_flow(&net, s, t, 2).unwrap();
        (net, s, t, sol)
    }

    #[test]
    fn validate_accepts_solver_output() {
        let (net, s, t, sol) = solved_diamond();
        validate(&net, s, t, &sol).unwrap();
    }

    #[test]
    fn validate_rejects_tampering() {
        let (net, s, t, sol) = solved_diamond();
        let mut bad = sol.clone();
        bad.flows[0] += 1;
        assert!(validate(&net, s, t, &bad).is_err());
        let mut bad_cost = sol;
        bad_cost.cost += 1;
        assert!(validate(&net, s, t, &bad_cost).is_err());
    }

    #[test]
    fn decompose_covers_value() {
        let (net, s, t, sol) = solved_diamond();
        let paths = sol.decompose_paths(&net, s, t).unwrap();
        assert_eq!(paths.iter().map(|(_, u)| u).sum::<i64>(), 2);
        for (path, _) in &paths {
            assert_eq!(net.arc(path[0]).from, s);
            assert_eq!(net.arc(*path.last().unwrap()).to, t);
        }
    }

    #[test]
    fn decompose_order_is_pinned_on_crossing_multi_unit_paths() {
        // s → b and s → a both carry several units; one unit crosses from
        // a to b, and the idle s → t arc comes first. Walks leave each node
        // by its first flow-carrying arc in creation order.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        let arcs = [
            net.add_arc(s, t, 4, 0).unwrap(),
            net.add_arc(s, b, 2, 0).unwrap(),
            net.add_arc(s, a, 3, 0).unwrap(),
            net.add_arc(a, b, 1, 0).unwrap(),
            net.add_arc(a, t, 2, 0).unwrap(),
            net.add_arc(b, t, 3, 0).unwrap(),
        ];
        let sol = FlowSolution {
            flows: vec![0, 2, 3, 1, 2, 3],
            value: 5,
            cost: 0,
        };
        validate(&net, s, t, &sol).unwrap();
        let paths = sol.decompose_paths(&net, s, t).unwrap();
        let expected = vec![
            (vec![arcs[1], arcs[5]], 2),
            (vec![arcs[2], arcs[3], arcs[5]], 1),
            (vec![arcs[2], arcs[4]], 2),
        ];
        assert_eq!(paths, expected);
    }

    #[test]
    fn decompose_multi_unit_path() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_arc(s, t, 5, 0).unwrap();
        let sol = min_cost_flow(&net, s, t, 5).unwrap();
        let paths = sol.decompose_paths(&net, s, t).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].1, 5);
    }
}
