//! Causality analysis: detection of instantaneous loops.
//!
//! DFD communication is "instantaneous" in the sense of synchronous languages
//! (paper, Sec. 3.2); the AutoMoDe tool prototype accompanies instantaneous
//! primitives with *a causality check for detecting instantaneous loops*.
//! This module implements that check as a cycle analysis over the graph of
//! instantaneous dependencies: a network is causal iff that graph is acyclic,
//! in which case a static evaluation order exists.

use std::error::Error;
use std::fmt;

/// A cycle of instantaneous dependencies, reported with display names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalityError {
    /// Names of the nodes on the instantaneous cycle, in dependency order.
    pub cycle: Vec<String>,
}

impl fmt::Display for CausalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instantaneous loop: {} -> {}",
            self.cycle.join(" -> "),
            self.cycle.first().map(String::as_str).unwrap_or("?")
        )
    }
}

impl Error for CausalityError {}

/// The full result of a causality analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalityReport {
    /// A valid evaluation order (topological w.r.t. instantaneous edges),
    /// present iff the graph is acyclic.
    pub order: Option<Vec<usize>>,
    /// Every nontrivial strongly connected component (each is an
    /// instantaneous loop), as index sets.
    pub loops: Vec<Vec<usize>>,
}

impl CausalityReport {
    /// `true` if no instantaneous loop exists.
    pub fn is_causal(&self) -> bool {
        self.loops.is_empty()
    }
}

/// Analyzes the instantaneous-dependency graph of `n` nodes.
///
/// `edges` lists instantaneous dependencies `(from, to)`: node `to` reads
/// node `from`'s output *in the same tick*. Delayed (SSD-style) channels must
/// not be passed here — they break causality cycles by construction.
///
/// Returns a [`CausalityReport`] with a topological order if causal and the
/// list of all instantaneous loops otherwise.
///
/// # Panics
///
/// Panics if an edge endpoint is `>= n`.
pub fn analyze(n: usize, edges: &[(usize, usize)]) -> CausalityReport {
    for &(a, b) in edges {
        assert!(a < n && b < n, "edge endpoint out of range");
    }
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
    }
    let sccs = tarjan(n, &adj);
    let mut loops: Vec<Vec<usize>> = sccs
        .iter()
        .filter(|scc| scc.len() > 1 || (scc.len() == 1 && adj[scc[0]].contains(&scc[0])))
        .cloned()
        .collect();
    loops.iter_mut().for_each(|l| l.sort_unstable());
    loops.sort();

    let order = if loops.is_empty() {
        Some(topo_order(n, &adj))
    } else {
        None
    };
    CausalityReport { order, loops }
}

/// Convenience wrapper: returns an evaluation order or an error naming the
/// first instantaneous loop found.
///
/// The order is the lowest-index-first topological order of
/// [`analyze`] — the one order every executor and clock engine steps, so
/// all of them agree on which block fails first within a tick.
///
/// # Errors
///
/// Returns [`CausalityError`] carrying the loop (as names resolved through
/// `name_of`) if one exists.
pub fn check(
    n: usize,
    edges: &[(usize, usize)],
    name_of: impl Fn(usize) -> String,
) -> Result<Vec<usize>, CausalityError> {
    let report = analyze(n, edges);
    report.order.ok_or_else(|| CausalityError {
        cycle: order_cycle(&report.loops[0], edges)
            .into_iter()
            .map(name_of)
            .collect(),
    })
}

/// Orders the nodes of one SCC along an actual cycle for readable reports.
fn order_cycle(scc: &[usize], edges: &[(usize, usize)]) -> Vec<usize> {
    if scc.len() == 1 {
        return scc.to_vec();
    }
    let in_scc = |x: usize| scc.contains(&x);
    // Walk successors inside the SCC until we revisit the start.
    let start = scc[0];
    let mut path = vec![start];
    let mut cur = start;
    loop {
        let next = edges
            .iter()
            .find(|&&(a, b)| a == cur && in_scc(b) && (!path.contains(&b) || b == start))
            .map(|&(_, b)| b);
        match next {
            Some(b) if b == start => break,
            Some(b) => {
                path.push(b);
                cur = b;
            }
            None => break, // defensive: report partial path
        }
    }
    path
}

fn topo_order(n: usize, adj: &[Vec<usize>]) -> Vec<usize> {
    let mut indeg = vec![0usize; n];
    for succs in adj {
        for &b in succs {
            indeg[b] += 1;
        }
    }
    // Stable order: lowest index first, for deterministic schedules.
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(std::cmp::Reverse)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(i)) = ready.pop() {
        order.push(i);
        for &b in &adj[i] {
            indeg[b] -= 1;
            if indeg[b] == 0 {
                ready.push(std::cmp::Reverse(b));
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Iterative Tarjan SCC.
fn tarjan(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct Frame {
        v: usize,
        edge: usize,
    }
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call = vec![Frame { v: root, edge: 0 }];
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(frame) = call.last_mut() {
            let v = frame.v;
            if frame.edge < adj[v].len() {
                let w = adj[v][frame.edge];
                frame.edge += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push(Frame { v: w, edge: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
                let done = call.pop().expect("frame exists");
                if let Some(parent) = call.last() {
                    low[parent.v] = low[parent.v].min(low[done.v]);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(i: usize) -> String {
        format!("n{i}")
    }

    #[test]
    fn empty_graph_is_causal() {
        let r = analyze(0, &[]);
        assert!(r.is_causal());
        assert_eq!(r.order, Some(vec![]));
    }

    #[test]
    fn dag_yields_topological_order() {
        let edges = [(0, 1), (1, 2), (0, 2)];
        let order = check(3, &edges, name).unwrap();
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(2));
    }

    #[test]
    fn order_is_deterministic_lowest_first() {
        let order = check(4, &[(2, 3)], name).unwrap();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn self_loop_is_an_instantaneous_loop() {
        let r = analyze(2, &[(0, 0)]);
        assert!(!r.is_causal());
        assert_eq!(r.loops, vec![vec![0]]);
    }

    #[test]
    fn two_cycle_detected_and_named() {
        let err = check(3, &[(0, 1), (1, 0)], name).unwrap_err();
        assert_eq!(err.cycle.len(), 2);
        assert!(err.to_string().contains("instantaneous loop"));
        assert!(err.cycle.contains(&"n0".to_string()));
        assert!(err.cycle.contains(&"n1".to_string()));
    }

    #[test]
    fn cycle_path_is_an_actual_cycle() {
        // 0 -> 1 -> 2 -> 0 with a distractor edge 0 -> 2.
        let edges = [(0, 1), (1, 2), (2, 0), (0, 2)];
        let err = check(3, &edges, |i| i.to_string()).unwrap_err();
        let ids: Vec<usize> = err.cycle.iter().map(|s| s.parse().unwrap()).collect();
        for w in ids.windows(2) {
            assert!(edges.contains(&(w[0], w[1])));
        }
        assert!(edges.contains(&(*ids.last().unwrap(), ids[0])));
    }

    #[test]
    fn multiple_loops_all_reported() {
        let edges = [(0, 1), (1, 0), (2, 3), (3, 2), (4, 4)];
        let r = analyze(5, &edges);
        assert_eq!(r.loops.len(), 3);
    }

    #[test]
    fn breaking_the_loop_with_a_delay_restores_causality() {
        // The loop 0 -> 1 -> 0 becomes causal when the 1 -> 0 dependency is
        // delayed — i.e. simply not part of the instantaneous edge set.
        let r = analyze(2, &[(0, 1)]);
        assert!(r.is_causal());
    }

    #[test]
    fn big_chain_is_causal() {
        let n = 10_000;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let r = analyze(n, &edges);
        assert!(r.is_causal());
        assert_eq!(r.order.as_ref().unwrap().len(), n);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = analyze(1, &[(0, 1)]);
    }
}
