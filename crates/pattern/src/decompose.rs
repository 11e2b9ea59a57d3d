//! Vertex-subset algebra for decomposition trees (§3.1.2).
//!
//! The graph-aware transformation searches over decomposition trees whose
//! intermediate nodes are *connected induced sub-patterns* of `P` and whose
//! leaves (MMCs) are single vertices or complete stars. Because intermediate
//! nodes are induced, a sub-pattern is fully identified by its vertex set —
//! a `u16` bitmask ([`VertexSet`]).
//!
//! This module provides the subset primitives and enumerates the *legal
//! transitions* into a target subset:
//!
//! * **Expand** — add one vertex connected by exactly one pattern edge
//!   (physical `EXPAND_EDGE`+`GET_VERTEX`, Case II);
//! * **ExpandIntersect** — add one vertex connected by ≥ 2 edges, i.e. a
//!   complete star whose leaves all lie in the existing side (physical
//!   `EXPAND_INTERSECT`, Case III);
//! * **BinaryJoin** — join two overlapping connected induced sub-patterns
//!   (physical `HASH_JOIN` on common vertices/edges, Case I).

use crate::pattern::Pattern;

/// A set of pattern-vertex indices as a bitmask (patterns have ≤ 16
/// vertices).
pub type VertexSet = u16;

/// The set `{0, …, n-1}`.
#[inline]
pub fn full_set(n: usize) -> VertexSet {
    debug_assert!(n <= 16);
    if n == 16 {
        u16::MAX
    } else {
        (1u16 << n) - 1
    }
}

/// Whether `set` contains vertex `v`.
#[inline]
pub fn contains(set: VertexSet, v: usize) -> bool {
    set & (1 << v) != 0
}

/// `set ∪ {v}`.
#[inline]
pub fn insert(set: VertexSet, v: usize) -> VertexSet {
    set | (1 << v)
}

/// `set \ {v}`.
#[inline]
pub fn remove(set: VertexSet, v: usize) -> VertexSet {
    set & !(1 << v)
}

/// Iterate the vertex indices contained in `set`, ascending.
pub fn iter_vertices(set: VertexSet) -> impl Iterator<Item = usize> {
    (0..16).filter(move |&v| contains(set, v))
}

/// Number of vertices in `set`.
#[inline]
pub fn len(set: VertexSet) -> usize {
    set.count_ones() as usize
}

/// Indices of the pattern edges with *both* endpoints in `set` (the edge set
/// of the induced sub-pattern).
pub fn edges_within(p: &Pattern, set: VertexSet) -> Vec<usize> {
    p.edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| contains(set, e.src) && contains(set, e.dst))
        .map(|(i, _)| i)
        .collect()
}

/// Indices of the pattern edges between vertex `v` (∉ `set`) and `set`.
pub fn edges_between(p: &Pattern, set: VertexSet, v: usize) -> Vec<usize> {
    debug_assert!(!contains(set, v));
    p.edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            (e.src == v && contains(set, e.dst)) || (e.dst == v && contains(set, e.src))
        })
        .map(|(i, _)| i)
        .collect()
}

/// Whether the sub-pattern induced by `set` is connected (single vertices
/// are connected; the empty set is not).
pub fn is_induced_connected(p: &Pattern, set: VertexSet) -> bool {
    let k = len(set);
    if k == 0 {
        return false;
    }
    if k == 1 {
        return true;
    }
    let start = iter_vertices(set).next().expect("non-empty");
    let mut seen: VertexSet = 1 << start;
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        for e in p.edges() {
            for (a, b) in [(e.src, e.dst), (e.dst, e.src)] {
                if a == v && contains(set, b) && !contains(seen, b) {
                    seen = insert(seen, b);
                    stack.push(b);
                }
            }
        }
    }
    seen == set
}

/// All non-empty vertex subsets whose induced sub-pattern is connected,
/// sorted by cardinality then value (DP evaluation order).
pub fn connected_induced_subsets(p: &Pattern) -> Vec<VertexSet> {
    let n = p.vertex_count();
    let all = full_set(n);
    let mut subsets: Vec<VertexSet> = (1..=all)
        .filter(|&s| s & !all == 0 && is_induced_connected(p, s))
        .collect();
    subsets.sort_by_key(|&s| (len(s), s));
    subsets
}

/// Extract the induced sub-pattern of `set` together with the vertex-index
/// mapping `old → new` (ascending order). Predicates are carried over.
pub fn sub_pattern(p: &Pattern, set: VertexSet) -> (Pattern, Vec<usize>) {
    use crate::pattern::PatternBuilder;
    let old_ids: Vec<usize> = iter_vertices(set).collect();
    let mut b = PatternBuilder::new();
    let mut new_of = vec![usize::MAX; p.vertex_count()];
    for (new, &old) in old_ids.iter().enumerate() {
        let idx = b.vertex(&format!("v{new}"), p.vertex(old).label);
        new_of[old] = idx;
        if let Some(pred) = &p.vertex(old).predicate {
            b.vertex_predicate(idx, pred.clone());
        }
    }
    for ei in edges_within(p, set) {
        let e = p.edge(ei);
        let new_e = b
            .edge(new_of[e.src], new_of[e.dst], e.label)
            .expect("endpoints are in the subset");
        if let Some(pred) = &e.predicate {
            b.edge_predicate(new_e, pred.clone());
        }
    }
    let sub = b.build().expect("caller must supply a connected subset");
    (sub, old_ids)
}

/// A legal transition producing the sub-pattern over some target subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transition {
    /// `target = from ∪ {new_vertex}` via exactly one pattern edge.
    Expand {
        /// The existing connected induced sub-pattern.
        from: VertexSet,
        /// The vertex being matched by this step.
        new_vertex: usize,
        /// The single pattern edge connecting `new_vertex` to `from`.
        edge: usize,
    },
    /// `target = from ∪ {new_vertex}` via a complete star of ≥ 2 edges whose
    /// leaves all lie in `from`.
    ExpandIntersect {
        /// The existing connected induced sub-pattern.
        from: VertexSet,
        /// The star's root vertex (newly matched).
        new_vertex: usize,
        /// All pattern edges between `new_vertex` and `from`.
        edges: Vec<usize>,
    },
    /// `target = left ∪ right`, both connected induced sub-patterns with a
    /// non-empty overlap, joined on the common vertices. Children partition
    /// the target's edges (no edge lies inside the overlap), matching the
    /// join decompositions enumerated by GLogS/HUGE.
    BinaryJoin {
        /// Left child subset.
        left: VertexSet,
        /// Right child subset.
        right: VertexSet,
    },
}

/// The vertex-extension transition `from → from ∪ {v}` (`v ∉ from`), if `v` is
/// adjacent to `from`: one connecting edge expands, several intersect.
pub fn extension(p: &Pattern, from: VertexSet, v: usize) -> Option<Transition> {
    let edges = edges_between(p, from, v);
    match edges.len() {
        0 => None,
        1 => Some(Transition::Expand {
            from,
            new_vertex: v,
            edge: edges[0],
        }),
        _ => Some(Transition::ExpandIntersect {
            from,
            new_vertex: v,
            edges,
        }),
    }
}

/// Enumerate every legal transition whose result is exactly `target`
/// (`target` must induce a connected sub-pattern with ≥ 2 vertices).
///
/// Binary joins are emitted as **unordered** pairs with `left < right`; cost
/// models treat ⋈ as symmetric, and plan counters that want ordered trees
/// double them.
pub fn transitions_into(p: &Pattern, target: VertexSet) -> Vec<Transition> {
    let mut out = Vec::new();
    if len(target) < 2 || !is_induced_connected(p, target) {
        return out;
    }
    // Vertex-extension transitions.
    for v in iter_vertices(target) {
        let from = remove(target, v);
        if is_induced_connected(p, from) {
            out.extend(extension(p, from, v));
        }
    }
    // Binary joins of overlapping connected induced sub-patterns. Enumerate
    // `left` over proper subsets of `target` with ≥ 2 vertices; `right` must
    // also be a proper subset so neither child equals the parent. Children
    // must jointly cover the target's edges and be edge-disjoint (no target
    // edge inside the overlap): joins share vertices, not work.
    let target_edges = edges_within(p, target);
    let mut left = (target.wrapping_sub(1)) & target;
    while left != 0 {
        if len(left) >= 2 && is_induced_connected(p, left) {
            let rest = target & !left;
            // Enumerate right = rest ∪ o for overlap o ⊆ left, o ≠ ∅.
            let mut o = left;
            while o != 0 {
                let right = rest | o;
                if right != target
                    && len(right) >= 2
                    && left < right
                    && is_induced_connected(p, right)
                {
                    let covered_disjoint = target_edges.iter().all(|&ei| {
                        let e = p.edge(ei);
                        let in_left = contains(left, e.src) && contains(left, e.dst);
                        let in_right = contains(right, e.src) && contains(right, e.dst);
                        // Exactly one side owns each edge.
                        in_left != in_right
                    });
                    if covered_disjoint {
                        out.push(Transition::BinaryJoin { left, right });
                    }
                }
                o = (o - 1) & left;
            }
        }
        left = (left - 1) & target;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::fixtures::{fig2_triangle, path};

    #[test]
    fn set_primitives() {
        let s = insert(insert(0, 1), 3);
        assert!(contains(s, 1) && contains(s, 3) && !contains(s, 0));
        assert_eq!(len(s), 2);
        assert_eq!(iter_vertices(s).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(remove(s, 1), insert(0, 3));
        assert_eq!(full_set(3), 0b111);
        assert_eq!(full_set(16), u16::MAX);
    }

    #[test]
    fn induced_edges_and_connectivity() {
        let t = fig2_triangle(); // vertices p1=0, p2=1, m=2
        assert_eq!(edges_within(&t, 0b111).len(), 3);
        assert_eq!(edges_within(&t, 0b011), vec![0], "knows edge only");
        assert!(is_induced_connected(&t, 0b111));
        assert!(is_induced_connected(&t, 0b101), "p1-m via likes");
        assert!(is_induced_connected(&t, 0b001));
        assert!(!is_induced_connected(&t, 0));
        let p = path(3); // 0-1-2-3
        assert!(!is_induced_connected(&p, 0b1001), "ends of the path");
        assert!(is_induced_connected(&p, 0b0110));
    }

    #[test]
    fn connected_subsets_of_path() {
        let p = path(2); // vertices 0,1,2
        let subs = connected_induced_subsets(&p);
        // intervals only: {0},{1},{2},{0,1},{1,2},{0,1,2}
        assert_eq!(subs.len(), 6);
        assert!(subs.contains(&0b011));
        assert!(!subs.contains(&0b101));
    }

    #[test]
    fn sub_pattern_extraction_remaps() {
        let t = fig2_triangle();
        let (sub, map) = sub_pattern(&t, 0b110); // p2 and m
        assert_eq!(map, vec![1, 2]);
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 1, "only the p2-likes-m edge survives");
        assert_eq!(sub.edge(0).src, 0);
        assert_eq!(sub.edge(0).dst, 1);
    }

    #[test]
    fn triangle_transitions() {
        let t = fig2_triangle();
        let ts = transitions_into(&t, 0b111);
        // Every vertex removal leaves a connected 2-subset joined by 2 edges
        // → three ExpandIntersect transitions; plus binary joins of
        // overlapping 2-subsets.
        let ei: Vec<_> = ts
            .iter()
            .filter(|t| matches!(t, Transition::ExpandIntersect { .. }))
            .collect();
        assert_eq!(ei.len(), 3);
        // No Case-I join: two 2-vertex induced children hold at most two of
        // the triangle's three edges. (The Fig-3 "join" with a star right
        // child *is* the ExpandIntersect transition.)
        assert!(!ts
            .iter()
            .any(|t| matches!(t, Transition::BinaryJoin { .. })));
        assert!(!ts.iter().any(|t| matches!(t, Transition::Expand { .. })));
    }

    #[test]
    fn path_transitions_are_expands_and_joins() {
        let p = path(2); // 0-1-2
        let ts = transitions_into(&p, 0b111);
        let expands: Vec<_> = ts
            .iter()
            .filter(|t| matches!(t, Transition::Expand { .. }))
            .collect();
        // Remove 0 → from {1,2} expand 0 via edge 0; remove 2 → expand 2.
        // Removing 1 disconnects, so no star on the middle vertex.
        assert_eq!(expands.len(), 2);
        let joins: Vec<_> = ts
            .iter()
            .filter(|t| matches!(t, Transition::BinaryJoin { .. }))
            .collect();
        // {0,1} ⋈ {1,2} only.
        assert_eq!(joins.len(), 1);
        assert_eq!(
            joins[0],
            &Transition::BinaryJoin {
                left: 0b011,
                right: 0b110
            }
        );
    }

    #[test]
    fn single_edge_target_expands_from_both_sides() {
        let p = path(1);
        let ts = transitions_into(&p, 0b11);
        assert_eq!(ts.len(), 2, "expand from either endpoint (paper Fig. 3)");
        assert!(ts.iter().all(|t| matches!(t, Transition::Expand { .. })));
    }

    #[test]
    fn transitions_into_trivial_targets_empty() {
        let p = path(2);
        assert!(transitions_into(&p, 0b001).is_empty());
        assert!(transitions_into(&p, 0b101).is_empty(), "disconnected");
    }
}
