//! Weighted bipartite graphs and matchings.

use crate::error::GraphError;

/// A weighted bipartite graph `G = (U, V, E)` with `|U|` left vertices and
/// `|V|` right vertices.
///
/// # Examples
///
/// ```
/// use robustify_graph::BipartiteGraph;
///
/// # fn main() -> Result<(), robustify_graph::GraphError> {
/// let g = BipartiteGraph::new(2, 2, vec![(0, 0, 3.0), (0, 1, 1.0), (1, 1, 2.0)])?;
/// assert_eq!(g.edges().len(), 3);
/// assert_eq!(g.weight(0, 0), Some(3.0));
/// assert_eq!(g.weight(1, 0), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BipartiteGraph {
    nu: usize,
    nv: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl BipartiteGraph {
    /// Creates a bipartite graph from `(u, v, weight)` edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidGraph`] if either side is empty, an
    /// endpoint is out of range, a weight is non-finite, or an edge is
    /// duplicated.
    pub fn new(nu: usize, nv: usize, edges: Vec<(usize, usize, f64)>) -> Result<Self, GraphError> {
        if nu == 0 || nv == 0 {
            return Err(GraphError::invalid("both vertex sets must be non-empty"));
        }
        let mut seen = std::collections::HashSet::new();
        for &(u, v, w) in &edges {
            if u >= nu || v >= nv {
                return Err(GraphError::invalid(format!(
                    "edge ({u}, {v}) out of range for {nu}x{nv} graph"
                )));
            }
            if !w.is_finite() {
                return Err(GraphError::invalid(format!(
                    "edge ({u}, {v}) has weight {w}"
                )));
            }
            if !seen.insert((u, v)) {
                return Err(GraphError::invalid(format!("duplicate edge ({u}, {v})")));
            }
        }
        Ok(BipartiteGraph { nu, nv, edges })
    }

    /// Number of left vertices `|U|`.
    pub fn left_count(&self) -> usize {
        self.nu
    }

    /// Number of right vertices `|V|`.
    pub fn right_count(&self) -> usize {
        self.nv
    }

    /// The edge list as `(u, v, weight)` triples.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// The weight of edge `(u, v)` if present.
    pub fn weight(&self, u: usize, v: usize) -> Option<f64> {
        self.edges
            .iter()
            .find(|&&(eu, ev, _)| eu == u && ev == v)
            .map(|&(_, _, w)| w)
    }

    /// The dense `|U| × |V|` weight matrix, with `missing` (typically `0.0`
    /// or `f64::NEG_INFINITY`) for absent edges.
    pub fn weight_matrix(&self, missing: f64) -> Vec<Vec<f64>> {
        let mut w = vec![vec![missing; self.nv]; self.nu];
        for &(u, v, weight) in &self.edges {
            w[u][v] = weight;
        }
        w
    }

    /// Total weight of a candidate matching, or `None` if it uses a
    /// non-existent edge or repeats a vertex.
    pub fn matching_weight(&self, pairs: &[(usize, usize)]) -> Option<f64> {
        let mut used_u = std::collections::HashSet::new();
        let mut used_v = std::collections::HashSet::new();
        let mut total = 0.0;
        for &(u, v) in pairs {
            if !used_u.insert(u) || !used_v.insert(v) {
                return None;
            }
            total += self.weight(u, v)?;
        }
        Some(total)
    }
}

/// A matching: a set of vertex-disjoint edges with its total weight.
///
/// # Examples
///
/// ```
/// use robustify_graph::Matching;
///
/// let m = Matching::new(vec![(0, 1), (1, 0)], 5.0);
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.partner_of_left(0), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matching {
    pairs: Vec<(usize, usize)>,
    weight: f64,
}

impl Matching {
    /// Creates a matching from `(u, v)` pairs and a precomputed weight.
    pub fn new(mut pairs: Vec<(usize, usize)>, weight: f64) -> Self {
        pairs.sort_unstable();
        Matching { pairs, weight }
    }

    /// The matched `(u, v)` pairs, sorted by `u`.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Total matched weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the matching is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The partner of left vertex `u`, if matched.
    pub fn partner_of_left(&self, u: usize) -> Option<usize> {
        self.pairs.iter().find(|&&(pu, _)| pu == u).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> BipartiteGraph {
        BipartiteGraph::new(
            2,
            2,
            vec![(0, 0, 3.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)],
        )
        .expect("valid graph")
    }

    #[test]
    fn construction_validates() {
        assert!(BipartiteGraph::new(0, 2, vec![]).is_err());
        assert!(BipartiteGraph::new(2, 2, vec![(2, 0, 1.0)]).is_err());
        assert!(BipartiteGraph::new(2, 2, vec![(0, 2, 1.0)]).is_err());
        assert!(BipartiteGraph::new(2, 2, vec![(0, 0, f64::NAN)]).is_err());
        assert!(BipartiteGraph::new(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0)]).is_err());
    }

    #[test]
    fn weight_matrix_fills_missing() {
        let g = BipartiteGraph::new(2, 2, vec![(0, 1, 5.0)]).expect("valid graph");
        let w = g.weight_matrix(0.0);
        assert_eq!(w, vec![vec![0.0, 5.0], vec![0.0, 0.0]]);
    }

    #[test]
    fn matching_weight_checks_validity() {
        let g = diamond();
        assert_eq!(g.matching_weight(&[(0, 0), (1, 1)]), Some(6.0));
        assert_eq!(
            g.matching_weight(&[(0, 0), (1, 0)]),
            None,
            "repeated right vertex"
        );
        assert_eq!(
            g.matching_weight(&[(0, 0), (0, 1)]),
            None,
            "repeated left vertex"
        );
        let sparse = BipartiteGraph::new(2, 2, vec![(0, 0, 1.0)]).expect("valid graph");
        assert_eq!(sparse.matching_weight(&[(1, 1)]), None, "missing edge");
    }

    #[test]
    fn matching_accessors() {
        let m = Matching::new(vec![(1, 0), (0, 1)], 4.0);
        assert_eq!(m.pairs(), &[(0, 1), (1, 0)], "pairs are sorted");
        assert_eq!(m.weight(), 4.0);
        assert_eq!(m.partner_of_left(0), Some(1));
        assert_eq!(m.partner_of_left(2), None);
        assert!(!m.is_empty());
    }
}
