//! Inter-pod side wiring (§3.3).
//!
//! "Converter switch `(i, j)` on the left of Pod `p+1` is connected to
//! converter switch `(i, (d/2 − 1 − j + i) % (d/2))` on the right of Pod
//! `p`" — the mirrored column shifted by the row index, so that converters
//! in the same column of one pod fan out to *different* columns of the
//! neighbor. The side connectors on one side of a pod are bundled into a
//! single multi-link connector that embeds this pattern, so plugging two
//! pods together is a single physical operation.

/// The right-side column of pod `p` that pairs with left-side column
/// `col_left` (row `row`) of pod `p+1`.
pub fn side_peer_column(row: usize, col_left: usize, cols_per_side: usize) -> usize {
    debug_assert!(col_left < cols_per_side);
    (cols_per_side - 1 - col_left + row) % cols_per_side
}

/// The inter-pod link endpoints produced by a side-connected converter
/// pair, given both configurations (§3.3: *side* pairs are peer-wise,
/// *cross* pairs connect edge to aggregation).
///
/// Returns a list of `(right_end, left_end)` picks where each end names
/// the local switch class the cable lands on.
pub fn pair_links(
    right_cfg: crate::ConverterConfig,
    left_cfg: crate::ConverterConfig,
) -> &'static [(SideEnd, SideEnd)] {
    use crate::ConverterConfig as C;
    match (right_cfg, left_cfg) {
        // Peer-wise: E–E′ and A–A′.
        (C::Side, C::Side) => &[(SideEnd::Edge, SideEnd::Edge), (SideEnd::Agg, SideEnd::Agg)],
        // Crossed: E–A′ and A–E′.
        (C::Cross, C::Cross) => &[(SideEnd::Edge, SideEnd::Agg), (SideEnd::Agg, SideEnd::Edge)],
        // A mixed side/cross pair would still form circuits in hardware,
        // but the architecture never programs it (row parity is shared by
        // both ends); in hybrid mode a side-active converter may face a
        // default/local peer, in which case the bundle stays dark.
        _ => &[],
    }
}

/// Which switch a side-bundle cable terminates on, relative to the
/// converter's own column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideEnd {
    /// The column's edge switch.
    Edge,
    /// The column's aggregation switch.
    Agg,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConverterConfig as C;

    #[test]
    fn shift_pattern_matches_paper_formula() {
        // d/2 = 4: left col j pairs with (4 - 1 - j + i) mod 4.
        assert_eq!(side_peer_column(0, 0, 4), 3);
        assert_eq!(side_peer_column(0, 3, 4), 0);
        assert_eq!(side_peer_column(1, 0, 4), 0);
        assert_eq!(side_peer_column(2, 3, 4), 2);
    }

    #[test]
    fn same_row_left_columns_map_to_distinct_right_columns() {
        for half in [1usize, 2, 3, 4, 8] {
            for row in 0..4 {
                let mut seen = std::collections::HashSet::new();
                for j in 0..half {
                    assert!(seen.insert(side_peer_column(row, j, half)));
                }
            }
        }
    }

    #[test]
    fn rows_shift_the_mapping() {
        // The same left column reaches different right columns on
        // different rows (that is the point of the shift).
        let cols: Vec<usize> = (0..4).map(|row| side_peer_column(row, 1, 4)).collect();
        let uniq: std::collections::HashSet<_> = cols.iter().collect();
        assert_eq!(uniq.len(), 4);
    }

    #[test]
    fn side_pairs_are_peerwise_cross_pairs_are_crossed() {
        assert_eq!(
            pair_links(C::Side, C::Side),
            vec![(SideEnd::Edge, SideEnd::Edge), (SideEnd::Agg, SideEnd::Agg)]
        );
        assert_eq!(
            pair_links(C::Cross, C::Cross),
            vec![(SideEnd::Edge, SideEnd::Agg), (SideEnd::Agg, SideEnd::Edge)]
        );
    }

    #[test]
    fn inactive_peers_leave_bundle_dark() {
        assert!(pair_links(C::Side, C::Default).is_empty());
        assert!(pair_links(C::Default, C::Default).is_empty());
        assert!(pair_links(C::Cross, C::Local).is_empty());
        assert!(pair_links(C::Side, C::Cross).is_empty());
    }
}
