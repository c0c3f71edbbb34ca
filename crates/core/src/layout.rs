//! Flat-tree pod layout: parameters and the converter-switch inventory
//! (§3.1, Figure 3).

use crate::converter::{Blade, ConverterConfig, PodSide};
use crate::interpod;
use crate::wiring::{core_of, ConnectorRole, WiringPattern};
use serde::{Deserialize, Serialize};
use topology::ClosParams;

/// Parameters of a flat-tree network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlatTreeParams {
    /// The underlying generic Clos layout (§3.1 starts from one).
    pub clos: ClosParams,
    /// 6-port converters per (edge, agg) column pair — servers that can be
    /// relocated to **core** switches.
    pub m: usize,
    /// 4-port converters per column pair — servers that can be relocated
    /// to **aggregation** switches.
    pub n: usize,
    /// Pod–core rotation rule (§3.2).
    pub wiring: WiringPattern,
    /// Whether the inter-pod side wiring closes into a ring (pod `P-1`
    /// connects to pod `0`). The paper only specifies "adjacent Pods"; the
    /// ring keeps all pods symmetric and is the default.
    pub wrap_side_links: bool,
}

impl FlatTreeParams {
    /// Convenience constructor with the recommended wiring pattern and
    /// ring side wiring.
    pub fn new(clos: ClosParams, m: usize, n: usize) -> Self {
        let wiring = WiringPattern::recommended(m, clos.h_over_r().max(1));
        Self {
            clos,
            m,
            n,
            wiring,
            wrap_side_links: true,
        }
    }

    /// Validates flat-tree-specific constraints on top of
    /// [`ClosParams::validate`].
    pub fn validate(&self) -> Result<(), String> {
        self.clos.validate()?;
        if !self.clos.edges_per_pod.is_multiple_of(2) {
            return Err("flat-tree pods need an even number of edge switches \
                        (converters sit on two symmetric sides, §3.1)"
                .into());
        }
        if self.m + self.n == 0 {
            return Err("m + n must be positive, or the network cannot convert".into());
        }
        if self.m + self.n > self.clos.servers_per_edge {
            return Err(format!(
                "m + n = {} exceeds servers_per_edge = {}: each converter \
                 splices one edge–server cable",
                self.m + self.n,
                self.clos.servers_per_edge
            ));
        }
        if self.m >= self.clos.h_over_r() {
            return Err(format!(
                "m = {} must be strictly below h/r = {}: if every core \
                 connector of an edge's share carried a relocated server, \
                 core switches would lose all switch-level connectivity in \
                 global mode",
                self.m,
                self.clos.h_over_r()
            ));
        }
        if self.m + self.n > self.clos.h_over_r() {
            return Err(format!(
                "m + n = {} exceeds h/r = {}: each converter splices one \
                 agg–core cable of the edge's share (§3.2)",
                self.m + self.n,
                self.clos.h_over_r()
            ));
        }
        if self.clos.pods < 2 {
            return Err("flat-tree needs at least 2 pods for side wiring".into());
        }
        // Global-mode feasibility of the chosen wiring pattern: every core
        // must receive at least one blade-A or aggregation connector, or it
        // would carry only relocated servers and fall off the switch
        // fabric. (This is the quantitative form of §3.2's "wiring
        // diversity" concern: e.g. Pattern 2 with m+1 sharing a factor
        // with h/r can stack blade-B connectors on the same cores.)
        let counts = crate::wiring::link_type_counts_per_core(self, self.wiring);
        if let Some((core, _)) = counts.iter().enumerate().find(|(_, c)| c.1 + c.2 == 0) {
            return Err(format!(
                "wiring {:?} leaves core {core} with only relocated-server                  connectors; pick the other pattern or different (m, n)",
                self.wiring
            ));
        }
        Ok(())
    }

    /// Columns per pod side, `d/2`.
    pub fn cols_per_side(&self) -> usize {
        self.clos.edges_per_pod / 2
    }

    /// Total converter switches in the network.
    pub fn total_converters(&self) -> usize {
        self.clos.pods * self.clos.edges_per_pod * (self.m + self.n)
    }
}

/// One converter switch's static position in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConverterInfo {
    /// Dense id, index into [`Layout::converters`].
    pub id: usize,
    /// Pod index.
    pub pod: usize,
    /// Blade (A = 4-port, B = 6-port).
    pub blade: Blade,
    /// Row within the blade matrix (`0..n` for A, `0..m` for B).
    pub row: usize,
    /// Column within the pod side (`0..d/2`).
    pub col: usize,
    /// Pod side.
    pub side: PodSide,
    /// Edge index within the pod this column serves (`col` on the left
    /// side, `col + d/2` on the right).
    pub edge: usize,
    /// Aggregation index within the pod (`edge / r`).
    pub agg: usize,
    /// Which of the edge's server slots this converter splices
    /// (blade B row `i` takes slot `i`; blade A row `i` takes slot `m+i`).
    pub server_slot: usize,
    /// Global index of the core switch wired to this converter's core
    /// connector (resolved from the §3.2 wiring pattern).
    pub core: usize,
}

/// The full converter inventory of a flat-tree network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Layout {
    /// Validated parameters.
    pub params: FlatTreeParams,
    /// Every converter switch, in deterministic order
    /// (pod-major, left side then right, blade B rows then blade A rows,
    /// column-minor).
    pub converters: Vec<ConverterInfo>,
}

impl Layout {
    /// Enumerates all converters for `params` (must validate).
    pub fn new(params: FlatTreeParams) -> Result<Self, String> {
        params.validate()?;
        let d = params.clos.edges_per_pod;
        let half = params.cols_per_side();
        let r = params.clos.r();
        let mut converters = Vec::with_capacity(params.total_converters());
        for pod in 0..params.clos.pods {
            for side in [PodSide::Left, PodSide::Right] {
                for col in 0..half {
                    let edge = match side {
                        PodSide::Left => col,
                        PodSide::Right => col + half,
                    };
                    debug_assert!(edge < d);
                    for row in 0..params.m {
                        let id = converters.len();
                        converters.push(ConverterInfo {
                            id,
                            pod,
                            blade: Blade::B,
                            row,
                            col,
                            side,
                            edge,
                            agg: edge / r,
                            server_slot: row,
                            core: core_of(
                                &params,
                                params.wiring,
                                pod,
                                edge,
                                ConnectorRole::BladeB(row),
                            ),
                        });
                    }
                    for row in 0..params.n {
                        let id = converters.len();
                        converters.push(ConverterInfo {
                            id,
                            pod,
                            blade: Blade::A,
                            row,
                            col,
                            side,
                            edge,
                            agg: edge / r,
                            server_slot: params.m + row,
                            core: core_of(
                                &params,
                                params.wiring,
                                pod,
                                edge,
                                ConnectorRole::BladeA(row),
                            ),
                        });
                    }
                }
            }
        }
        Ok(Layout { params, converters })
    }

    /// Finds the blade-B converter at `(pod, side, row, col)`: its id
    /// follows from the converter order,
    /// `((pod · 2 + side) · d/2 + col) · (m + n) + row`.
    /// Panics if out of range — internal wiring code only.
    pub fn blade_b(&self, pod: usize, side: PodSide, row: usize, col: usize) -> &ConverterInfo {
        let p = &self.params;
        let half = p.cols_per_side();
        assert!(
            pod < p.clos.pods && row < p.m && col < half,
            "blade-B converter out of range"
        );
        let s = match side {
            PodSide::Left => 0,
            PodSide::Right => 1,
        };
        let conv = &self.converters[((pod * 2 + s) * half + col) * (p.m + p.n) + row];
        debug_assert!(
            conv.blade == Blade::B
                && (conv.pod, conv.side, conv.row, conv.col) == (pod, side, row, col),
            "converter order broken at {conv:?}"
        );
        conv
    }

    /// All inter-pod side pairs `(right converter id, left converter id)`,
    /// i.e. (pod p right blade B) ↔ (pod p+1 left blade B), following the
    /// §3.3 shifting pattern. See [`interpod::side_peer_column`].
    pub fn side_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let p = &self.params;
        let pods = p.clos.pods;
        let half = p.cols_per_side();
        let boundaries = if p.wrap_side_links {
            pods
        } else {
            pods.saturating_sub(1)
        };
        (0..boundaries).flat_map(move |pod| {
            (0..p.m).flat_map(move |row| {
                (0..half).map(move |col_left| {
                    let col_right = interpod::side_peer_column(row, col_left, half);
                    let right = self.blade_b(pod, PodSide::Right, row, col_right);
                    let left = self.blade_b((pod + 1) % pods, PodSide::Left, row, col_left);
                    (right.id, left.id)
                })
            })
        })
    }

    /// The §3.3 row-parity rule: the configuration a blade-B converter
    /// takes in global mode.
    pub fn global_mode_config(&self, conv: &ConverterInfo) -> ConverterConfig {
        debug_assert_eq!(conv.blade, Blade::B);
        if conv.row.is_multiple_of(2) {
            ConverterConfig::Side
        } else {
            ConverterConfig::Cross
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap()
    }

    #[test]
    fn converter_count_matches_formula() {
        let l = layout();
        assert_eq!(l.converters.len(), l.params.total_converters());
        // mini: 4 pods * 4 edges * (1+1) = 32 converters.
        assert_eq!(l.converters.len(), 32);
    }

    #[test]
    fn every_edge_has_m_plus_n_converters() {
        let l = layout();
        for pod in 0..4 {
            for edge in 0..4 {
                let c = l
                    .converters
                    .iter()
                    .filter(|c| c.pod == pod && c.edge == edge)
                    .count();
                assert_eq!(c, 2);
            }
        }
    }

    #[test]
    fn server_slots_are_disjoint_per_edge() {
        let l = layout();
        for pod in 0..4 {
            for edge in 0..4 {
                let mut slots: Vec<usize> = l
                    .converters
                    .iter()
                    .filter(|c| c.pod == pod && c.edge == edge)
                    .map(|c| c.server_slot)
                    .collect();
                slots.sort();
                assert_eq!(slots, vec![0, 1]);
            }
        }
    }

    #[test]
    fn side_pairs_cover_all_blade_b_once_with_wrap() {
        let l = layout();
        let pairs: Vec<_> = l.side_pairs().collect();
        // 4 pod boundaries (ring) * m=1 * d/2=2 columns = 8 pairs.
        assert_eq!(pairs.len(), 8);
        let mut used = std::collections::HashSet::new();
        for (a, b) in &pairs {
            assert!(used.insert(*a), "converter {a} in two pairs");
            assert!(used.insert(*b), "converter {b} in two pairs");
            assert_eq!(l.converters[*a].side, PodSide::Right);
            assert_eq!(l.converters[*b].side, PodSide::Left);
        }
        // Every blade-B converter participates exactly once in the ring.
        let blade_b_count = l.converters.iter().filter(|c| c.blade == Blade::B).count();
        assert_eq!(used.len(), blade_b_count);
    }

    #[test]
    fn side_pairs_without_wrap_skip_last_boundary() {
        let mut p = FlatTreeParams::new(ClosParams::mini(), 1, 1);
        p.wrap_side_links = false;
        let l = Layout::new(p).unwrap();
        assert_eq!(l.side_pairs().count(), 6); // 3 boundaries * 2 columns
    }

    #[test]
    fn blade_b_lookup_matches_the_inventory() {
        let clos_params = [
            (ClosParams::mini(), 1, 1),
            (ClosParams::mini(), 2, 1),
            (topology::fat_tree(8), 2, 1),
            (topology::fat_tree(12), 2, 3),
            (topology::fat_tree(12), 3, 0),
        ];
        for (clos, m, n) in clos_params {
            for wrap in [true, false] {
                let mut p = FlatTreeParams::new(clos, m, n);
                p.wrap_side_links = wrap;
                let l = Layout::new(p).unwrap();
                for c in l.converters.iter().filter(|c| c.blade == Blade::B) {
                    assert_eq!(l.blade_b(c.pod, c.side, c.row, c.col).id, c.id, "{c:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "blade-B converter out of range")]
    fn blade_b_lookup_rejects_blade_a_rows() {
        layout().blade_b(0, PodSide::Left, 1, 0);
    }

    #[test]
    fn global_config_follows_row_parity() {
        let l = Layout::new(FlatTreeParams::new(
            ClosParams {
                servers_per_edge: 8,
                ..ClosParams::mini()
            },
            2,
            1,
        ))
        .unwrap();
        for c in l.converters.iter().filter(|c| c.blade == Blade::B) {
            let cfg = l.global_mode_config(c);
            if c.row % 2 == 0 {
                assert_eq!(cfg, ConverterConfig::Side);
            } else {
                assert_eq!(cfg, ConverterConfig::Cross);
            }
        }
    }

    #[test]
    fn validation_rejects_bad_params() {
        // odd d
        let clos = ClosParams {
            edges_per_pod: 3,
            aggs_per_pod: 3,
            edge_uplinks: 3,
            num_cores: 12,
            ..ClosParams::mini()
        };
        assert!(FlatTreeParams::new(clos, 1, 1).validate().is_err());
        // m + n too large for h/r
        let p = FlatTreeParams::new(ClosParams::mini(), 3, 2); // h/r = 4
        assert!(p.validate().is_err());
        // m + n = 0
        let p = FlatTreeParams::new(ClosParams::mini(), 0, 0);
        assert!(p.validate().is_err());
    }
}
