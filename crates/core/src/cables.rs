//! The cable plan of a configured flat-tree: the one statement of which
//! cables the fixed plant and the converter circuits plug in.
//!
//! [`FlatTree::instantiate_with_overrides`](crate::FlatTree::instantiate_with_overrides)
//! maps the plan onto graph nodes; `(m, n)` profiling feeds it straight
//! into the path-length kernel without building a graph.

use crate::converter::{ConverterConfig, CoreAttachment, ServerAttachment};
use crate::interpod::{pair_links, SideEnd};
use crate::layout::{ConverterInfo, Layout};
use crate::wiring::{core_of, ConnectorRole};
use topology::ClosParams;

/// One cable, with switches as dense indices (see [`Switches`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cable {
    /// Server `slot` of global edge `edge` (`pod · d + j`) plugs into
    /// `switch`.
    Server {
        edge: usize,
        slot: usize,
        switch: usize,
    },
    /// A switch–switch cable.
    Switch(usize, usize),
}

/// Dense switch indices in node-creation order: cores, then per pod its
/// edges and then its aggs. Core `c` is switch `c`.
#[derive(Debug)]
pub(crate) struct Switches {
    cores: usize,
    edges: usize,
    aggs: usize,
    pods: usize,
}

impl Switches {
    pub(crate) fn new(clos: &ClosParams) -> Self {
        Switches {
            cores: clos.num_cores,
            edges: clos.edges_per_pod,
            aggs: clos.aggs_per_pod,
            pods: clos.pods,
        }
    }

    pub(crate) fn count(&self) -> usize {
        self.cores + self.pods * (self.edges + self.aggs)
    }

    pub(crate) fn edge(&self, pod: usize, j: usize) -> usize {
        self.cores + pod * (self.edges + self.aggs) + j
    }

    pub(crate) fn agg(&self, pod: usize, i: usize) -> usize {
        self.edge(pod, self.edges + i)
    }
}

/// Calls `cable` for every cable of `layout` under `configs` (indexed by
/// converter id). Server cables come in the order fixed servers per edge,
/// then converter by converter; each converter or side-bundle circuit is
/// one cable, so parallel switch–switch cables repeat.
pub(crate) fn for_each_cable(
    layout: &Layout,
    configs: &[ConverterConfig],
    mut cable: impl FnMut(Cable),
) {
    let p = &layout.params;
    let clos = &p.clos;
    let sw = Switches::new(clos);
    let spliced = p.m + p.n;
    let per_pair = clos.edge_uplinks / clos.aggs_per_pod;
    for pod in 0..clos.pods {
        for j in 0..clos.edges_per_pod {
            let e = sw.edge(pod, j);
            let a = sw.agg(pod, j / clos.r());
            // Fixed servers (not spliced by any converter).
            for slot in spliced..clos.servers_per_edge {
                cable(Cable::Server {
                    edge: pod * clos.edges_per_pod + j,
                    slot,
                    switch: e,
                });
            }
            // Edge-agg fabric is untouched by conversion.
            for agg in 0..clos.aggs_per_pod {
                for _ in 0..per_pair {
                    cable(Cable::Switch(e, sw.agg(pod, agg)));
                }
            }
            // Direct (converter-free) aggregation core connectors.
            for t in 0..clos.h_over_r() - spliced {
                let c = core_of(p, p.wiring, pod, j, ConnectorRole::Agg(t));
                cable(Cable::Switch(a, c));
            }
        }
    }

    // Converter-driven links.
    for conv in &layout.converters {
        let cfg = configs[conv.id];
        debug_assert!(
            cfg.valid_for(conv.blade.kind()),
            "invalid config for blade {:?}",
            conv.blade
        );
        let e = sw.edge(conv.pod, conv.edge);
        let a = sw.agg(conv.pod, conv.agg);
        let c = conv.core;
        cable(Cable::Server {
            edge: conv.pod * clos.edges_per_pod + conv.edge,
            slot: conv.server_slot,
            switch: match cfg.server_attachment() {
                ServerAttachment::Edge => e,
                ServerAttachment::Agg => a,
                ServerAttachment::Core => c,
            },
        });
        match cfg.core_attachment() {
            CoreAttachment::Agg => cable(Cable::Switch(a, c)),
            CoreAttachment::Edge => cable(Cable::Switch(e, c)),
            CoreAttachment::Server => {} // covered by the server cable
        }
    }

    // Inter-pod side bundles (blade B only).
    let end = |conv: &ConverterInfo, end: SideEnd| match end {
        SideEnd::Edge => sw.edge(conv.pod, conv.edge),
        SideEnd::Agg => sw.agg(conv.pod, conv.agg),
    };
    for (right_id, left_id) in layout.side_pairs() {
        let right = &layout.converters[right_id];
        let left = &layout.converters[left_id];
        for &(r_end, l_end) in pair_links(configs[right_id], configs[left_id]) {
            cable(Cable::Switch(end(right, r_end), end(left, l_end)));
        }
    }
}
