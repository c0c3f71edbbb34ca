//! Capacitated network-graph substrate for the flat-tree reproduction.
//!
//! This crate owns the lowest layer of the stack: a compact, index-based
//! directed graph of **nodes** (servers and switches) and **links**
//! (full-duplex cables modeled as two directed arcs), together with the
//! path algorithms every higher layer relies on:
//!
//! * [`dijkstra`] — single-source shortest paths (hop count or weighted),
//! * [`yen`] — Yen's k-shortest loopless paths (the paper routes on these),
//! * [`ecmp`] — deterministic hash-based selection among equal-cost
//!   shortest paths by counting and unranking on the switch graph (the
//!   Clos/ECMP baseline of §5.2), plus the enumeration oracle,
//! * [`metrics`] — diameter and average shortest-path length (§3.4 uses the
//!   average server-pair path length to profile the `(m, n)` split),
//! * [`switch_graph`] — the server-free switch graph and the
//!   word-parallel BFS that path length, diameter and the ECMP tables
//!   share.
//!
//! Nodes carry a [`NodeKind`] so that path algorithms can refuse to route
//! *through* servers: a server may only appear as the first or last hop of a
//! path, exactly like a NIC in a real data center.
//!
//! The graph is deliberately dependency-free and deterministic: node and
//! link ids are dense `u32` indices in insertion order, and every algorithm
//! breaks ties by smallest node id, so identical inputs produce identical
//! paths on every platform.
//!
//! # Example
//!
//! ```
//! use netgraph::{Graph, NodeKind};
//!
//! let mut g = Graph::new();
//! let a = g.add_node(NodeKind::EdgeSwitch, "e0");
//! let b = g.add_node(NodeKind::CoreSwitch, "c0");
//! let s = g.add_node(NodeKind::Server, "s0");
//! let t = g.add_node(NodeKind::Server, "s1");
//! g.add_duplex_link(s, a, 10.0);
//! g.add_duplex_link(a, b, 10.0);
//! g.add_duplex_link(b, t, 10.0);
//! let mut yen = netgraph::yen::Yen::new(&g);
//! let paths = yen.paths_avoiding(&g, s, t, 4, |_| false);
//! assert_eq!(paths.len(), 1);
//! assert_eq!(paths[0].nodes, vec![s, a, b, t]);
//! ```

pub mod arena;
pub mod components;
pub mod dijkstra;
pub mod dot;
pub mod ecmp;
pub mod graph;
pub mod metrics;
pub mod mincut;
pub mod path;
pub mod switch_graph;
pub mod yen;

pub use arena::{PathArena, PathId};
pub use graph::{Graph, LinkId, LinkInfo, NodeId, NodeInfo, NodeKind};
pub use path::Path;
