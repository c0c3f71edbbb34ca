//! # flat_tree — the convertible data center network architecture
//!
//! Faithful implementation of *A Tale of Two Topologies: Exploring
//! Convertible Data Center Network Architectures with Flat-tree*
//! (SIGCOMM 2017).
//!
//! A flat-tree starts from a generic Clos network
//! ([`topology::ClosParams`]) and augments every pod with two *blades* of
//! small port-count circuit ("converter") switches:
//!
//! * **blade A** — an `n × d/2` matrix of 4-port converters per pod side,
//! * **blade B** — an `m × d/2` matrix of 6-port converters per pod side,
//!
//! where `d` is the number of edge switches per pod (§3.1). Each converter
//! in column `j` splices into one edge–server cable of edge switch `E_j`
//! and one aggregation–core cable of `A_{j/r}`. Re-programming the
//! converters re-wires the network *as if the cables were manually
//! re-plugged*, which is how one physical plant converts between:
//!
//! * **Clos mode** — all converters in the `default` configuration,
//! * **global mode** — an approximate network-wide random graph
//!   (4-port `local`, 6-port `side`/`cross` by row parity),
//! * **local mode** — an approximate two-stage random graph
//!   (half of each edge's servers relocated to the aggregation layer),
//! * **hybrid mode** — any per-pod combination of the above (§3.5).
//!
//! The two pod–core wiring patterns of §3.2 and the shifting inter-pod
//! side wiring of §3.3 are implemented in [`wiring`] and [`interpod`];
//! their Properties 1 and 2 are checked in tests.
//!
//! # Quick start
//!
//! ```
//! use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
//! use topology::ClosParams;
//!
//! let params = FlatTreeParams::new(ClosParams::mini(), 1, 1);
//! let ft = FlatTree::new(params).unwrap();
//! let clos = ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Clos));
//! let global = ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Global));
//! // Node ids are stable across modes; only the link set changes.
//! assert_eq!(clos.net.servers, global.net.servers);
//! ```

pub mod build;
mod cables;
pub mod converter;
pub mod interpod;
pub mod invariants;
pub mod layout;
pub mod modes;
pub mod profile;
pub mod wiring;

pub use build::{FlatTree, FlatTreeInstance};
pub use converter::{Blade, ConverterConfig, ConverterKind, PodSide};
pub use layout::{ConverterInfo, FlatTreeParams, Layout};
pub use modes::{ModeAssignment, PodMode};
pub use wiring::WiringPattern;
