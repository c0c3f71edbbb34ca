//! Routing and control-state machinery for flat-tree networks (§4).
//!
//! * [`ksp`] — server-uplink splicing. Per §4.2.1's Observations 1 and
//!   2, paths are computed and cached at the **ingress/egress switch**
//!   level and spliced with the single server uplinks, which is both the
//!   paper's state-reduction trick and a large computational win.
//! * [`plane`] — the route plane: the one switch-pair table, precomputed
//!   in parallel (deterministically) or filled pair by pair. Each slot
//!   keeps its Yen footprint, the exact certificate for reusing the
//!   entry while links are down.
//! * [`addressing`] — the flat-tree IPv4 address layout of Figure 5:
//!   `10/8 | 13-bit switch id | 3-bit path id | 2-bit topology mode |
//!   6-bit server id`, with per-mode address sets preconfigured on every
//!   server and `/24` prefix aggregation at the ingress switch.
//! * [`source_routing`] — §4.2.2's OpenFlow-compatible source routing:
//!   the hop-by-hop output-port list packed into the 48-bit source MAC,
//!   with the TTL acting as the location pointer and per-TTL bit masks at
//!   transit switches.
//! * [`rules`] — OpenFlow rule synthesis and counting for both schemes,
//!   plus the network-state analysis of §4.2 (`n²kL/N` → `S²kL/N` →
//!   `S·k`). The rule *diffs* between modes drive the Table 3 conversion
//!   delay model in the `control` crate.

pub mod addressing;
pub mod ksp;
pub mod plane;
pub mod rules;
pub mod source_routing;

pub use addressing::{AddressPlan, FlatTreeAddress, TopologyModeId};
pub use plane::SharedRouteTable;
pub use rules::{Rule, RuleMatch, RuleSet, StateAnalysis};
