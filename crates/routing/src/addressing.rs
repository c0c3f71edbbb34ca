//! The flat-tree addressing scheme (§4.2.1, Figure 5).
//!
//! Every server is preconfigured, at deployment time, with one IPv4
//! address per (topology mode, path id) pair inside `10.0.0.0/8`:
//!
//! ```text
//! 8 bits   13 bits     3 bits    2 bits   6 bits
//! 00001010 | switch id | path id | mode | server id
//! ```
//!
//! MPTCP establishes subflows via multi-homing, so the number of
//! addresses per mode is `ceil(sqrt(k))` for k-shortest-path routing, and
//! MPTCP's property of only sending on *routable* addresses lets all
//! modes' addresses coexist on the NIC while the controller loads routing
//! logic for the active subset only. Matching the first 24 bits
//! (`prefix | switch | path`) aggregates all servers of an ingress switch
//! into one rule.

use flat_tree::FlatTreeInstance;
use netgraph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// 2-bit topology mode field (Figure 5a supports 3 values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyModeId {
    /// Global mode addresses (value 0 in Figure 5c).
    Global = 0,
    /// Local mode addresses (value 1).
    Local = 1,
    /// Clos mode addresses (value 2).
    Clos = 2,
}

impl TopologyModeId {
    /// All defined mode ids.
    pub const ALL: [TopologyModeId; 3] = [
        TopologyModeId::Global,
        TopologyModeId::Local,
        TopologyModeId::Clos,
    ];

    fn from_bits(v: u32) -> Option<Self> {
        match v {
            0 => Some(Self::Global),
            1 => Some(Self::Local),
            2 => Some(Self::Clos),
            _ => None,
        }
    }
}

/// A decoded flat-tree address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlatTreeAddress {
    /// Ingress/egress switch id (13 bits, ≤ 8191). Unique per switch and
    /// *stable across topology conversion*.
    pub switch_id: u16,
    /// Path id within the k-shortest paths (3 bits, ≤ 7): which of the
    /// server's MPTCP addresses this is.
    pub path_id: u8,
    /// Topology mode the address routes under.
    pub mode: TopologyModeId,
    /// Server index under the ingress switch (6 bits, ≤ 63).
    pub server_id: u8,
}

impl FlatTreeAddress {
    /// Packs into the `10.0.0.0/8` IPv4 layout of Figure 5a.
    pub fn encode(&self) -> Ipv4Addr {
        assert!(self.switch_id < (1 << 13), "switch id exceeds 13 bits");
        assert!(self.path_id < (1 << 3), "path id exceeds 3 bits");
        assert!(self.server_id < (1 << 6), "server id exceeds 6 bits");
        let v: u32 = (10u32 << 24)
            | ((self.switch_id as u32) << 11)
            | ((self.path_id as u32) << 8)
            | ((self.mode as u32) << 6)
            | (self.server_id as u32);
        Ipv4Addr::from(v)
    }

    /// Decodes an address; `None` if outside `10/8` or an undefined mode.
    pub fn decode(ip: Ipv4Addr) -> Option<Self> {
        let v = u32::from(ip);
        if v >> 24 != 10 {
            return None;
        }
        Some(Self {
            switch_id: ((v >> 11) & 0x1fff) as u16,
            path_id: ((v >> 8) & 0x7) as u8,
            mode: TopologyModeId::from_bits((v >> 6) & 0x3)?,
            server_id: (v & 0x3f) as u8,
        })
    }

    /// The 24-bit prefix matched at ingress/egress switches
    /// (`prefix | switch id | path id`).
    pub fn prefix24(&self) -> u32 {
        u32::from(self.encode()) >> 8
    }
}

/// Number of IP addresses a server needs per mode for k concurrent paths:
/// MPTCP full-mesh gives `a²` subflows from `a` addresses per end, so
/// `a = ceil(sqrt(k))` (§4.1).
pub fn addresses_for_k(k: usize) -> usize {
    assert!((1..=64).contains(&k), "3-bit path field supports k <= 64");
    (1..=8).find(|a| a * a >= k).expect("k <= 64")
}

/// The complete preconfigured address plan of a flat-tree deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AddressPlan {
    /// `k` per mode (each topology may favor a different k, Figure 5b).
    pub k_per_mode: HashMap<TopologyModeId, usize>,
    /// All addresses per server node, across all modes.
    pub server_addrs: HashMap<NodeId, Vec<FlatTreeAddress>>,
}

impl AddressPlan {
    /// Builds the plan from one instantiated network per mode.
    ///
    /// Switch ids are node ids (stable across modes by construction);
    /// server ids order the servers under each ingress switch by node id
    /// ("ordered from left to right", Figure 5b).
    pub fn build(
        instances: &[(TopologyModeId, &FlatTreeInstance)],
        k_per_mode: &HashMap<TopologyModeId, usize>,
    ) -> Self {
        let mut server_addrs: HashMap<NodeId, Vec<FlatTreeAddress>> = HashMap::new();
        for (mode, inst) in instances {
            let k = *k_per_mode.get(mode).unwrap_or(&8);
            let num_addrs = addresses_for_k(k);
            // Server id = rank under the ingress switch.
            let g = &inst.net.graph;
            let mut rank: HashMap<NodeId, u8> = HashMap::new();
            let mut next: HashMap<NodeId, u8> = HashMap::new();
            for &s in &inst.net.servers {
                let sw = inst.ingress_switch(s);
                let r = next.entry(sw).or_insert(0);
                rank.insert(s, *r);
                *r = r
                    .checked_add(1)
                    .expect("more than 255 servers under a switch");
            }
            for &s in &inst.net.servers {
                let sw = inst.ingress_switch(s);
                let sid = rank[&s];
                assert!(sid < 64, "6-bit server field supports 64 per switch");
                assert!(g.node(sw).kind.is_switch());
                for path_id in 0..num_addrs as u8 {
                    server_addrs.entry(s).or_default().push(FlatTreeAddress {
                        switch_id: sw.0 as u16,
                        path_id,
                        mode: *mode,
                        server_id: sid,
                    });
                }
            }
        }
        Self {
            k_per_mode: k_per_mode.clone(),
            server_addrs,
        }
    }

    /// Addresses of `server` that are routable under `mode`.
    pub fn addresses(&self, server: NodeId, mode: TopologyModeId) -> Vec<FlatTreeAddress> {
        self.server_addrs
            .get(&server)
            .map(|v| v.iter().filter(|a| a.mode == mode).copied().collect())
            .unwrap_or_default()
    }
}

/// Checks the aggregation invariant used by ingress-switch prefix rules:
/// all addresses of all servers under one switch share a /24 per path id.
pub fn verify_prefix_aggregation(
    g: &Graph,
    plan: &AddressPlan,
    mode: TopologyModeId,
) -> Result<(), String> {
    let mut by_prefix: HashMap<u32, NodeId> = HashMap::new();
    for (&server, addrs) in &plan.server_addrs {
        let sw = g
            .server_uplink_switch(server)
            .ok_or_else(|| format!("{server:?} detached"))?;
        for a in addrs.iter().filter(|a| a.mode == mode) {
            if a.switch_id != sw.0 as u16 {
                // Address of a *different* mode's attachment: skip, it is
                // not routable here (checked by the caller building per
                // mode).
                continue;
            }
            match by_prefix.insert(a.prefix24(), sw) {
                Some(prev) if prev != sw => {
                    return Err(format!(
                        "prefix {:x} spans switches {prev:?} and {sw:?}",
                        a.prefix24()
                    ))
                }
                _ => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_tree::{FlatTree, FlatTreeParams, ModeAssignment, PodMode};
    use topology::ClosParams;

    #[test]
    fn encode_decode_roundtrip() {
        let a = FlatTreeAddress {
            switch_id: 3,
            path_id: 1,
            mode: TopologyModeId::Global,
            server_id: 2,
        };
        let ip = a.encode();
        assert_eq!(FlatTreeAddress::decode(ip), Some(a));
    }

    #[test]
    fn figure_5c_examples() {
        // Figure 5c row 2: switch 3, path 1, global (0), server 2
        // = 10.0.25.2 (binary 00001010 0000000000011 001 00 000010).
        let a = FlatTreeAddress {
            switch_id: 3,
            path_id: 1,
            mode: TopologyModeId::Global,
            server_id: 2,
        };
        assert_eq!(a.encode(), Ipv4Addr::new(10, 0, 25, 2));
        // Local-mode row: switch 8, path 1, local (1), server 1
        // = 10.0.65.65.
        let b = FlatTreeAddress {
            switch_id: 8,
            path_id: 1,
            mode: TopologyModeId::Local,
            server_id: 1,
        };
        assert_eq!(b.encode(), Ipv4Addr::new(10, 0, 65, 65));
        // Clos-mode row: switch 5, path 1, clos (2), server 0
        // = 10.0.41.128.
        let c = FlatTreeAddress {
            switch_id: 5,
            path_id: 1,
            mode: TopologyModeId::Clos,
            server_id: 0,
        };
        assert_eq!(c.encode(), Ipv4Addr::new(10, 0, 41, 128));
    }

    #[test]
    fn address_count_is_sqrt_of_k() {
        assert_eq!(addresses_for_k(1), 1);
        assert_eq!(addresses_for_k(4), 2);
        assert_eq!(addresses_for_k(8), 3); // Figure 5: k=8 -> 3 addresses
        assert_eq!(addresses_for_k(16), 4);
        assert_eq!(addresses_for_k(64), 8);
    }

    #[test]
    fn decode_rejects_foreign_and_bad_mode() {
        assert!(FlatTreeAddress::decode(Ipv4Addr::new(192, 168, 0, 1)).is_none());
        // mode bits = 3 is undefined.
        let bad = (10u32 << 24) | (3 << 6);
        assert!(FlatTreeAddress::decode(Ipv4Addr::from(bad)).is_none());
    }

    fn plan() -> (AddressPlan, Vec<FlatTreeInstance>) {
        let ft = FlatTree::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap();
        let insts: Vec<FlatTreeInstance> = [PodMode::Global, PodMode::Local, PodMode::Clos]
            .into_iter()
            .map(|m| ft.instantiate(&ModeAssignment::uniform(4, m)))
            .collect();
        let mut k = HashMap::new();
        k.insert(TopologyModeId::Global, 8);
        k.insert(TopologyModeId::Local, 8);
        k.insert(TopologyModeId::Clos, 4);
        let refs: Vec<(TopologyModeId, &FlatTreeInstance)> = vec![
            (TopologyModeId::Global, &insts[0]),
            (TopologyModeId::Local, &insts[1]),
            (TopologyModeId::Clos, &insts[2]),
        ];
        (AddressPlan::build(&refs, &k), insts)
    }

    #[test]
    fn plan_covers_all_servers_and_modes() {
        let (plan, insts) = plan();
        assert_eq!(plan.server_addrs.len(), 64);
        // Per server: 3 (global, k=8) + 3 (local) + 2 (clos, k=4) = 8.
        for addrs in plan.server_addrs.values() {
            assert_eq!(addrs.len(), 8);
        }
        // Relocated server's global-mode address names its *core* switch.
        let s = insts[0].edge_servers[0][0];
        let addr = plan.addresses(s, TopologyModeId::Global)[0];
        assert_eq!(addr.switch_id as u32, insts[0].ingress_switch(s).0);
    }

    #[test]
    fn prefixes_aggregate_per_switch() {
        let (plan, insts) = plan();
        verify_prefix_aggregation(&insts[0].net.graph, &plan, TopologyModeId::Global).unwrap();
        verify_prefix_aggregation(&insts[1].net.graph, &plan, TopologyModeId::Local).unwrap();
        verify_prefix_aggregation(&insts[2].net.graph, &plan, TopologyModeId::Clos).unwrap();
    }
}
