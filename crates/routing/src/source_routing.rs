//! OpenFlow-compatible source routing (§4.2.2).
//!
//! The hop-by-hop list of output ports is encoded into the 48-bit source
//! MAC address; the TTL field acts as the location pointer. A transit
//! switch at TTL `t` applies the byte mask for hop `255 − t`, extracts
//! the port number, forwards, and the TTL decrement moves the pointer.
//! Flat-tree's switch diameter is small (< 3 switch hops on average), so
//! 6 bytes cover 6 hops of up to 256 ports each — enough headroom.
//!
//! Transit switches need only `D × C` static rules (diameter × port
//! count), independent of the topology mode, so these rules are installed
//! once and survive conversion.

use bytes::BufMut;
use netgraph::{Graph, NodeId, Path};
use serde::{Deserialize, Serialize};

/// Maximum number of switch hops encodable in a MAC address.
pub const MAX_HOPS: usize = 6;

/// TTL value carried by a packet entering its first switch.
pub const INITIAL_TTL: u8 = 255;

/// A packet header as far as source routing is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceRouteHeader {
    /// Source MAC carrying the encoded port list.
    pub mac: [u8; 6],
    /// Remaining TTL.
    pub ttl: u8,
}

/// Encodes a list of per-hop output ports into a MAC address.
/// Unused trailing bytes are zero.
pub fn encode_ports(ports: &[u8]) -> [u8; 6] {
    assert!(ports.len() <= MAX_HOPS, "at most {MAX_HOPS} hops fit a MAC");
    let mut mac = [0u8; 6];
    let mut buf = &mut mac[..];
    for &p in ports {
        buf.put_u8(p);
    }
    mac
}

/// The byte mask a switch applies at a given TTL (cf. the paper's example:
/// TTL 253 = third hop = mask `00:00:ff:00:00:00`). Returns `None` when
/// the packet has exceeded the encodable hop count.
fn mask_for_ttl(ttl: u8) -> Option<[u8; 6]> {
    let hop = (INITIAL_TTL - ttl) as usize;
    if hop >= MAX_HOPS {
        return None;
    }
    let mut m = [0u8; 6];
    m[hop] = 0xff;
    Some(m)
}

/// The output port a transit switch extracts for a header.
fn port_for(header: &SourceRouteHeader) -> Option<u8> {
    let mask = mask_for_ttl(header.ttl)?;
    let hop = (INITIAL_TTL - header.ttl) as usize;
    debug_assert_eq!(mask[hop], 0xff);
    Some(header.mac[hop])
}

/// Compiles a path into the per-hop output-port list, numbering each
/// switch's ports by adjacency order (the physical port index).
///
/// The path must start and end at servers; the ports listed are those of
/// the switches in between (the ingress switch's port toward the second
/// switch, etc., ending with the egress switch's port toward the server).
pub fn compile_path(g: &Graph, path: &Path) -> Result<Vec<u8>, String> {
    if path.nodes.len() < 3 {
        return Err("source routes need at least one switch hop".into());
    }
    let switch_count = path.nodes.len() - 2;
    if switch_count > MAX_HOPS {
        return Err(format!("{switch_count} switch hops exceed {MAX_HOPS}"));
    }
    let mut ports = Vec::with_capacity(switch_count);
    for i in 1..path.nodes.len() - 1 {
        let sw = path.nodes[i];
        let next = path.nodes[i + 1];
        let port = g
            .neighbors(sw)
            .iter()
            .position(|&(v, _)| v == next)
            .ok_or_else(|| format!("no port from {sw:?} to {next:?}"))?;
        if port > 255 {
            return Err(format!("switch {sw:?} port {port} exceeds 8 bits"));
        }
        ports.push(port as u8);
    }
    Ok(ports)
}

/// A forwarding engine that executes source routing with only the static
/// per-TTL rules — used to *prove* the encoded path is followed.
///
/// Starting at the ingress switch with [`INITIAL_TTL`], each switch
/// extracts its port, forwards, and decrements the TTL. Returns the node
/// sequence visited (switches + final endpoint).
pub fn forward(
    g: &Graph,
    ingress: NodeId,
    header: SourceRouteHeader,
    hops: usize,
) -> Result<Vec<NodeId>, String> {
    let mut visited = vec![ingress];
    let mut at = ingress;
    let mut h = header;
    for _ in 0..hops {
        let port = port_for(&h).ok_or("TTL exhausted the encodable hops")? as usize;
        let nbrs = g.neighbors(at);
        let &(next, _) = nbrs
            .get(port)
            .ok_or_else(|| format!("switch {at:?} has no port {port}"))?;
        visited.push(next);
        at = next;
        h.ttl -= 1;
    }
    Ok(visited)
}

/// Number of static OpenFlow rules per transit switch: one per
/// (TTL, output port) combination (§4.2.2: `D × C`), pinning the paper's
/// rule budget.
#[cfg(test)]
fn transit_rules_per_switch(diameter: usize, port_count: usize) -> usize {
    diameter * port_count
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Buf;

    /// Decodes the first `n` hop ports back out of a MAC address: the
    /// reference `encode_ports` is checked against.
    fn decode_ports(mac: &[u8; 6], n: usize) -> Vec<u8> {
        assert!(n <= MAX_HOPS);
        let mut buf = &mac[..];
        (0..n).map(|_| buf.get_u8()).collect()
    }
    use netgraph::NodeKind;

    fn line() -> (Graph, Path) {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::Server, "s");
        let a = g.add_node(NodeKind::EdgeSwitch, "a");
        let b = g.add_node(NodeKind::CoreSwitch, "b");
        let c = g.add_node(NodeKind::EdgeSwitch, "c");
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(s, a, 10.0);
        g.add_duplex_link(a, b, 10.0);
        g.add_duplex_link(b, c, 10.0);
        g.add_duplex_link(c, t, 10.0);
        let p = Path::from_nodes(&g, &[s, a, b, c, t]).unwrap();
        (g, p)
    }

    #[test]
    fn ports_roundtrip_mac() {
        let ports = vec![7u8, 255, 0, 13];
        let mac = encode_ports(&ports);
        assert_eq!(decode_ports(&mac, 4), ports);
        assert_eq!(mac[4], 0);
    }

    #[test]
    fn mask_matches_paper_example() {
        // TTL 253 = third hop -> mask 00:00:ff:00:00:00.
        assert_eq!(mask_for_ttl(253), Some([0, 0, 0xff, 0, 0, 0]));
        assert_eq!(mask_for_ttl(255), Some([0xff, 0, 0, 0, 0, 0]));
        assert_eq!(mask_for_ttl(249), None); // 7th hop, out of MAC bits
    }

    #[test]
    fn forwarding_follows_the_encoded_path() {
        let (g, p) = line();
        let ports = compile_path(&g, &p).unwrap();
        let header = SourceRouteHeader {
            mac: encode_ports(&ports),
            ttl: INITIAL_TTL,
        };
        let visited = forward(&g, p.nodes[1], header, ports.len()).unwrap();
        assert_eq!(visited, p.nodes[1..].to_vec());
    }

    #[test]
    fn compile_rejects_long_paths() {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::Server, "s");
        let mut prev = g.add_node(NodeKind::GenericSwitch, "w0");
        g.add_duplex_link(s, prev, 10.0);
        let mut nodes = vec![s, prev];
        for i in 1..8 {
            let w = g.add_node(NodeKind::GenericSwitch, format!("w{i}"));
            g.add_duplex_link(prev, w, 10.0);
            nodes.push(w);
            prev = w;
        }
        let t = g.add_node(NodeKind::Server, "t");
        g.add_duplex_link(prev, t, 10.0);
        nodes.push(t);
        let p = Path::from_nodes(&g, &nodes).unwrap();
        assert!(compile_path(&g, &p).is_err());
    }

    #[test]
    fn rule_budget_matches_paper_claim() {
        // "at most a thousand, far below the capacity of an OpenFlow
        // switch": diameter 6, 256 ports -> 1536 static rules; for
        // flat-tree's real diameter (< 4) and 48-port switches it is tiny.
        assert_eq!(transit_rules_per_switch(6, 256), 1536);
        assert_eq!(transit_rules_per_switch(4, 48), 192);
    }

    #[test]
    fn forwarding_detects_bogus_port() {
        let (g, p) = line();
        let header = SourceRouteHeader {
            mac: encode_ports(&[99]),
            ttl: INITIAL_TTL,
        };
        assert!(forward(&g, p.nodes[1], header, 1).is_err());
    }
}
