//! Built networks serialize/deserialize losslessly (JSON), so topologies
//! can be saved, shared, and reloaded by downstream tools.

use topology::{ClosParams, DcNetwork, RandomGraphParams, TwoStageParams};

fn roundtrip(net: &DcNetwork) {
    let json = serde_json::to_string(net).expect("serialize");
    let back: DcNetwork = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.name, net.name);
    assert_eq!(back.servers, net.servers);
    assert_eq!(back.pod_servers, net.pod_servers);
    assert_eq!(back.graph.node_count(), net.graph.node_count());
    assert_eq!(back.graph.link_count(), net.graph.link_count());
    for l in net.graph.link_ids() {
        let a = net.graph.link(l);
        let b = back.graph.link(l);
        assert_eq!(
            (a.src, a.dst, a.capacity_gbps),
            (b.src, b.dst, b.capacity_gbps)
        );
    }
    back.validate().expect("reloaded network is valid");
}

#[test]
fn clos_roundtrips() {
    roundtrip(&ClosParams::mini().build().net);
}

#[test]
fn random_graph_roundtrips() {
    roundtrip(&RandomGraphParams::regular(12, 8, 24, 3).build());
}

#[test]
fn two_stage_roundtrips() {
    roundtrip(
        &TwoStageParams {
            clos: ClosParams::mini(),
            seed: 4,
        }
        .build(),
    );
}

#[test]
fn params_roundtrip_too() {
    let p = ClosParams::topo(4);
    let json = serde_json::to_string(&p).unwrap();
    let back: ClosParams = serde_json::from_str(&json).unwrap();
    assert_eq!(p, back);
}
