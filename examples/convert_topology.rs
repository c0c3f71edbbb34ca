//! Live topology conversion: the §4.3 control loop on the paper's
//! 20-switch testbed — convert Clos → global → local while measuring the
//! delay breakdown of Table 3 and the core-bandwidth change of Figure 10.
//!
//! Run with: `cargo run -p ft-bench --release --example convert_topology`

use flat_tree::{ModeAssignment, PodMode};
use testbed::iperf::best_k;
use testbed::TestbedRig;

fn main() {
    let rig = TestbedRig::new();
    println!(
        "testbed: {} pods, {} converter switches, starts in {} mode\n",
        rig.controller.flat_tree().pods(),
        rig.controller.flat_tree().layout.converters.len(),
        rig.controller.current_assignment().label()
    );

    let pods = rig.controller.flat_tree().pods();
    for mode in [PodMode::Global, PodMode::Local, PodMode::Clos] {
        let report = rig.controller.convert(&ModeAssignment::uniform(pods, mode));
        println!(
            "convert {} -> {}: {} crosspoints, -{} / +{} rules, \
             OCS {:.0} ms + del {:.0} ms + add {:.0} ms = {:.0} ms",
            report.from,
            report.to,
            report.crosspoints_changed,
            report.rules_deleted,
            report.rules_added,
            report.ocs_ms,
            report.delete_ms,
            report.add_ms,
            report.total_sequential_ms()
        );
        let (k, gbps) = best_k(&rig, mode);
        println!(
            "  steady-state core bandwidth in {} mode: {gbps:.1} Gbps (k = {k})\n",
            report.to,
        );
    }
}
