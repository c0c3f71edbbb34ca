//! The `ftcheck` battery: the (topology × check) grid and its runner.
//!
//! Cells are independent and deterministic, so they run on the same
//! parallel sweep driver as the experiments ([`ft_bench::sweep`]) and
//! the assembled report is byte-identical regardless of thread count.

use crate::corrupt::Corruption;
use crate::diag::{canonicalize, Finding};
use crate::{addressing_rules, control_rules, fault_rules, graph_rules, routing_rules};
use flat_tree::{ConverterConfig, FlatTree, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::FaultPlan;
use ft_bench::Scale;
use routing::addressing::TopologyModeId;
use serde::Serialize;
use testbed::rig::testbed_params;
use topology::ClosParams;

/// Concurrent paths for rule compilation and path-set checks: the
/// testbed's k = 4 (§5.3).
pub const DEFAULT_K: usize = 4;

/// Fixed seed of the fault cell's plan. Deliberately NOT the CLI seed:
/// the battery's artifacts must be identical across invocations, so the
/// plan's flap draw is pinned here and the CLI seed is echo-only.
pub const FAULT_PLAN_SEED: u64 = 0xf1a7;

/// Shards the fault cell partitions its per-switch jobs over.
pub const FAULT_SHARDS: usize = 3;

/// What a cell verifies.
#[derive(Debug, Clone)]
pub enum CheckKind {
    /// Graph + routing rules of one instantiated mode.
    Mode(ModeAssignment),
    /// Conversion rules over every ordered mode pair.
    Control,
    /// The §4.1 address plan across all mode ids.
    Addressing,
    /// Fault-plane artifacts: compiled schedule, stuck-converter
    /// targets, and the controller shard partition.
    Faults,
}

/// One independent battery cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Topology name (stable, used in the report).
    pub topo: String,
    /// Flat-tree parameters of the topology.
    pub params: FlatTreeParams,
    /// What to verify.
    pub kind: CheckKind,
}

/// The verified result of one cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellReport {
    /// Topology name.
    pub topo: String,
    /// Check label (`mode:global`, `control`, `addressing`, `faults`).
    pub check: String,
    /// Canonicalized findings; empty means the cell is clean.
    pub findings: Vec<Finding>,
}

/// The whole battery's result.
#[derive(Debug, Clone, Serialize)]
pub struct BatteryReport {
    /// Seed echoed from the CLI. The battery never draws from it: the
    /// fault cell's only randomness is pinned to [`FAULT_PLAN_SEED`].
    pub seed: u64,
    /// Grid label (`smoke`, `default`, `full`).
    pub grid: String,
    /// k used for routing and addressing checks.
    pub k: usize,
    /// Per-cell results, in grid order.
    pub cells: Vec<CellReport>,
}

impl BatteryReport {
    /// Total findings across all cells.
    pub fn total_findings(&self) -> usize {
        self.cells.iter().map(|c| c.findings.len()).sum()
    }
}

/// The four assignments every topology is checked in: the three uniform
/// modes plus one hybrid (pod 0 converted, the rest Clos).
pub fn mode_grid(pods: usize) -> Vec<ModeAssignment> {
    let mut hybrid = vec![PodMode::Clos; pods];
    hybrid[0] = PodMode::Global;
    vec![
        ModeAssignment::uniform(pods, PodMode::Clos),
        ModeAssignment::uniform(pods, PodMode::Local),
        ModeAssignment::uniform(pods, PodMode::Global),
        ModeAssignment::hybrid(hybrid),
    ]
}

fn topologies(scale: &Scale) -> Vec<(String, FlatTreeParams)> {
    let mut out = vec![("testbed".to_string(), testbed_params())];
    if scale.smoke {
        return out;
    }
    out.push((
        "mini".to_string(),
        FlatTreeParams::new(ClosParams::mini(), 1, 1),
    ));
    if scale.full {
        out.push((
            "topo-1-mini".to_string(),
            FlatTreeParams::new(ft_bench::experiments::common::mini_topo(1), 1, 1),
        ));
    }
    out
}

/// The grid label for a scale.
fn grid_label(scale: &Scale) -> &'static str {
    if scale.smoke {
        "smoke"
    } else if scale.full {
        "full"
    } else {
        "default"
    }
}

/// Builds the (topology × check) grid for a scale.
pub fn grid(scale: &Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (topo, params) in topologies(scale) {
        for assignment in mode_grid(params.clos.pods) {
            cells.push(Cell {
                topo: topo.clone(),
                params,
                kind: CheckKind::Mode(assignment),
            });
        }
        cells.push(Cell {
            topo: topo.clone(),
            params,
            kind: CheckKind::Control,
        });
        cells.push(Cell {
            topo: topo.clone(),
            params,
            kind: CheckKind::Addressing,
        });
        cells.push(Cell {
            topo,
            params,
            kind: CheckKind::Faults,
        });
    }
    cells
}

/// Runs one cell, optionally with a planted corruption.
pub fn run_cell(cell: &Cell, k: usize, corruption: Option<Corruption>) -> CellReport {
    let ft = FlatTree::new(cell.params).expect("grid params are valid");
    let (check, findings) = match &cell.kind {
        CheckKind::Mode(assignment) => {
            let mut inst = ft.instantiate(assignment);
            if let Some(c) = corruption {
                c.apply(&mut inst);
            }
            let truncate = corruption.map_or(0, Corruption::truncated_pairs);
            let mut findings = graph_rules::check(&ft, &inst);
            findings.extend(routing_rules::check_with_truncation(&inst, k, truncate));
            (format!("mode:{}", assignment.label()), findings)
        }
        CheckKind::Control => (
            "control".to_string(),
            control_rules::check(&ft, &mode_grid(ft.pods()), k),
        ),
        CheckKind::Addressing => {
            let global = ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Global));
            let local = ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Local));
            let clos = ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Clos));
            let instances = [
                (TopologyModeId::Global, &global),
                (TopologyModeId::Local, &local),
                (TopologyModeId::Clos, &clos),
            ];
            (
                "addressing".to_string(),
                addressing_rules::check(&instances, k),
            )
        }
        CheckKind::Faults => {
            let inst = ft.instantiate(&ModeAssignment::uniform(ft.pods(), PodMode::Global));
            let g = &inst.net.graph;
            let converters = ft.layout.converters.len();

            // A quarter of the cables flap (all recovering), plus one
            // stuck override per blade class — the same artifact shapes
            // the faultsweep experiment feeds the engine.
            let mut plan = FaultPlan::new(FAULT_PLAN_SEED);
            plan.random_link_flaps(&g.switch_cables(), 0.25, 0.4, (0.0, 2.0));
            plan.stuck_converter(0, ConverterConfig::Default);
            plan.stuck_converter(converters - 1, ConverterConfig::Local);
            let mut schedule = plan.compile(g).expect("battery fault plan compiles");

            // Per-switch jobs derived from the deterministic port-usage
            // map: synthetic but shaped like real ConversionWork.
            let per_switch: Vec<(usize, usize)> = inst
                .port_usage()
                .values()
                .map(|&gbps| {
                    let units = gbps.round() as usize;
                    (units, units / 2)
                })
                .collect();
            let mut partition = control::resilient::shard_partition(&per_switch, FAULT_SHARDS);

            if let Some(c) = corruption {
                c.apply_to_faults(
                    converters,
                    &mut plan,
                    &mut schedule,
                    &mut partition,
                    per_switch.len(),
                );
            }
            (
                "faults".to_string(),
                fault_rules::check(&ft, &plan, &schedule, per_switch.len(), &partition),
            )
        }
    };
    CellReport {
        topo: cell.topo.clone(),
        check,
        findings: canonicalize(findings),
    }
}

/// Runs the whole battery for a scale on the parallel sweep driver.
pub fn run(scale: &Scale, corruption: Option<Corruption>) -> BatteryReport {
    let cells = grid(scale);
    let k = DEFAULT_K;
    let reports = ft_bench::sweep::sweep(&cells, |_, cell| run_cell(cell, k, corruption));
    BatteryReport {
        seed: scale.seed,
        grid: grid_label(scale).to_string(),
        k,
        cells: reports,
    }
}

/// Renders the deterministic text report.
pub fn render(report: &BatteryReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ftcheck: grid={} seed={} k={} cells={}",
        report.grid,
        report.seed,
        report.k,
        report.cells.len()
    );
    for cell in &report.cells {
        if cell.findings.is_empty() {
            let _ = writeln!(out, "  [{} {}] ok", cell.topo, cell.check);
        } else {
            let _ = writeln!(
                out,
                "  [{} {}] {} finding(s)",
                cell.topo,
                cell.check,
                cell.findings.len()
            );
            for f in &cell.findings {
                let _ = writeln!(out, "    {f}");
            }
        }
    }
    let _ = writeln!(out, "total findings: {}", report.total_findings());
    out
}
