//! Operation modes (§3.5) and per-converter configuration rules.

use crate::converter::{Blade, ConverterConfig};
use crate::layout::{ConverterInfo, Layout};
use serde::{Deserialize, Serialize};

/// The topology a single pod is configured to approximate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PodMode {
    /// All converters `default`: the original Clos network.
    Clos,
    /// Two-stage random graph approximation: 4-port converters `local`,
    /// enough 6-port converters `local` to relocate half of each edge's
    /// servers to the aggregation layer, remaining 6-port `default`.
    Local,
    /// Network-wide random graph approximation: 4-port `local`, 6-port
    /// `side`/`cross` by row parity (§3.3).
    Global,
}

impl PodMode {
    /// Short name used in network labels and experiment output.
    pub fn tag(self) -> &'static str {
        match self {
            PodMode::Clos => "clos",
            PodMode::Local => "local",
            PodMode::Global => "global",
        }
    }
}

/// A per-pod mode vector. Uniform assignments give the paper's Clos /
/// local / global modes; anything else is hybrid mode (§3.5).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeAssignment {
    /// Mode per pod, length = number of pods.
    pub pod_modes: Vec<PodMode>,
}

impl ModeAssignment {
    /// Every pod in the same mode.
    pub fn uniform(pods: usize, mode: PodMode) -> Self {
        Self {
            pod_modes: vec![mode; pods],
        }
    }

    /// Arbitrary per-pod assignment (hybrid mode).
    pub fn hybrid(pod_modes: Vec<PodMode>) -> Self {
        Self { pod_modes }
    }

    /// True when all pods share a mode; returns it.
    pub fn uniform_mode(&self) -> Option<PodMode> {
        let first = *self.pod_modes.first()?;
        self.pod_modes.iter().all(|&m| m == first).then_some(first)
    }

    /// Label like `"global"` or `"hybrid[clos,global,local,global]"`.
    pub fn label(&self) -> String {
        match self.uniform_mode() {
            Some(m) => m.tag().to_string(),
            None => {
                let inner: Vec<&str> = self.pod_modes.iter().map(|m| m.tag()).collect();
                format!("hybrid[{}]", inner.join(","))
            }
        }
    }
}

/// Number of 6-port converters per column that take the `local`
/// configuration in local mode: enough to bring the relocated count per
/// edge to half its servers (Figure 2d: "half servers are connected to the
/// edge switches and half to the aggregation switches"), the 4-port
/// converters (`n` of them) already being local.
pub fn local_mode_sixport_locals(layout: &Layout) -> usize {
    let p = &layout.params;
    let target = p.clos.servers_per_edge / 2;
    target.saturating_sub(p.n).min(p.m)
}

/// The configuration a converter takes under a mode assignment (§3.5).
fn config_for(
    layout: &Layout,
    conv: &ConverterInfo,
    assignment: &ModeAssignment,
) -> ConverterConfig {
    let mode = assignment.pod_modes[conv.pod];
    match (mode, conv.blade) {
        (PodMode::Clos, _) => ConverterConfig::Default,
        (PodMode::Local, Blade::A) => ConverterConfig::Local,
        (PodMode::Local, Blade::B) => {
            if conv.row < local_mode_sixport_locals(layout) {
                ConverterConfig::Local
            } else {
                ConverterConfig::Default
            }
        }
        (PodMode::Global, Blade::A) => ConverterConfig::Local,
        (PodMode::Global, Blade::B) => layout.global_mode_config(conv),
    }
}

/// All converter configurations for an assignment, indexed by converter id.
pub fn configs_for(layout: &Layout, assignment: &ModeAssignment) -> Vec<ConverterConfig> {
    assert_eq!(
        assignment.pod_modes.len(),
        layout.params.clos.pods,
        "mode assignment length must equal pod count"
    );
    layout
        .converters
        .iter()
        .map(|c| {
            let cfg = config_for(layout, c, assignment);
            debug_assert!(cfg.valid_for(c.blade.kind()));
            cfg
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::FlatTreeParams;
    use topology::ClosParams;

    fn layout() -> Layout {
        Layout::new(FlatTreeParams::new(ClosParams::mini(), 1, 1)).unwrap()
    }

    #[test]
    fn clos_mode_is_all_default() {
        let l = layout();
        let cfgs = configs_for(&l, &ModeAssignment::uniform(4, PodMode::Clos));
        assert!(cfgs.iter().all(|&c| c == ConverterConfig::Default));
    }

    #[test]
    fn global_mode_configs() {
        let l = layout();
        let cfgs = configs_for(&l, &ModeAssignment::uniform(4, PodMode::Global));
        for (c, cfg) in l.converters.iter().zip(&cfgs) {
            match c.blade {
                Blade::A => assert_eq!(*cfg, ConverterConfig::Local),
                // m = 1: single row 0 -> Side.
                Blade::B => assert_eq!(*cfg, ConverterConfig::Side),
            }
        }
    }

    #[test]
    fn local_mode_relocates_half_servers() {
        // mini: s = 4, n = 1 -> target 2 relocated, so 1 six-port local.
        let l = layout();
        assert_eq!(local_mode_sixport_locals(&l), 1);
        let cfgs = configs_for(&l, &ModeAssignment::uniform(4, PodMode::Local));
        for (c, cfg) in l.converters.iter().zip(&cfgs) {
            match c.blade {
                Blade::A => assert_eq!(*cfg, ConverterConfig::Local),
                Blade::B => assert_eq!(*cfg, ConverterConfig::Local), // row 0 < 1
            }
        }
    }

    #[test]
    fn local_mode_figure_2d_case() {
        // Figure 2d: s = 2, m = n = 1 -> half = 1, 4-port local covers it,
        // 6-port stays default.
        let clos = ClosParams {
            servers_per_edge: 2,
            ..ClosParams::mini()
        };
        let l = Layout::new(FlatTreeParams::new(clos, 1, 1)).unwrap();
        assert_eq!(local_mode_sixport_locals(&l), 0);
        let cfgs = configs_for(&l, &ModeAssignment::uniform(4, PodMode::Local));
        for (c, cfg) in l.converters.iter().zip(&cfgs) {
            match c.blade {
                Blade::A => assert_eq!(*cfg, ConverterConfig::Local),
                Blade::B => assert_eq!(*cfg, ConverterConfig::Default),
            }
        }
    }

    #[test]
    fn hybrid_assignment_mixes_rules() {
        let l = layout();
        let a = ModeAssignment::hybrid(vec![
            PodMode::Clos,
            PodMode::Global,
            PodMode::Local,
            PodMode::Global,
        ]);
        assert_eq!(a.uniform_mode(), None);
        assert_eq!(a.label(), "hybrid[clos,global,local,global]");
        let cfgs = configs_for(&l, &a);
        for (c, cfg) in l.converters.iter().zip(&cfgs) {
            if c.pod == 0 {
                assert_eq!(*cfg, ConverterConfig::Default);
            }
            if c.pod == 1 && c.blade == Blade::B {
                assert_eq!(*cfg, ConverterConfig::Side);
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(
            ModeAssignment::uniform(3, PodMode::Global).label(),
            "global"
        );
        assert_eq!(PodMode::Local.tag(), "local");
    }
}
