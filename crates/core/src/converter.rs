//! Converter switch model (Figure 1 of the paper).
//!
//! Converter switches are passive circuit switches (crosspoint or small
//! optical switches, §3.6): they do not inspect packets, they only
//! establish point-to-point circuits between their ports. A 4-port
//! converter has {server, edge, agg, core} ports; a 6-port converter adds
//! a pair of side ports bundled toward the adjacent pod.

use serde::{Deserialize, Serialize};

/// Which blade (and hence which converter kind) a converter belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Blade {
    /// Blade A holds the 4-port converters (`n` rows per side).
    A,
    /// Blade B holds the 6-port converters (`m` rows per side).
    B,
}

/// Converter switch port count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConverterKind {
    /// 4 ports: server, edge, agg, core (Figure 1 a1/a2).
    FourPort,
    /// 6 ports: server, edge, agg, core + double side connectors
    /// (Figure 1 b1–b4).
    SixPort,
}

impl Blade {
    /// The converter kind installed on this blade.
    pub fn kind(self) -> ConverterKind {
        match self {
            Blade::A => ConverterKind::FourPort,
            Blade::B => ConverterKind::SixPort,
        }
    }
}

/// Which half of the pod a converter column sits on (§3.1: converters are
/// "placed evenly on the two sides of the Pod").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PodSide {
    /// Columns serving edges `E_0 .. E_{d/2-1}`.
    Left,
    /// Columns serving edges `E_{d/2} .. E_{d-1}`.
    Right,
}

/// A converter configuration = the crosspoint circuit currently set
/// (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConverterConfig {
    /// Original Clos connections: server–edge, agg–core (a1 / b1).
    Default,
    /// Relocate the server to the aggregation switch and connect core and
    /// edge directly (a2 / b2).
    Local,
    /// 6-port only: relocate the server to the core switch; edge and agg
    /// go to the side bundle such that a peer pair in the *same* `Side`
    /// configuration forms **peer-wise** inter-pod links (E–E′, A–A′) (b3).
    Side,
    /// 6-port only: like [`ConverterConfig::Side`] but with the side-port
    /// assignment mirrored, so a peer pair in `Cross` forms
    /// **edge–aggregation** inter-pod links (E–A′, A–E′) (b4).
    Cross,
}

impl ConverterConfig {
    /// Whether `self` is a valid configuration for `kind`.
    ///
    /// 4-port converters support only `Default` and `Local`: §2.2 explains
    /// that relocating a server to a core switch through a 4-port converter
    /// would force a redundant edge–aggregation link, so those states are
    /// not wired.
    pub fn valid_for(self, kind: ConverterKind) -> bool {
        match kind {
            ConverterKind::FourPort => matches!(self, Self::Default | Self::Local),
            ConverterKind::SixPort => true,
        }
    }

    /// Where the column's server attaches under this configuration.
    pub fn server_attachment(self) -> ServerAttachment {
        match self {
            Self::Default => ServerAttachment::Edge,
            Self::Local => ServerAttachment::Agg,
            Self::Side | Self::Cross => ServerAttachment::Core,
        }
    }

    /// Where the column's core connector points under this configuration:
    /// `Default` → aggregation uplink, `Local` → direct core–edge link,
    /// `Side`/`Cross` → the relocated server.
    pub fn core_attachment(self) -> CoreAttachment {
        match self {
            Self::Default => CoreAttachment::Agg,
            Self::Local => CoreAttachment::Edge,
            Self::Side | Self::Cross => CoreAttachment::Server,
        }
    }
}

/// Which switch layer the converter's server port is circuited to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerAttachment {
    /// Server stays on the edge switch (Clos position).
    Edge,
    /// Server relocated to the aggregation switch.
    Agg,
    /// Server relocated to the core switch.
    Core,
}

/// Which endpoint the converter's core connector is circuited to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreAttachment {
    /// Core connector feeds the aggregation switch (Clos position).
    Agg,
    /// Core connector feeds the edge switch directly.
    Edge,
    /// Core connector feeds the relocated server.
    Server,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_port_rejects_side_and_cross() {
        assert!(ConverterConfig::Default.valid_for(ConverterKind::FourPort));
        assert!(ConverterConfig::Local.valid_for(ConverterKind::FourPort));
        assert!(!ConverterConfig::Side.valid_for(ConverterKind::FourPort));
        assert!(!ConverterConfig::Cross.valid_for(ConverterKind::FourPort));
    }

    #[test]
    fn six_port_accepts_all() {
        for c in [
            ConverterConfig::Default,
            ConverterConfig::Local,
            ConverterConfig::Side,
            ConverterConfig::Cross,
        ] {
            assert!(c.valid_for(ConverterKind::SixPort));
        }
    }

    #[test]
    fn attachments_match_figure_1() {
        use {CoreAttachment as CA, ServerAttachment as SA};
        assert_eq!(ConverterConfig::Default.server_attachment(), SA::Edge);
        assert_eq!(ConverterConfig::Default.core_attachment(), CA::Agg);
        assert_eq!(ConverterConfig::Local.server_attachment(), SA::Agg);
        assert_eq!(ConverterConfig::Local.core_attachment(), CA::Edge);
        for c in [ConverterConfig::Side, ConverterConfig::Cross] {
            assert_eq!(c.server_attachment(), SA::Core);
            assert_eq!(c.core_attachment(), CA::Server);
        }
    }

    #[test]
    fn blade_kinds() {
        assert_eq!(Blade::A.kind(), ConverterKind::FourPort);
        assert_eq!(Blade::B.kind(), ConverterKind::SixPort);
    }
}
