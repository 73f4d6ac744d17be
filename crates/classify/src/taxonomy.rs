//! The anomaly taxonomy of the paper's Table 2.

/// Anomaly classes assigned by the semi-automated procedure of §4,
/// including the two non-classes the paper reports (about 10% `Unknown`,
/// about 8% `FalseAlarm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AnomalyClass {
    /// Unusually high-rate point-to-point byte transfer.
    Alpha,
    /// Single-source denial of service against one victim.
    Dos,
    /// Distributed denial of service against one victim.
    Ddos,
    /// Unusually large legitimate demand for one service.
    FlashCrowd,
    /// Port or network scanning.
    Scan,
    /// Self-propagating worm traffic.
    Worm,
    /// One-to-many content distribution.
    PointMultipoint,
    /// Traffic loss between OD pairs (equipment outage, measurement
    /// failure).
    Outage,
    /// Customer traffic moving from one ingress PoP to another.
    IngressShift,
    /// Inspected but not attributable to any category.
    Unknown,
    /// No distinctly unusual volume change on inspection.
    FalseAlarm,
}

impl AnomalyClass {
    /// All classes, in the column order of the paper's Table 3.
    pub const ALL: [AnomalyClass; 11] = [
        AnomalyClass::Alpha,
        AnomalyClass::Dos,
        AnomalyClass::Scan,
        AnomalyClass::FlashCrowd,
        AnomalyClass::PointMultipoint,
        AnomalyClass::Worm,
        AnomalyClass::Outage,
        AnomalyClass::IngressShift,
        AnomalyClass::Ddos,
        AnomalyClass::Unknown,
        AnomalyClass::FalseAlarm,
    ];

    /// The paper's name for the class.
    pub fn label(self) -> &'static str {
        match self {
            AnomalyClass::Alpha => "ALPHA",
            AnomalyClass::Dos => "DOS",
            AnomalyClass::Ddos => "DDOS",
            AnomalyClass::FlashCrowd => "FLASH-CROWD",
            AnomalyClass::Scan => "SCAN",
            AnomalyClass::Worm => "WORM",
            AnomalyClass::PointMultipoint => "POINT-MULTIPOINT",
            AnomalyClass::Outage => "OUTAGE",
            AnomalyClass::IngressShift => "INGRESS-SHIFT",
            AnomalyClass::Unknown => "UNKNOWN",
            AnomalyClass::FalseAlarm => "FALSE-ALARM",
        }
    }

    /// Groups DOS and DDOS, which the paper's Table 3 counts together.
    pub fn table3_group(self) -> &'static str {
        match self {
            AnomalyClass::Dos | AnomalyClass::Ddos => "DOS",
            other => other.label(),
        }
    }
}

impl std::fmt::Display for AnomalyClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for c in AnomalyClass::ALL {
            assert!(seen.insert(c.label()), "duplicate label {}", c.label());
        }
        assert_eq!(AnomalyClass::ALL.len(), 11);
    }

    #[test]
    fn ddos_groups_with_dos() {
        assert_eq!(AnomalyClass::Ddos.table3_group(), "DOS");
        assert_eq!(AnomalyClass::Dos.table3_group(), "DOS");
        assert_eq!(AnomalyClass::Scan.table3_group(), "SCAN");
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(AnomalyClass::FlashCrowd.to_string(), "FLASH-CROWD");
    }
}
