//! The three systems the evaluation compares (§V-A).

/// Coherence-deactivation policy of a simulated system. The discriminants
/// are the snapshot tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoherenceMode {
    /// Baseline: "tracks coherence for all memory accesses".
    FullCoh = 0,
    /// Page-Table approach [Cuesta et al., ISCA'11]: first-touch private
    /// pages are non-coherent; a second core's access makes the page
    /// permanently shared (with a flush of the first core's copies).
    PageTable = 1,
    /// The paper's proposal: the runtime registers task inputs/outputs in
    /// the NCRT before execution and invalidates non-coherent blocks after.
    Raccd = 2,
    /// Extension: the TLB-based temporarily-private classifier of §II-B
    /// (TLB-to-TLB miss resolution, TLB–L1 inclusivity, decay predictor) —
    /// the complex alternative RaCCD is designed to avoid.
    TlbClass = 3,
}

impl CoherenceMode {
    /// The paper's three evaluated systems, in presentation order.
    pub const ALL: [CoherenceMode; 3] = [
        CoherenceMode::FullCoh,
        CoherenceMode::PageTable,
        CoherenceMode::Raccd,
    ];

    /// All systems including the §II-B TLB-classifier extension.
    pub const EXTENDED: [CoherenceMode; 4] = [
        CoherenceMode::FullCoh,
        CoherenceMode::PageTable,
        CoherenceMode::TlbClass,
        CoherenceMode::Raccd,
    ];

    /// Label used in figures ("FullCoh", "PT", "RaCCD").
    pub fn label(self) -> &'static str {
        match self {
            CoherenceMode::FullCoh => "FullCoh",
            CoherenceMode::PageTable => "PT",
            CoherenceMode::Raccd => "RaCCD",
            CoherenceMode::TlbClass => "TLB",
        }
    }

    /// Parse a system name as command lines and job specs spell it
    /// (case-insensitive): `fullcoh`, `pt` | `pagetable`, `tlb` |
    /// `tlbclass`, `raccd`.
    pub fn parse(s: &str) -> Option<CoherenceMode> {
        match s.to_ascii_lowercase().as_str() {
            "fullcoh" => Some(CoherenceMode::FullCoh),
            "pt" | "pagetable" => Some(CoherenceMode::PageTable),
            "tlb" | "tlbclass" => Some(CoherenceMode::TlbClass),
            "raccd" => Some(CoherenceMode::Raccd),
            _ => None,
        }
    }
}

impl core::fmt::Display for CoherenceMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

// Hand-written: a format trick, the tag is the declared discriminant (one
// list of numbers, in the enum).
impl raccd_snap::Snap for CoherenceMode {
    fn save(&self, w: &mut raccd_snap::SnapWriter) {
        w.u8(*self as u8);
    }
    fn load(r: &mut raccd_snap::SnapReader) -> Result<Self, raccd_snap::SnapError> {
        let tag = r.u8()?;
        let mode = Self::EXTENDED.into_iter().find(|m| *m as u8 == tag);
        mode.ok_or(raccd_snap::SnapError::Invalid("coherence mode tag"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(CoherenceMode::FullCoh.label(), "FullCoh");
        assert_eq!(CoherenceMode::PageTable.label(), "PT");
        assert_eq!(CoherenceMode::Raccd.label(), "RaCCD");
        assert_eq!(CoherenceMode::TlbClass.label(), "TLB");
        assert_eq!(CoherenceMode::ALL.len(), 3);
        assert_eq!(CoherenceMode::EXTENDED.len(), 4);
    }

    #[test]
    fn snapshot_tags_are_the_discriminants() {
        let tags = [
            (CoherenceMode::FullCoh, 0u8),
            (CoherenceMode::PageTable, 1),
            (CoherenceMode::Raccd, 2),
            (CoherenceMode::TlbClass, 3),
        ];
        for (mode, tag) in tags {
            assert_eq!(raccd_snap::encode(&mode), [tag], "{mode}");
            assert_eq!(raccd_snap::decode::<CoherenceMode>(&[tag]), Ok(mode));
        }
        assert!(raccd_snap::decode::<CoherenceMode>(&[4]).is_err());
    }

    #[test]
    fn parse_accepts_every_alias_in_any_case() {
        for m in CoherenceMode::EXTENDED {
            assert_eq!(CoherenceMode::parse(m.label()), Some(m), "{m}");
        }
        let aliases = [
            ("FullCoh", CoherenceMode::FullCoh),
            ("pagetable", CoherenceMode::PageTable),
            ("TLBCLASS", CoherenceMode::TlbClass),
            ("tlb", CoherenceMode::TlbClass),
            ("raccd", CoherenceMode::Raccd),
        ];
        for (s, m) in aliases {
            assert_eq!(CoherenceMode::parse(s), Some(m), "{s}");
        }
        assert_eq!(CoherenceMode::parse("swcoh"), None);
        assert_eq!(CoherenceMode::parse(""), None);
    }
}
