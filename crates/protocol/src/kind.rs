//! The protocol registry: which coherence protocol a machine runs.
//!
//! Where the three protocols differ is one private row each of the
//! `RULES` table, which the directory transition function
//! ([`crate::mesi::EntryState::apply`]) alone reads; its effect carries
//! the decisions to the simulator, which reads no rules of its own:
//!
//! * **MESI** — the paper's baseline: silent clean evictions, every
//!   remote read of a dirty line writes it back to the LLC.
//! * **MESIF** — adds a *Forward* state: one designated clean sharer
//!   supplies read fills cache-to-cache instead of the LLC. The newest
//!   sharer takes F; an F replacement notifies the directory (PutF) so
//!   the forward pointer stays precise while plain sharers still evict
//!   silently.
//! * **MOESI** — adds an *Owned* state: a remote read of a dirty line
//!   downgrades the owner M→O *without* a write-back. The O copy stays
//!   the single dirty on-chip version, supplies every later read
//!   cache-to-cache, and only writes back on replacement or
//!   invalidation.
//!
//! All three share the directory machinery ([`crate::mesi::EntryState`])
//! and the RaCCD non-coherent paths unchanged. What a replacement owes
//! the directory ([`crate::mesi::DirMsg::replacement`]) and which write
//! hits complete locally ([`write_hit_is_local`]) are the same for every
//! protocol. The shadow checker's invariants (SWMR over writable states,
//! data-value, NC-exclusivity) are protocol-agnostic and hold for every
//! variant.

use raccd_cache::L1State;
use std::fmt;

/// Which coherence protocol a machine runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolKind {
    /// Baseline directory MESI (the paper's Table I protocol).
    #[default]
    Mesi,
    /// MESI + Forward: clean cache-to-cache supply by a designated sharer.
    Mesif,
    /// MESI + Owned: dirty sharing without LLC write-back on downgrade.
    Moesi,
}

impl ProtocolKind {
    /// Every protocol, in registry order.
    pub const ALL: [ProtocolKind; 3] =
        [ProtocolKind::Mesi, ProtocolKind::Mesif, ProtocolKind::Moesi];

    /// Canonical lower-case label (round-trips through
    /// [`ProtocolKind::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Mesi => "mesi",
            ProtocolKind::Mesif => "mesif",
            ProtocolKind::Moesi => "moesi",
        }
    }

    /// Parse a protocol's [`label`](ProtocolKind::label)
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<ProtocolKind> {
        ProtocolKind::ALL
            .into_iter()
            .find(|kind| kind.label().eq_ignore_ascii_case(s))
    }
}

/// One row per protocol, in [`ProtocolKind::ALL`] order: everything that
/// differs between them.
pub(crate) const RULES: [Rules; 3] = [
    Rules {
        shared_fill: L1State::Shared,
        dirty_downgrade: L1State::Shared,
    },
    Rules {
        shared_fill: L1State::Forward,
        dirty_downgrade: L1State::Shared,
    },
    Rules {
        shared_fill: L1State::Shared,
        dirty_downgrade: L1State::Owned,
    },
];

/// What differs between the protocols, as plain data.
#[derive(Clone, Copy)]
pub(crate) struct Rules {
    /// State a coherent read fill installs when other private copies
    /// exist (MESI/MOESI: `Shared`; MESIF: `Forward` — the newest sharer
    /// becomes the designated clean supplier, so the directory tracks a
    /// forward pointer and its holder supplies read fills cache-to-cache
    /// when no owner exists).
    pub(crate) shared_fill: L1State,
    /// Target state of a *dirty* owner downgraded by a remote read
    /// (MESI/MESIF: `Shared`; MOESI: `Owned` — the O copy stays the only
    /// up-to-date version on chip and the directory's owner pointer
    /// survives). A clean owner always drops to `Shared`. The downgrade
    /// writes the dirty data back to the LLC unless the target is `Owned`.
    pub(crate) dirty_downgrade: L1State,
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

raccd_snap::snap_enum!(ProtocolKind, "protocol kind tag" { 0 => Mesi, 1 => Mesif, 2 => Moesi });

/// Whether a coherent write *hit* in `state` completes locally (writable
/// copy) or must upgrade through the directory first. The same for every
/// protocol: only M and E are writable.
pub fn write_hit_is_local(state: L1State) -> bool {
    matches!(state, L1State::Modified | L1State::Exclusive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(ProtocolKind::parse("MOESI"), Some(ProtocolKind::Moesi));
        assert_eq!(ProtocolKind::parse("mosi"), None);
    }

    #[test]
    fn rules_differ_where_they_should() {
        let [mesi, mesif, moesi] = RULES;
        assert_eq!(mesi.shared_fill, L1State::Shared);
        assert_eq!(mesif.shared_fill, L1State::Forward);
        assert_eq!(moesi.shared_fill, L1State::Shared);
        assert_eq!(mesi.dirty_downgrade, L1State::Shared);
        assert_eq!(mesif.dirty_downgrade, L1State::Shared);
        assert_eq!(moesi.dirty_downgrade, L1State::Owned);
        // Every protocol: only M/E write hits are local; S/F/O upgrade.
        assert!(write_hit_is_local(L1State::Modified));
        assert!(write_hit_is_local(L1State::Exclusive));
        assert!(!write_hit_is_local(L1State::Shared));
        assert!(!write_hit_is_local(L1State::Forward));
        assert!(!write_hit_is_local(L1State::Owned));
    }

    #[test]
    fn snap_roundtrip_is_byte_stable() {
        use raccd_snap::{Snap, SnapReader, SnapWriter};
        for (kind, tag) in [
            (ProtocolKind::Mesi, 0u8),
            (ProtocolKind::Mesif, 1),
            (ProtocolKind::Moesi, 2),
        ] {
            let mut w = SnapWriter::new();
            kind.save(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(bytes, vec![tag], "{kind} must encode as its tag byte");
            let mut r = SnapReader::new(&bytes);
            assert_eq!(ProtocolKind::load(&mut r).unwrap(), kind);
        }
    }
}
