//! The protocol registry: which coherence protocol a machine runs.
//!
//! A protocol is data, not code: [`ProtocolKind::rules`] returns the
//! `const` [`ProtocolRules`] record the simulator's transaction paths and
//! the directory transition function ([`crate::mesi::EntryState::apply`])
//! read. Three records exist:
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
//! and the RaCCD non-coherent paths unchanged; the record only decides
//! fill states and downgrade targets (a `Forward` fill state is what
//! makes the directory track a clean forwarder). What a replacement owes the directory ([`victim_action`]) and
//! which write hits complete locally ([`write_hit_is_local`]) are the same
//! for every protocol. The shadow checker's invariants (SWMR over writable
//! states, data-value, NC-exclusivity) are protocol-agnostic and hold for
//! every variant.

use raccd_cache::L1State;
use std::fmt;

/// Which coherence protocol a machine runs. Selects a [`ProtocolRules`]
/// record via [`ProtocolKind::rules`].
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

    /// The protocol's rules record: its row of the `RULES` table.
    pub const fn rules(self) -> ProtocolRules {
        RULES[self as usize]
    }
}

/// One record per protocol, in [`ProtocolKind::ALL`] order.
const RULES: [ProtocolRules; 3] = [
    ProtocolRules {
        shared_fill: L1State::Shared,
        dirty_downgrade: L1State::Shared,
    },
    ProtocolRules {
        shared_fill: L1State::Forward,
        dirty_downgrade: L1State::Shared,
    },
    ProtocolRules {
        shared_fill: L1State::Shared,
        dirty_downgrade: L1State::Owned,
    },
];

/// Everything that differs between the protocols, as plain data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolRules {
    /// State a coherent read fill installs when other private copies
    /// exist (MESI/MOESI: `Shared`; MESIF: `Forward` — the newest sharer
    /// becomes the designated clean supplier, so the directory tracks a
    /// forward pointer and its holder supplies read fills cache-to-cache
    /// when no owner exists).
    pub shared_fill: L1State,
    /// Target state of a *dirty* owner downgraded by a remote read
    /// (MESI/MESIF: `Shared`; MOESI: `Owned` — the O copy stays the only
    /// up-to-date version on chip and the directory's owner pointer
    /// survives). A clean owner always drops to `Shared`. The downgrade
    /// writes the dirty data back to the LLC unless the target is `Owned`.
    pub dirty_downgrade: L1State,
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

raccd_snap::snap_enum!(ProtocolKind, "protocol kind tag" { 0 => Mesi, 1 => Mesif, 2 => Moesi });

/// What an L1 replacement in a given state owes the directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VictimAction {
    /// Silent drop: no message (clean Shared under every protocol).
    Silent,
    /// Clean notification keeping the owner pointer precise (PutE) — a
    /// control message, no data.
    NotifyClean,
    /// Clean notification clearing the directory's forward pointer
    /// (PutF, MESIF only) — a control message, no data.
    NotifyForward,
    /// Dirty write-back (PutM / PutO): data travels to the LLC and the
    /// owner pointer clears.
    WriteBackDirty,
}

/// What an L1 replacement in `state` owes the directory (the same for
/// every protocol; F and O lines only exist under MESIF and MOESI).
pub fn victim_action(state: L1State) -> VictimAction {
    match state {
        L1State::Modified | L1State::Owned => VictimAction::WriteBackDirty,
        L1State::Exclusive => VictimAction::NotifyClean,
        L1State::Forward => VictimAction::NotifyForward,
        L1State::Shared => VictimAction::Silent,
    }
}

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
        let [mesi, mesif, moesi] = ProtocolKind::ALL.map(ProtocolKind::rules);
        assert_eq!(mesi.shared_fill, L1State::Shared);
        assert_eq!(mesif.shared_fill, L1State::Forward);
        assert_eq!(moesi.shared_fill, L1State::Shared);
        assert_eq!(mesi.dirty_downgrade, L1State::Shared);
        assert_eq!(mesif.dirty_downgrade, L1State::Shared);
        assert_eq!(moesi.dirty_downgrade, L1State::Owned);
        // Only those fields differ from the baseline.
        let like_mesi = ProtocolRules {
            shared_fill: L1State::Shared,
            ..mesif
        };
        assert_eq!(like_mesi, mesi);
        let like_mesi = ProtocolRules {
            dirty_downgrade: L1State::Shared,
            ..moesi
        };
        assert_eq!(like_mesi, mesi);
        // Every protocol: only M/E write hits are local; S/F/O upgrade.
        assert!(write_hit_is_local(L1State::Modified));
        assert!(write_hit_is_local(L1State::Exclusive));
        assert!(!write_hit_is_local(L1State::Shared));
        assert!(!write_hit_is_local(L1State::Forward));
        assert!(!write_hit_is_local(L1State::Owned));
    }

    #[test]
    fn victim_actions() {
        assert_eq!(victim_action(L1State::Owned), VictimAction::WriteBackDirty);
        assert_eq!(victim_action(L1State::Shared), VictimAction::Silent);
        assert_eq!(victim_action(L1State::Forward), VictimAction::NotifyForward);
        assert_eq!(victim_action(L1State::Exclusive), VictimAction::NotifyClean);
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
