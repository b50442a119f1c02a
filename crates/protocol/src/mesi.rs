//! Directory-side MESI state.
//!
//! The directory tracks, per coherent block, which private caches hold it.
//! With silent clean evictions (Table I), sharer bits may be stale — a core
//! listed as sharer may have silently dropped the line; a later invalidation
//! to it is then spurious but harmless. The owner pointer (a core in E or M)
//! is always precise because E/M replacements write back / notify.
//!
//! An entry has exactly one mutator, the directory transition function
//! [`EntryState::apply`]: (entry, protocol, [`DirMsg`]) → (next entry,
//! [`ApplyEffect`]). It is total, and its effect names every protocol
//! decision of the transaction: whom to invalidate, which owner a read
//! downgrades, to what state and with or without a write-back, which
//! forwarder supplies, and what state the requester's fill takes.
//! `raccd-sim`'s `Machine` calls it for every directory-side step of a
//! fill, an upgrade, a replacement and a lost-entry recovery and carries
//! out the effect, so the function property-tested here is the one the
//! simulator runs. The fault plane relies on it: a duplicated NoC message
//! re-delivers the same [`DirMsg`], and `apply` is idempotent under
//! re-delivery for every protocol (`tests/idempotence.rs`).

use crate::kind::{ProtocolKind, RULES};
use raccd_cache::L1State;

/// One directory entry: state + sharer bit-vector + owner pointer, matching
/// the paper's "3 bytes to store the state of the cache block and the
/// bit-vector of sharer cores" (§V-A5, 16 cores). Under MESIF the entry
/// additionally tracks the designated clean forwarder (`fwd`); under MESI
/// and MOESI that pointer is always `None`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EntryState {
    /// Bit `i` set ⇒ core `i` may hold the block (possibly stale under
    /// silent evictions).
    pub sharers: u64,
    /// Core holding the block in E or M (MOESI: also O), if any.
    pub owner: Option<u8>,
    /// MESIF only: the clean sharer designated to supply read fills
    /// cache-to-cache. Always a current sharer; kept precise by PutF
    /// replacement notifications (unlike plain sharers, which evict
    /// silently). `None` ⇒ the LLC supplies.
    pub fwd: Option<u8>,
}

impl EntryState {
    /// A fresh entry for a block just installed in the LLC with no private
    /// copies.
    pub fn uncached() -> Self {
        EntryState::default()
    }

    /// All private copies (sharers + owner) as a bitmask — the set to
    /// invalidate when this entry is evicted for inclusion.
    pub fn all_holders(&self) -> u64 {
        self.sharers | self.owner.map_or(0, |o| 1 << o)
    }

    /// Apply one directory-bound message under `protocol` and return the
    /// transaction it asks for. The message's core must be below 64, the
    /// width of the sharer vector (the machine asserts its core count at
    /// construction). Duplicate delivery of any message leaves the entry
    /// as the first delivery did — the receiver-side property the fault
    /// plane's duplication site relies on.
    pub fn apply(&mut self, protocol: ProtocolKind, msg: DirMsg) -> ApplyEffect {
        let rules = RULES[protocol as usize];
        let (DirMsg::GetS { core, .. }
        | DirMsg::GetX { core }
        | DirMsg::PutM { core }
        | DirMsg::PutF { core }) = msg;
        let (me, bit) = (Some(core as u8), 1u64 << core);
        let granted = EntryState {
            sharers: bit,
            owner: me,
            fwd: None,
        };
        let mut effect = ApplyEffect::default();
        match msg {
            DirMsg::GetS { owner_dirty, .. } => match self.owner {
                // The owner re-reading its own block (a duplicated GetS,
                // or a copy dropped behind the directory's back): it
                // holds, or is re-granted, E/M/O; nothing to change.
                Some(_) if self.owner == me => effect.exclusive = true,
                // Sole reader: grant Exclusive and record ownership, so a
                // later silent E→M write stays tracked.
                None if self.sharers == 0 => {
                    *self = granted;
                    effect.exclusive = true;
                }
                owner => {
                    if let Some(o) = owner {
                        // The foreign owner answers the forwarded read. A
                        // dirty owner drops to the protocol's target and
                        // writes back, unless it stays Owned (MOESI) and
                        // keeps both the data and the pointer; a clean
                        // owner drops to Shared.
                        let to = if owner_dirty {
                            rules.dirty_downgrade
                        } else {
                            L1State::Shared
                        };
                        let stays = to == L1State::Owned;
                        effect.downgrade = Some(Downgrade {
                            core: o.into(),
                            to,
                            write_back: owner_dirty && !stays,
                        });
                        if !stays {
                            self.owner = None;
                            self.sharers |= 1 << o;
                        }
                    } else {
                        // Existing (possibly stale) sharers. MESIF: the
                        // forwarder supplies and hands F to the requester.
                        effect.forwarder =
                            self.fwd.filter(|&f| f != core as u8).map(|f| Downgrade {
                                core: f.into(),
                                to: L1State::Shared,
                                write_back: false,
                            });
                    }
                    self.sharers |= bit;
                    if rules.shared_fill == L1State::Forward {
                        self.fwd = me;
                    }
                    effect.shared_fill = Some(rules.shared_fill);
                }
            },
            // The writer becomes the owner; every other holder (and any
            // forward pointer) goes.
            DirMsg::GetX { .. } => {
                effect.exclusive = true;
                effect.invalidate = self.all_holders() & !bit;
                *self = granted;
            }
            // A replacement: `core` no longer holds the line.
            DirMsg::PutM { .. } => {
                if self.owner == me {
                    self.owner = None;
                }
                if self.fwd == me {
                    self.fwd = None;
                }
                self.sharers &= !bit;
            }
            // PutF notifies precisely, so the sharer bit clears with the
            // pointer. From a non-forwarder the message is stale (a
            // duplicate racing a later GetS that moved the pointer).
            DirMsg::PutF { .. } => {
                if self.fwd == me {
                    self.fwd = None;
                    self.sharers &= !bit;
                }
            }
        }
        effect
    }
}

/// A directory-bound coherence message, as re-deliverable by the fault
/// plane's duplication site. Every message names the core it came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirMsg {
    /// Read request from `core`, with what a foreign owner's snoop reply
    /// reports.
    GetS {
        /// Requesting core.
        core: usize,
        /// Whether the foreign owner's copy, if there is one, is dirty
        /// (M or O). Ignored when no other core owns the block.
        owner_dirty: bool,
    },
    /// Write / upgrade request from `core`.
    GetX {
        /// Requesting core.
        core: usize,
    },
    /// Owner write-back (PutM / PutE / PutO) from `core`.
    PutM {
        /// The (former) owner.
        core: usize,
    },
    /// MESIF forwarder replacement notification from `core`: the clean F
    /// line was dropped, so the directory's forward pointer (and the
    /// notifying sharer bit) clears.
    PutF {
        /// The (former) forwarder.
        core: usize,
    },
}

impl DirMsg {
    /// What `core`'s L1 replacement of a line in `state` owes the
    /// directory, the same under every protocol: an owner's PutM (M and O
    /// carry the data back, E notifies so the owner pointer stays exact),
    /// a forwarder's PutF, and nothing for a Shared line, which is
    /// dropped silently (Table I).
    pub fn replacement(core: usize, state: L1State) -> Option<DirMsg> {
        match state {
            L1State::Modified | L1State::Owned | L1State::Exclusive => Some(DirMsg::PutM { core }),
            L1State::Forward => Some(DirMsg::PutF { core }),
            L1State::Shared => None,
        }
    }
}

/// What one [`DirMsg`] asks of the machine: every protocol decision of
/// the transaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyEffect {
    /// The requester may install the line Exclusive.
    pub exclusive: bool,
    /// Bitmask of cores that must receive invalidations.
    pub invalidate: u64,
    /// A read's foreign owner: it supplies the data and drops as named.
    pub downgrade: Option<Downgrade>,
    /// State a shared read fill installs: Shared, or Forward under MESIF.
    /// `None` when the requester is granted the block exclusively.
    pub shared_fill: Option<L1State>,
    /// MESIF: the forwarder the directory asks to supply a read no core
    /// owns. It hands F to the requester and drops to Shared. The pointer
    /// is precise (an F line leaves an L1 only by a PutF or PutM
    /// replacement or with the entry itself), so the forwarder holds the
    /// line.
    pub forwarder: Option<Downgrade>,
}

/// A supplier's side of a forwarded read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Downgrade {
    /// The supplying core.
    pub core: usize,
    /// The state its line drops to.
    pub to: L1State,
    /// Whether its dirty data goes back to the LLC.
    pub write_back: bool,
}

raccd_snap::snap_record!(EntryState {
    sharers,
    owner,
    fwd
});

#[cfg(test)]
mod tests {
    use super::*;

    const P: ProtocolKind = ProtocolKind::Mesi;

    fn gets(core: usize) -> DirMsg {
        DirMsg::GetS {
            core,
            owner_dirty: false,
        }
    }

    fn entry(msgs: &[DirMsg]) -> EntryState {
        let mut e = EntryState::uncached();
        for &m in msgs {
            e.apply(P, m);
        }
        e
    }

    #[test]
    fn entry_with_forward_pointer_snap_roundtrips_byte_identically() {
        for fwd in [None, Some(0u8), Some(5), Some(63)] {
            let e = EntryState {
                sharers: 1 << 3 | fwd.map_or(0, |f| 1 << f),
                owner: None,
                fwd,
            };
            let bytes = raccd_snap::encode(&e);
            let back: EntryState = raccd_snap::decode(&bytes).expect("decodes");
            assert_eq!(back, e);
            assert_eq!(back.fwd, fwd);
            assert_eq!(raccd_snap::encode(&back), bytes, "re-encode byte-identical");
        }
    }

    #[test]
    fn fresh_entry_is_uncached() {
        let e = EntryState::uncached();
        assert_eq!((e.owner, e.fwd), (None, None));
        assert_eq!(e.all_holders(), 0);
    }

    #[test]
    fn first_reader_is_granted_exclusive_and_owns() {
        let mut e = EntryState::uncached();
        let eff = e.apply(P, gets(3));
        assert!(eff.exclusive, "first sharer takes E");
        assert_eq!(eff.shared_fill, None);
        assert_eq!(e.owner, Some(3));
        let eff = e.apply(P, gets(5));
        assert!(!eff.exclusive, "second sharer must take S");
        assert_eq!(eff.shared_fill, Some(L1State::Shared));
        let clean = Downgrade {
            core: 3,
            to: L1State::Shared,
            write_back: false,
        };
        assert_eq!(eff.downgrade, Some(clean), "the clean owner drops to S");
        assert_eq!(e.sharers, (1 << 3) | (1 << 5));
        assert_eq!(e.owner, None);
    }

    #[test]
    fn getx_invalidates_other_sharers() {
        let mut e = EntryState {
            sharers: 0b111,
            owner: None,
            fwd: None,
        };
        let eff = e.apply(P, DirMsg::GetX { core: 1 });
        assert_eq!(eff.invalidate, (1 << 0) | (1 << 2));
        assert_eq!(e.owner, Some(1));
        assert_eq!(e.sharers, 1 << 1);
    }

    #[test]
    fn getx_steals_from_owner() {
        let mut e = entry(&[DirMsg::GetX { core: 4 }]);
        let eff = e.apply(P, DirMsg::GetX { core: 7 });
        assert_eq!(eff.invalidate, 1 << 4);
        assert_eq!(e.owner, Some(7));
    }

    #[test]
    fn owner_writeback_clears_ownership() {
        let e = entry(&[DirMsg::GetX { core: 6 }, DirMsg::PutM { core: 6 }]);
        assert_eq!((e.owner, e.all_holders()), (None, 0));
    }

    #[test]
    fn writeback_from_non_owner_leaves_the_owner() {
        let e = entry(&[DirMsg::GetX { core: 6 }, DirMsg::PutM { core: 3 }]);
        assert_eq!(e.owner, Some(6)); // stale/spurious
    }

    #[test]
    fn replacements_owe_what_the_line_state_says() {
        let owed = |state| DirMsg::replacement(2, state);
        assert_eq!(owed(L1State::Modified), Some(DirMsg::PutM { core: 2 }));
        assert_eq!(owed(L1State::Owned), Some(DirMsg::PutM { core: 2 }));
        assert_eq!(owed(L1State::Exclusive), Some(DirMsg::PutM { core: 2 }));
        assert_eq!(owed(L1State::Forward), Some(DirMsg::PutF { core: 2 }));
        assert_eq!(owed(L1State::Shared), None);
    }
}
