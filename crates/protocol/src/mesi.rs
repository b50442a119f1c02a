//! Directory-side MESI state.
//!
//! The directory tracks, per coherent block, which private caches hold it.
//! With silent clean evictions (Table I), sharer bits may be stale — a core
//! listed as sharer may have silently dropped the line; a later invalidation
//! to it is then spurious but harmless. The owner pointer (a core in E or M)
//! is always precise because E/M replacements write back / notify.
//!
//! An entry has exactly one mutator, the directory transition function
//! [`EntryState::apply`]: (entry, [`DirMsg`], protocol rules) → (next
//! entry, [`ApplyEffect`]) or a typed [`ProtocolError`] for a malformed
//! transition. `raccd-sim`'s `Machine` calls it for every directory-side
//! step of a fill, an upgrade, a replacement and a lost-entry recovery, so
//! the function property-tested here is the one the simulator runs. The
//! fault plane relies on it: a duplicated NoC message re-delivers the same
//! [`DirMsg`], and `apply` is idempotent under re-delivery for every
//! protocol (`tests/{mesi,mesif,moesi}_idempotence.rs`).

use crate::error::ProtocolError;
use crate::kind::ProtocolKind;
use raccd_cache::L1State;

/// Directory-visible state of a tracked block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No private cache holds the block; the LLC has the only on-chip copy.
    Uncached,
    /// One or more private caches may hold the block read-only.
    Shared,
    /// Exactly one private cache holds the block in E or M (or, under
    /// MOESI, dirty-shares it in O).
    Owned,
}

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

    /// Directory state implied by the tracking fields.
    pub fn state(&self) -> DirState {
        if self.owner.is_some() {
            DirState::Owned
        } else if self.sharers != 0 {
            DirState::Shared
        } else {
            DirState::Uncached
        }
    }

    /// All private copies (sharers + owner) as a bitmask — the set to
    /// invalidate when this entry is evicted for inclusion.
    pub fn all_holders(&self) -> u64 {
        self.sharers | self.owner.map_or(0, |o| 1 << o)
    }

    /// Apply one directory-bound message under `protocol`, returning its
    /// side effects or a typed error (entry untouched) for a malformed
    /// transition. Duplicate delivery of any message leaves the entry in
    /// the same state — the receiver-side property the fault plane's
    /// duplication site relies on.
    pub fn apply(
        &mut self,
        protocol: ProtocolKind,
        msg: DirMsg,
    ) -> Result<ApplyEffect, ProtocolError> {
        let rules = protocol.rules();
        // MOESI: a dirty owner downgrades to O and keeps the pointer.
        let dirty_owner_stays = rules.dirty_downgrade == L1State::Owned;
        let (DirMsg::GetS { core }
        | DirMsg::GetX { core }
        | DirMsg::PutM { core }
        | DirMsg::PutF { core }
        | DirMsg::Downgrade { core, .. }) = msg;
        if core >= 64 {
            return Err(ProtocolError::CoreOutOfRange { core });
        }
        let (me, bit) = (Some(core as u8), 1u64 << core);
        let granted = EntryState {
            sharers: bit,
            owner: me,
            fwd: None,
        };
        let mut effect = ApplyEffect::default();
        match msg {
            DirMsg::GetS { .. } => match self.owner {
                // The owner re-reading its own block (a duplicated GetS,
                // or a copy dropped behind the directory's back): it
                // holds, or is re-granted, E/M/O; nothing to change.
                Some(_) if self.owner == me => effect.exclusive = true,
                // Dirty sharing: the owner's line is O, the requester
                // records as a plain sharer.
                Some(_) if dirty_owner_stays => self.sharers |= bit,
                Some(owner) => {
                    return Err(ProtocolError::OwnerNotDowngraded {
                        protocol,
                        state: self.state(),
                        owner,
                        requester: core,
                    })
                }
                // Sole reader: grant Exclusive and record ownership, so a
                // later silent E→M write stays tracked.
                None if self.sharers == 0 => {
                    *self = granted;
                    effect.exclusive = true;
                }
                // Existing (possibly stale) sharers. MESIF: the newest
                // sharer takes the forward pointer.
                None => {
                    self.sharers |= bit;
                    if rules.shared_fill == L1State::Forward {
                        self.fwd = me;
                    }
                }
            },
            // The writer becomes the owner; every other holder (and any
            // forward pointer) goes.
            DirMsg::GetX { .. } => {
                effect = ApplyEffect {
                    exclusive: true,
                    invalidate: self.all_holders() & !bit,
                };
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
            // The owner becomes a plain sharer, unless its dirty copy
            // stays Owned and keeps answering snoops.
            DirMsg::Downgrade { dirty, .. } => {
                if self.owner == me && !(dirty && dirty_owner_stays) {
                    self.owner = None;
                    self.sharers |= bit;
                }
            }
        }
        Ok(effect)
    }
}

/// A directory-bound coherence message, as re-deliverable by the fault
/// plane's duplication site. Every message names the core it came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirMsg {
    /// Read request from `core`.
    GetS {
        /// Requesting core.
        core: usize,
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
    /// Owner `core` answered a forwarded GetS and downgraded its copy.
    /// It becomes a plain sharer — except under MOESI when its copy was
    /// `dirty`: that downgrade is L1-side only (M→O) and the directory's
    /// owner pointer survives. From a non-owner the message is stale and
    /// ignored.
    Downgrade {
        /// The downgraded owner.
        core: usize,
        /// Whether its copy was dirty (M or O) when the snoop arrived.
        dirty: bool,
    },
}

/// Side effects of applying one [`DirMsg`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyEffect {
    /// The requester may install the line Exclusive.
    pub exclusive: bool,
    /// Bitmask of cores that must receive invalidations.
    pub invalidate: u64,
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

    fn entry(msgs: &[DirMsg]) -> EntryState {
        let mut e = EntryState::uncached();
        for &m in msgs {
            e.apply(P, m).expect("legal");
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
        assert_eq!(e.state(), DirState::Uncached);
        assert_eq!(e.all_holders(), 0);
    }

    #[test]
    fn first_reader_is_granted_exclusive_and_owns() {
        let mut e = EntryState::uncached();
        let eff = e.apply(P, DirMsg::GetS { core: 3 }).unwrap();
        assert!(eff.exclusive, "first sharer takes E");
        assert_eq!((e.state(), e.owner), (DirState::Owned, Some(3)));
        e.apply(
            P,
            DirMsg::Downgrade {
                core: 3,
                dirty: false,
            },
        )
        .unwrap();
        let eff = e.apply(P, DirMsg::GetS { core: 5 }).unwrap();
        assert!(!eff.exclusive, "second sharer must take S");
        assert_eq!(e.sharers, (1 << 3) | (1 << 5));
        assert_eq!(e.state(), DirState::Shared);
    }

    #[test]
    fn getx_invalidates_other_sharers() {
        let mut e = EntryState {
            sharers: 0b111,
            owner: None,
            fwd: None,
        };
        let eff = e.apply(P, DirMsg::GetX { core: 1 }).unwrap();
        assert_eq!(eff.invalidate, (1 << 0) | (1 << 2));
        assert_eq!(e.state(), DirState::Owned);
        assert_eq!(e.owner, Some(1));
        assert_eq!(e.sharers, 1 << 1);
    }

    #[test]
    fn getx_steals_from_owner() {
        let mut e = entry(&[DirMsg::GetX { core: 4 }]);
        let eff = e.apply(P, DirMsg::GetX { core: 7 }).unwrap();
        assert_eq!(eff.invalidate, 1 << 4);
        assert_eq!(e.owner, Some(7));
    }

    #[test]
    fn owner_writeback_clears_ownership() {
        let e = entry(&[DirMsg::GetX { core: 6 }, DirMsg::PutM { core: 6 }]);
        assert_eq!(e.state(), DirState::Uncached);
        assert_eq!(e.all_holders(), 0);
    }

    #[test]
    fn writeback_or_downgrade_from_non_owner_leaves_the_owner() {
        let dg = DirMsg::Downgrade {
            core: 3,
            dirty: true,
        };
        let e = entry(&[DirMsg::GetX { core: 6 }, DirMsg::PutM { core: 3 }, dg]);
        assert_eq!(e.owner, Some(6)); // both stale/spurious
    }
}
