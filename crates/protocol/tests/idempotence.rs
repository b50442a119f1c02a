//! Duplicate-message delivery is idempotent under every protocol, and the
//! transition function's effect names each protocol's decisions.
//!
//! The fault plane's duplication site re-delivers a directory-bound
//! message verbatim. The directory must absorb the copy without changing
//! state: applying the same [`DirMsg`] again must leave the entry
//! bit-identical, and the duplicate must never request *new*
//! invalidations (spurious invalidations to cores that already got one
//! are the only permitted residue, and those are harmless under silent
//! evictions). Every property is quantified over [`ProtocolKind::ALL`];
//! entries carry a forward pointer only under MESIF.

use proptest::prelude::*;
use proptest::sample::select;
use raccd_cache::L1State;
use raccd_protocol::mesi::{DirMsg, EntryState};
use raccd_protocol::{Downgrade, ProtocolKind};

fn protocol() -> impl Strategy<Value = ProtocolKind> {
    select(ProtocolKind::ALL.to_vec())
}

/// Arbitrary-but-valid entries: any sharer set, owner optional and (when
/// present) also a sharer; under MESIF a forward pointer in ownerless
/// entries, always naming a sharer — the invariants the machine (and the
/// shadow checker's fwd-desync audit) maintain.
fn entry(kind: ProtocolKind) -> impl Strategy<Value = EntryState> {
    (any::<u16>(), 0usize..17, 0usize..17).prop_map(move |(sh, owner_sel, fwd_sel)| {
        let mut e = EntryState {
            sharers: sh as u64,
            owner: (owner_sel < 16).then_some(owner_sel as u8),
            fwd: None,
        };
        if let Some(o) = e.owner {
            e.sharers |= 1 << o;
        } else if kind == ProtocolKind::Mesif && fwd_sel < 16 && e.sharers & (1 << fwd_sel) != 0 {
            e.fwd = Some(fwd_sel as u8);
        }
        e
    })
}

fn msg() -> impl Strategy<Value = DirMsg> {
    (0usize..4, 0usize..16, any::<bool>()).prop_map(|(kind, core, owner_dirty)| match kind {
        0 => DirMsg::GetS { core, owner_dirty },
        1 => DirMsg::GetX { core },
        2 => DirMsg::PutM { core },
        _ => DirMsg::PutF { core },
    })
}

/// A protocol with an entry of it.
fn protocol_and_entry() -> impl Strategy<Value = (ProtocolKind, EntryState)> {
    protocol().prop_flat_map(|kind| entry(kind).prop_map(move |e| (kind, e)))
}

fn gets(core: usize, owner_dirty: bool) -> DirMsg {
    DirMsg::GetS { core, owner_dirty }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Applying the same message twice: same final state (the forward
    /// pointer included), no new invalidations from the duplicate.
    #[test]
    fn duplicate_delivery_is_idempotent(case in protocol_and_entry(), msg in msg()) {
        let (kind, e0) = case;
        let mut once = e0;
        let first = once.apply(kind, msg);
        let mut twice = once;
        let second = twice.apply(kind, msg);
        prop_assert_eq!(once, twice, "{} changed state under duplicate delivery of {:?}", kind, msg);
        prop_assert_eq!(
            second.invalidate & !first.invalidate, 0,
            "{} duplicate requested NEW invalidations", kind
        );
    }

    /// The folded read: a duplicate GetS after a foreign owner's downgrade
    /// reports no second downgrade, no forwarder and no invalidations. A
    /// dirty MOESI owner is not downgraded twice either: it stays Owned
    /// and is asked again for the data, with no write-back.
    #[test]
    fn duplicate_gets_downgrades_the_owner_once(
        kind in protocol(),
        owner in 0usize..16,
        delta in 1usize..16,
        owner_dirty: bool,
    ) {
        let requester = (owner + delta) % 16;
        let mut e = EntryState::uncached();
        e.apply(kind, DirMsg::GetX { core: owner });
        let first = e.apply(kind, gets(requester, owner_dirty));
        prop_assert!(first.downgrade.is_some(), "{} asks the foreign owner", kind);
        let after = e;
        let second = e.apply(kind, gets(requester, owner_dirty));
        prop_assert_eq!(e, after);
        prop_assert_eq!((second.invalidate, second.forwarder), (0, None));
        let keeps_owned = Downgrade { core: owner, to: L1State::Owned, write_back: false };
        match second.downgrade {
            None => {}
            Some(dg) => prop_assert_eq!(dg, keeps_owned, "{} downgraded twice", kind),
        }
    }

    /// A read against a foreign owner downgrades it as the protocol says:
    /// a clean owner drops to S; a dirty one writes back and drops to S,
    /// except under MOESI, where it stays Owned and keeps the pointer. The
    /// requester becomes a sharer and fills S — F under MESIF, which moves
    /// the forward pointer to it.
    #[test]
    fn foreign_owner_read_downgrades_as_the_protocol_says(
        kind in protocol(),
        owner in 0usize..16,
        delta in 1usize..16,
        owner_dirty: bool,
    ) {
        let requester = (owner + delta) % 16;
        let mut e = EntryState::uncached();
        e.apply(kind, DirMsg::GetX { core: owner });
        let eff = e.apply(kind, gets(requester, owner_dirty));
        let keeps = owner_dirty && kind == ProtocolKind::Moesi;
        let to = if keeps { L1State::Owned } else { L1State::Shared };
        let write_back = owner_dirty && !keeps;
        prop_assert_eq!(eff.downgrade, Some(Downgrade { core: owner, to, write_back }));
        prop_assert!(!eff.exclusive);
        prop_assert_eq!(e.owner, keeps.then_some(owner as u8), "{}", kind);
        prop_assert_eq!(e.sharers, 1 << owner | 1 << requester);
        let (fill, fwd) = match kind {
            ProtocolKind::Mesif => (L1State::Forward, Some(requester as u8)),
            _ => (L1State::Shared, None),
        };
        prop_assert_eq!((eff.shared_fill, e.fwd), (Some(fill), fwd));
        // Only the owner's own replacement clears a pointer that stayed.
        e.apply(kind, DirMsg::PutM { core: owner });
        prop_assert_eq!(e.owner, None);
    }

    /// A read no core owns: MESIF hands the forward pointer to the newest
    /// sharer and asks the previous forwarder, if another core, to supply
    /// and drop to S; the pointer always names a tracked sharer.
    #[test]
    fn gets_moves_forward_pointer_to_newest_sharer(
        case in protocol_and_entry(),
        core in 0usize..16,
        owner_dirty: bool,
    ) {
        let (kind, e0) = case;
        let mut e = e0;
        let eff = e.apply(kind, gets(core, owner_dirty));
        if kind != ProtocolKind::Mesif {
            prop_assert_eq!((e.fwd, eff.forwarder), (None, None));
        } else if e.owner.is_none() {
            prop_assert_eq!(e.fwd, Some(core as u8), "newest sharer must take F");
            let asked = e0.fwd.filter(|&f| f != core as u8 && e0.owner.is_none());
            let asked = asked.map(|f| Downgrade { core: f.into(), to: L1State::Shared, write_back: false });
            prop_assert_eq!(eff.forwarder, asked);
        }
        if let Some(fc) = e.fwd {
            prop_assert!(e.sharers & (1 << fc) != 0, "fwd must name a tracked sharer");
        }
    }

    /// PutF from the forwarder clears both the pointer and the sharer
    /// bit; from any other core it is a no-op (stale PutF after the
    /// pointer already moved on).
    #[test]
    fn putf_clears_only_the_current_forwarder(case in protocol_and_entry(), core in 0usize..16) {
        let (kind, e0) = case;
        let mut e = e0;
        let was_fwd = e.fwd == Some(core as u8);
        prop_assert_eq!(e.apply(kind, DirMsg::PutF { core }), Default::default());
        if was_fwd {
            prop_assert_eq!(e.fwd, None);
            prop_assert_eq!(e.sharers & (1 << core), 0, "PutF notifies precisely");
        } else {
            prop_assert_eq!(e, e0, "stale PutF must be a no-op");
        }
    }

    /// A GetX invalidates every other holder — owner included — exactly
    /// once, and leaves the writer the sole owner.
    #[test]
    fn getx_invalidates_all_other_holders(case in protocol_and_entry(), core in 0usize..16) {
        let (kind, e0) = case;
        let mut e = e0;
        let eff = e.apply(kind, DirMsg::GetX { core });
        prop_assert!(eff.exclusive);
        prop_assert_eq!(eff.invalidate, e0.all_holders() & !(1 << core));
        prop_assert_eq!(e, EntryState { sharers: 1 << core, owner: Some(core as u8), fwd: None });
    }

    /// The sole reader of an uncached entry is granted Exclusive and
    /// recorded as owner (so a later silent E→M write stays tracked), with
    /// no forward pointer (F only exists beside other sharers). Its
    /// duplicate is a no-op, and a later foreign read downgrades it.
    #[test]
    fn first_reader_owns_the_block(
        kind in protocol(),
        core in 0usize..16,
        delta in 1usize..16,
        owner_dirty: bool,
    ) {
        let other = (core + delta) % 16;
        let mut e = EntryState::uncached();
        let eff = e.apply(kind, gets(core, owner_dirty));
        prop_assert!(eff.exclusive);
        prop_assert_eq!((eff.invalidate, eff.shared_fill), (0, None));
        prop_assert_eq!(e, EntryState { sharers: 1 << core, owner: Some(core as u8), fwd: None });
        let granted = e;
        prop_assert_eq!(e.apply(kind, gets(core, owner_dirty)), eff, "re-granted, not re-recorded");
        prop_assert_eq!(e, granted);
        let eff = e.apply(kind, gets(other, false));
        prop_assert!(!eff.exclusive);
        prop_assert_eq!(eff.downgrade.map(|dg| dg.core), Some(core));
    }
}
