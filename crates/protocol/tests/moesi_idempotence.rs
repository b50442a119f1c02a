//! Duplicate-message delivery is idempotent for every MOESI message type.
//!
//! Mirrors `mesi_idempotence.rs` under [`ProtocolKind::Moesi`]: the
//! defining difference is that a GetS against a foreign owner is *legal*
//! — the owner's line downgrades M→O and keeps supplying dirty data, so
//! the directory records the requester as a plain sharer while the owner
//! pointer survives. Both that path and the owner-preserving Downgrade
//! must absorb duplicated deliveries without changing state.

use proptest::prelude::*;
use proptest::sample::select;
use raccd_protocol::mesi::{DirMsg, EntryState};
use raccd_protocol::{ProtocolError, ProtocolKind};

const P: ProtocolKind = ProtocolKind::Moesi;

/// Arbitrary-but-valid MOESI entries: any sharer set, owner optional and
/// (when present) also a sharer. No forward pointer — MOESI supplies
/// shared data from the (dirty) owner, not a designated clean sharer.
fn entry_strategy() -> impl Strategy<Value = EntryState> {
    (any::<u16>(), 0usize..17).prop_map(|(sh, owner_sel)| {
        let mut e = EntryState {
            sharers: sh as u64,
            owner: (owner_sel < 16).then_some(owner_sel as u8),
            fwd: None,
        };
        if let Some(o) = e.owner {
            e.sharers |= 1 << o;
        }
        e
    })
}

fn msg_strategy() -> impl Strategy<Value = DirMsg> {
    (select(vec![0usize, 1, 2, 3]), 0usize..16, any::<bool>()).prop_map(|(kind, core, dirty)| {
        match kind {
            0 => DirMsg::GetS { core },
            1 => DirMsg::GetX { core },
            2 => DirMsg::PutM { core },
            _ => DirMsg::Downgrade { core, dirty },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Applying the same message twice: same final state, no new
    /// invalidations from the duplicate.
    #[test]
    fn duplicate_delivery_is_idempotent(e0 in entry_strategy(), msg in msg_strategy()) {
        let mut once = e0;
        let first = once.apply(P, msg);
        let mut twice = once;
        match first {
            Ok(eff1) => {
                let eff2 = twice
                    .apply(P, msg)
                    .expect("duplicate of a legal message must be legal");
                prop_assert_eq!(once, twice, "state changed under duplicate delivery of {:?}", msg);
                prop_assert_eq!(
                    eff2.invalidate & !eff1.invalidate, 0,
                    "duplicate requested NEW invalidations"
                );
            }
            Err(_) => {
                prop_assert_eq!(e0, once, "failed apply mutated the entry");
                prop_assert_eq!(twice.apply(P, msg), first);
            }
        }
    }

    /// The MOESI signature move: a foreign GetS against an owned entry
    /// succeeds, records the requester as a non-exclusive sharer, and the
    /// owner pointer survives — under arbitrary re-delivery.
    #[test]
    fn gets_against_owner_keeps_owner(owner in 0usize..16, delta in 1usize..16) {
        let requester = (owner + delta) % 16;
        let mut e = EntryState::uncached();
        e.apply(P, DirMsg::GetX { core: owner }).unwrap();
        for _ in 0..2 {
            let eff = e
                .apply(P, DirMsg::GetS { core: requester })
                .expect("MOESI dirty sharing: foreign GetS is legal");
            prop_assert!(!eff.exclusive);
            prop_assert_eq!(e.owner, Some(owner as u8), "owner pointer must survive");
            prop_assert!(e.sharers & (1 << requester) != 0);
        }
        // The L1-side M→O downgrade of a dirty copy is
        // directory-invisible: the owner pointer stays in place.
        let shared = e;
        e.apply(P, DirMsg::Downgrade { core: owner, dirty: true }).unwrap();
        prop_assert_eq!(e, shared);
        // A clean owner (E) has nothing to keep supplying: it drops to a
        // plain sharer exactly as under MESI.
        let mut clean = shared;
        clean.apply(P, DirMsg::Downgrade { core: owner, dirty: false }).unwrap();
        prop_assert_eq!((clean.owner, clean.sharers), (None, shared.sharers));
        // Otherwise only the owner's own write-back clears the pointer.
        e.apply(P, DirMsg::PutM { core: owner }).unwrap();
        prop_assert_eq!(e.owner, None);
    }

    /// The sole reader of an uncached entry is granted Exclusive and
    /// recorded as owner — what the machine has always done. Its
    /// duplicate is a no-op, and a later foreign GetS is a keep-owner
    /// share.
    #[test]
    fn first_reader_owns_the_block(core in 0usize..16, delta in 1usize..16) {
        let other = (core + delta) % 16;
        let mut e = EntryState::uncached();
        let eff = e.apply(P, DirMsg::GetS { core }).unwrap();
        prop_assert!(eff.exclusive);
        prop_assert_eq!(e, EntryState { sharers: 1 << core, owner: Some(core as u8), fwd: None });
        let granted = e;
        prop_assert_eq!(e.apply(P, DirMsg::GetS { core }), Ok(eff), "re-granted, not re-recorded");
        prop_assert_eq!(e, granted);
        let eff = e.apply(P, DirMsg::GetS { core: other }).unwrap();
        prop_assert!(!eff.exclusive);
        prop_assert_eq!(e, EntryState { sharers: 1 << core | 1 << other, ..granted });
    }

    /// Out-of-range cores are typed errors on every message type, never
    /// panics, and never mutate the entry.
    #[test]
    fn out_of_range_core_is_typed_error(e0 in entry_strategy(), core in 64usize..1000, kind in 0usize..3) {
        let msg = match kind {
            0 => DirMsg::GetS { core },
            1 => DirMsg::GetX { core },
            _ => DirMsg::PutM { core },
        };
        let mut e = e0;
        prop_assert_eq!(e.apply(P, msg), Err(ProtocolError::CoreOutOfRange { core }));
        prop_assert_eq!(e, e0);
    }

    /// A GetX invalidates every other holder — owner included — exactly
    /// once; the duplicate may only repeat the original's set.
    #[test]
    fn getx_invalidates_all_other_holders(e0 in entry_strategy(), core in 0usize..16) {
        let mut e = e0;
        let eff = e.apply(P, DirMsg::GetX { core }).expect("in-range GetX is legal");
        prop_assert_eq!(eff.invalidate, e0.all_holders() & !(1 << core));
        prop_assert_eq!(e.owner, Some(core as u8));
        prop_assert_eq!(e.sharers, 1 << core);
    }
}
