//! Duplicate-message delivery is idempotent for every MESI message type.
//!
//! The fault plane's duplication site re-delivers a directory-bound
//! message verbatim. The directory must absorb the copy without changing
//! state: if the first [`DirMsg`] application succeeds, applying the same
//! message again must succeed and leave the entry bit-identical, and the
//! duplicate must never request *new* invalidations (spurious
//! invalidations to cores that already got one are the only permitted
//! residue, and those are harmless under silent evictions).

use proptest::prelude::*;
use proptest::sample::select;
use raccd_protocol::mesi::{DirMsg, EntryState};
use raccd_protocol::{ProtocolError, ProtocolKind};

const P: ProtocolKind = ProtocolKind::Mesi;

/// Arbitrary-but-valid entry states: any sharer set, owner optional and
/// (when present) also a sharer, as the machine maintains it.
fn entry_strategy() -> impl Strategy<Value = EntryState> {
    // owner_sel 16 means "no owner", 0..16 selects that core as owner.
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
                let eff2 = twice.apply(P, msg).expect("duplicate of a legal message must be legal");
                prop_assert_eq!(once, twice, "state changed under duplicate delivery of {:?}", msg);
                // The duplicate may only re-request invalidations already
                // requested by the original (spurious but harmless).
                prop_assert_eq!(
                    eff2.invalidate & !eff1.invalidate, 0,
                    "duplicate requested NEW invalidations"
                );
            }
            Err(_) => {
                // A rejected message must not have mutated the entry, so
                // its duplicate fails identically.
                prop_assert_eq!(e0, once, "failed apply mutated the entry");
                prop_assert_eq!(twice.apply(P, msg), first);
            }
        }
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

    /// GetS against a foreign owner is OwnerNotDowngraded, not an abort.
    #[test]
    fn gets_against_owner_is_recoverable(owner in 0usize..16, delta in 1usize..16, dirty in any::<bool>()) {
        let requester = (owner + delta) % 16; // always != owner
        let mut e = EntryState::uncached();
        e.apply(P, DirMsg::GetX { core: owner }).unwrap();
        let before = e;
        prop_assert_eq!(
            e.apply(P, DirMsg::GetS { core: requester }),
            Err(ProtocolError::OwnerNotDowngraded {
                protocol: P,
                state: before.state(),
                owner: owner as u8,
                requester,
            })
        );
        prop_assert_eq!(e, before, "rejected GetS must not mutate");
        // A downgrade from anyone but the owner is stale and ignored.
        e.apply(P, DirMsg::Downgrade { core: requester, dirty }).unwrap();
        prop_assert_eq!(e, before);
        // After the owner's downgrade (dirty or clean: MESI writes dirty
        // data back) the retry succeeds — the NACK+retry path.
        e.apply(P, DirMsg::Downgrade { core: owner, dirty }).unwrap();
        prop_assert_eq!(e.owner, None);
        let eff = e.apply(P, DirMsg::GetS { core: requester }).unwrap();
        prop_assert!(!eff.exclusive, "the old owner still shares");
        prop_assert_eq!(e.sharers, 1 << owner | 1 << requester);
    }

    /// The sole reader of an uncached entry is granted Exclusive and
    /// recorded as owner (so a later silent E→M write stays tracked) —
    /// what the machine has always done. Its duplicate is a no-op, and a
    /// later foreign GetS must downgrade it first.
    #[test]
    fn first_reader_owns_the_block(core in 0usize..16, delta in 1usize..16) {
        let other = (core + delta) % 16;
        let mut e = EntryState::uncached();
        let eff = e.apply(P, DirMsg::GetS { core }).unwrap();
        prop_assert!(eff.exclusive);
        prop_assert_eq!(eff.invalidate, 0);
        prop_assert_eq!(e, EntryState { sharers: 1 << core, owner: Some(core as u8), fwd: None });
        let granted = e;
        prop_assert_eq!(e.apply(P, DirMsg::GetS { core }), Ok(eff), "re-granted, not re-recorded");
        prop_assert_eq!(e, granted);
        prop_assert!(matches!(
            e.apply(P, DirMsg::GetS { core: other }),
            Err(ProtocolError::OwnerNotDowngraded { protocol: P, requester, .. }) if requester == other
        ));
        prop_assert_eq!(e, granted);
    }
}
