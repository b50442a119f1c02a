//! Duplicate-message delivery is idempotent for every MESIF message type.
//!
//! Mirrors `mesi_idempotence.rs` under [`ProtocolKind::Mesif`]: the
//! forward pointer makes the entry strictly richer (PutF joins the
//! message alphabet, GetS moves the pointer to the newest sharer), and
//! the fault plane's duplication site re-delivers any of these verbatim —
//! so every transition must absorb its own copy without changing state
//! or requesting new invalidations. The forward pointer itself must
//! re-derive identically under the duplicate (fwd-idempotence).

use proptest::prelude::*;
use proptest::sample::select;
use raccd_protocol::mesi::{DirMsg, EntryState};
use raccd_protocol::{ProtocolError, ProtocolKind};

const P: ProtocolKind = ProtocolKind::Mesif;

/// Arbitrary-but-valid MESIF entries: any sharer set, owner optional and
/// (when present) also a sharer; the forward pointer only exists in
/// ownerless entries and always names a sharer — the invariants the
/// machine (and the shadow checker's fwd-desync audit) maintain.
fn entry_strategy() -> impl Strategy<Value = EntryState> {
    (any::<u16>(), 0usize..17, 0usize..17).prop_map(|(sh, owner_sel, fwd_sel)| {
        let mut e = EntryState {
            sharers: sh as u64,
            owner: (owner_sel < 16).then_some(owner_sel as u8),
            fwd: None,
        };
        if let Some(o) = e.owner {
            e.sharers |= 1 << o;
        } else if fwd_sel < 16 && e.sharers & (1 << fwd_sel) != 0 {
            e.fwd = Some(fwd_sel as u8);
        }
        e
    })
}

fn msg_strategy() -> impl Strategy<Value = DirMsg> {
    (select(vec![0usize, 1, 2, 3, 4]), 0usize..16, any::<bool>()).prop_map(|(kind, core, dirty)| {
        match kind {
            0 => DirMsg::GetS { core },
            1 => DirMsg::GetX { core },
            2 => DirMsg::PutM { core },
            3 => DirMsg::PutF { core },
            _ => DirMsg::Downgrade { core, dirty },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Applying the same message twice: same final state (including the
    /// forward pointer), no new invalidations from the duplicate.
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

    /// A successful ownerless GetS hands the forward pointer to the
    /// requester, and the pointer always names a tracked sharer.
    #[test]
    fn gets_moves_forward_pointer_to_newest_sharer(e0 in entry_strategy(), core in 0usize..16) {
        let mut e = e0;
        if e.apply(P, DirMsg::GetS { core }).is_ok() && e.owner.is_none() {
            prop_assert_eq!(e.fwd, Some(core as u8), "newest sharer must take F");
        }
        if let Some(fc) = e.fwd {
            prop_assert!(e.sharers & (1 << fc) != 0, "fwd must name a tracked sharer");
        }
    }

    /// PutF from the forwarder clears both the pointer and the sharer
    /// bit; from any other core it is a no-op (stale PutF after the
    /// pointer already moved on).
    #[test]
    fn putf_clears_only_the_current_forwarder(e0 in entry_strategy(), core in 0usize..16) {
        let mut e = e0;
        let was_fwd = e.fwd == Some(core as u8);
        e.apply(P, DirMsg::PutF { core }).expect("PutF is infallible in range");
        if was_fwd {
            prop_assert_eq!(e.fwd, None);
            prop_assert_eq!(e.sharers & (1 << core), 0, "PutF notifies precisely");
        } else {
            prop_assert_eq!(e, e0, "stale PutF must be a no-op");
        }
    }

    /// Out-of-range cores are typed errors on every message type, never
    /// panics, and never mutate the entry.
    #[test]
    fn out_of_range_core_is_typed_error(e0 in entry_strategy(), core in 64usize..1000, kind in 0usize..4) {
        let msg = match kind {
            0 => DirMsg::GetS { core },
            1 => DirMsg::GetX { core },
            2 => DirMsg::PutM { core },
            _ => DirMsg::PutF { core },
        };
        let mut e = e0;
        prop_assert_eq!(e.apply(P, msg), Err(ProtocolError::CoreOutOfRange { core }));
        prop_assert_eq!(e, e0);
    }

    /// GetS against a foreign owner is still OwnerNotDowngraded under
    /// MESIF (Forward is a *clean* supplier; dirty owners downgrade
    /// first), and the error names the protocol.
    #[test]
    fn gets_against_owner_is_recoverable(owner in 0usize..16, delta in 1usize..16) {
        let requester = (owner + delta) % 16;
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
        e.apply(P, DirMsg::Downgrade { core: owner, dirty: true }).unwrap();
        let eff = e.apply(P, DirMsg::GetS { core: requester }).unwrap();
        prop_assert!(!eff.exclusive);
        prop_assert_eq!(e.fwd, Some(requester as u8), "retry hands F to the requester");
    }

    /// The sole reader of an uncached entry is granted Exclusive and
    /// recorded as owner, with no forward pointer (F only exists beside
    /// other sharers) — what the machine has always done. Its duplicate
    /// is a no-op, and a later foreign GetS must downgrade it first.
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
        prop_assert!(matches!(
            e.apply(P, DirMsg::GetS { core: other }),
            Err(ProtocolError::OwnerNotDowngraded { protocol: P, requester, .. }) if requester == other
        ));
        prop_assert_eq!(e, granted);
    }
}
