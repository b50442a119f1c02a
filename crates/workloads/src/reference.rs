//! One host reference per input: the store every Table II benchmark's
//! [`Workload::verify`](raccd_runtime::Workload::verify) reads its
//! expected output from.
//!
//! A host reference is a pure function of the workload's parameter
//! struct, so the store keys it by the struct's type and its derived
//! `Debug` string. That string lists every field by construction, the
//! same rule `figures::Cell::key` uses for `MachineConfig`: two instances
//! share a reference exactly when no field tells them apart. Each key is
//! computed once per process behind its own `OnceLock`, so concurrent
//! askers of one key wait for that one computation while askers of other
//! keys go on. Entries live until the process exits (DESIGN.md §12, "One
//! reference per input", has the bytes that retains per scale).

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::{Arc, LazyLock, Mutex, OnceLock};

type Slot = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// Slots by (workload and reference type, `Debug` string of the workload).
static STORE: LazyLock<Mutex<HashMap<(TypeId, String), Slot>>> = LazyLock::new(Default::default);

/// The host reference of `workload`: `compute(workload)` the first time
/// this process asks for it, the stored value every time after.
pub(crate) fn shared<W, R>(workload: &W, compute: impl FnOnce(&W) -> R) -> Arc<R>
where
    W: Debug + 'static,
    R: Send + Sync + 'static,
{
    // The reference type is part of the key, so the downcast below holds.
    let key = (TypeId::of::<(W, R)>(), format!("{workload:?}"));
    let slot = {
        let mut store = STORE.lock().expect("nothing panics under the lock");
        Arc::clone(store.entry(key).or_default())
    };
    let value = slot.get_or_init(|| Arc::new(compute(workload)));
    Arc::clone(value)
        .downcast()
        .expect("a slot holds the reference type of its key")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[derive(Debug)]
    struct Input {
        side: u64,
    }

    #[test]
    fn eight_concurrent_askers_share_one_computation() {
        const ASKERS: usize = 8;
        let calls = AtomicUsize::new(0);
        let start = Barrier::new(ASKERS);
        let input = Input { side: 0x5EED_0008 };
        let got: Vec<Arc<Vec<u64>>> = std::thread::scope(|s| {
            let askers: Vec<_> = (0..ASKERS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        shared(&input, |w| {
                            calls.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            vec![w.side; 4]
                        })
                    })
                })
                .collect();
            askers.into_iter().map(|a| a.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(got.iter().all(|r| Arc::ptr_eq(r, &got[0])));
        assert_eq!(*got[0], vec![0x5EED_0008; 4]);
    }

    #[test]
    fn keys_tell_fields_and_reference_types_apart() {
        let (a, b) = (Input { side: 1 }, Input { side: 2 });
        assert_eq!(*shared(&a, |w| w.side * 10), 10);
        assert_eq!(*shared(&b, |w| w.side * 10), 20);
        assert_eq!(*shared(&a, |_| -> u64 { unreachable!("stored") }), 10);
        // The same input asked for another reference type is another key.
        assert_eq!(*shared(&a, |w| format!("side {}", w.side)), "side 1");
    }
}
