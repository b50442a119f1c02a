//! Whole archives under byte mutation. A mid-run checkpoint of a real
//! machine has one section's payload flipped, truncated or extended, and
//! is re-sealed (`put_raw` + `to_bytes`, so every CRC and the trailer
//! pass): what is left is a well-formed archive with damaged content.
//! `Driver::restore` must refuse it with a typed `SnapError` or restore
//! it, and never panic. A case the property finds panicking becomes a
//! typed error, and stays here as a test of its own.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;
use raccd_core::{CoherenceMode, Driver};
use raccd_sim::MachineConfig;
use raccd_snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use raccd_workloads::{all_benchmarks, Scale, Workload};

/// The two machines the property checkpoints: Jacobi under RaCCD (NC
/// lines and NCRTs) and CG under full coherence (directory entries and
/// sharers).
const CASES: [(&str, CoherenceMode); 2] = [
    ("Jacobi", CoherenceMode::Raccd),
    ("CG", CoherenceMode::FullCoh),
];

fn workload(name: &str) -> Box<dyn Workload> {
    all_benchmarks(Scale::Test)
        .into_iter()
        .find(|w| w.name() == name)
        .expect("a Table II benchmark")
}

/// The two checkpoints, taken once per process at 70 % of each run (test
/// scale Jacobi completes its first sweep of 8 tasks past 50 %), so that
/// every section holds state: tasks completed, in flight and ready,
/// directory entries and NC lines.
fn bases() -> &'static [Snapshot; 2] {
    static BASES: OnceLock<[Snapshot; 2]> = OnceLock::new();
    BASES.get_or_init(|| {
        CASES.map(|(name, mode)| {
            let driver = || {
                let program = workload(name).build();
                Driver::new(MachineConfig::scaled(), mode, program, None, None)
            };
            let cycles = driver().finish(None).stats.cycles;
            let mut d = driver();
            d.run_until(cycles * 7 / 10, None);
            let snap = d.snapshot();
            let done: Vec<usize> = snap.get("driver/completion_order").expect("section");
            assert!(
                !done.is_empty(),
                "{name}: no task completed at the checkpoint"
            );
            snap
        })
    })
}

/// One change to one section's payload.
#[derive(Clone, Debug)]
enum Edit {
    /// XOR `mask` into the byte at `at` (taken modulo the length).
    Flip { at: usize, mask: u8 },
    /// Keep the first `keep` bytes (modulo the length plus one).
    Truncate { keep: usize },
    /// Append these bytes.
    Extend { tail: Vec<u8> },
}

impl Edit {
    fn apply(&self, payload: &mut Vec<u8>) {
        match self {
            Edit::Flip { at, mask } => {
                if !payload.is_empty() {
                    let at = at % payload.len();
                    payload[at] ^= mask;
                }
            }
            Edit::Truncate { keep } => payload.truncate(keep % (payload.len() + 1)),
            Edit::Extend { tail } => payload.extend_from_slice(tail),
        }
    }
}

/// Restore checkpoint `case` with `edit` applied to section `tag`,
/// re-sealed. `Err` is a panic's message.
fn restore_edited(case: usize, tag: &str, edit: &Edit) -> Result<Result<(), SnapError>, String> {
    let mut snap = bases()[case].clone();
    let mut payload = snap.raw(tag).expect("listed tag").to_vec();
    edit.apply(&mut payload);
    snap.put_raw(tag, payload);
    let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("a re-sealed archive decodes");
    let (name, mode) = CASES[case];
    let program = workload(name).build();
    catch_unwind(AssertUnwindSafe(|| {
        Driver::restore(MachineConfig::scaled(), mode, program, &snap).map(drop)
    }))
    .map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        3 => (any::<usize>(), 1u8..255).prop_map(|(at, mask)| Edit::Flip { at, mask }),
        1 => any::<usize>().prop_map(|keep| Edit::Truncate { keep }),
        1 => proptest::collection::vec(any::<u8>(), 1..24).prop_map(|tail| Edit::Extend { tail }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn restore_of_an_edited_archive_is_ok_or_a_typed_error(
        case in 0usize..2,
        section in any::<usize>(),
        edit in edit(),
    ) {
        let tags = bases()[case].tags();
        let tag = tags[section % tags.len()];
        let got = restore_edited(case, tag, &edit);
        prop_assert!(
            got.is_ok(),
            "{:?} {} {:?}: restore panicked: {}",
            CASES[case],
            tag,
            edit,
            got.unwrap_err()
        );
    }
}

/// The unedited checkpoints restore: the property's refusals are the
/// edits', not the harness's.
#[test]
fn unedited_checkpoints_restore() {
    for (case, machine) in CASES.iter().enumerate() {
        let none = Edit::Extend { tail: vec![] };
        assert_eq!(
            restore_edited(case, "driver/mode", &none),
            Ok(Ok(())),
            "{machine:?}"
        );
    }
}

/// Edits that restore once accepted, found by driving each restored run
/// to its end: a completion order naming a task that was still queued
/// (its body was consumed at restore, so dispatching it panicked) or a
/// task completed in place of another (the run ended with tasks never
/// executed), and an event heap naming a context twice (likewise). Each
/// contradicts the task graph or the contexts, and restore refuses it.
#[test]
fn bookkeeping_the_task_graph_contradicts_is_refused() {
    let flip = |at, mask| Edit::Flip { at, mask };
    let cases = [
        (
            1,
            "driver/completion_order",
            flip(3227067845582540512, 42),
            "completion order",
        ),
        (
            1,
            "driver/completion_order",
            flip(8884163227598856656, 45),
            "completion order",
        ),
        (
            0,
            "driver/heap",
            flip(1511172563209525912, 10),
            "driver contexts",
        ),
        (
            1,
            "driver/heap",
            flip(13346836817708461960, 3),
            "driver contexts",
        ),
    ];
    for (case, tag, edit, want) in cases {
        assert_eq!(
            restore_edited(case, tag, &edit),
            Ok(Err(SnapError::Invalid(want))),
            "{:?} {tag} {edit:?}",
            CASES[case]
        );
    }
}

/// A ready queue that holds a completed task (whose body restore consumed)
/// is refused: the checkpoints' FIFO queue is a tag byte, the queued ids
/// as a length-prefixed sequence, then two counters.
#[test]
fn a_queued_completed_task_is_refused() {
    for (case, machine) in CASES.iter().enumerate() {
        let mut snap = bases()[case].clone();
        let done: Vec<usize> = snap.get("driver/completion_order").expect("section");
        let (mut r, mut w) = (
            SnapReader::new(snap.raw("driver/sched").expect("section")),
            SnapWriter::new(),
        );
        assert_eq!(r.u8(), Ok(0), "{machine:?}: a FIFO queue");
        w.u8(0);
        let queued = r.u64().expect("queue length");
        w.u64(queued + 1);
        for _ in 0..queued {
            w.u64(r.u64().expect("queued id"));
        }
        w.u64(done[0] as u64);
        w.bytes(r.bytes(r.remaining()).expect("counters"));
        snap.put_raw("driver/sched", w.into_bytes());
        let (name, mode) = *machine;
        let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("a re-sealed archive decodes");
        let restored =
            Driver::restore(MachineConfig::scaled(), mode, workload(name).build(), &snap);
        assert_eq!(
            restored.err(),
            Some(SnapError::Invalid("ready queue")),
            "{machine:?}"
        );
    }
}
