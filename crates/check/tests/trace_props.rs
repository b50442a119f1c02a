//! The counterexample trace format is total. Trace text built from
//! header, `cfg`, `fault` and `op` lines, values at and past each bound,
//! and token soup never panics `trace::parse`: it is refused with an
//! `Err`, or admitted, in which case it re-serialises and re-parses to the
//! same machine, fault plan and operations, and `replay` runs it to the
//! end under every `protocol=` value.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use raccd_check::trace::{parse, replay, serialize};
use raccd_sim::ProtocolKind;

const HEADER: &str = "# raccd-check trace v2";

/// `cfg` items: small machines (a replay builds one), values at and past
/// each bound, and keys the format does not know.
const CFG_ITEMS: [&str; 26] = [
    "protocol=mesi",
    "protocol=MESIF",
    "protocol=moesi",
    "protocol=mosi",
    "topology=numa2",
    "topology=mesh",
    "mesh_k=1",
    "mesh_k=2",
    "mesh_k=0",
    "mesh_k=9",
    "llc=1",
    "llc=32",
    "llc=0",
    "dir_ways=1",
    "dir_ways=2",
    "dir_ways=3",
    "ratio=1",
    "ratio=256",
    "ratio=0",
    "wt=1",
    "adr=1",
    "smt=2",
    "l1_bytes=64",
    "l1_bytes=63",
    "sched=steal",
    "bogus=1",
];

/// `fault spec=` values: admitted plans, injection-free and rate-bearing,
/// and refused ones.
const SPECS: [&str; 6] = [
    "",
    "seed=7",
    "seed=3;drop=0.2;delay=0.1:16;retry_budget=2",
    "seed=1;dup=0.5;dirloss=0.05",
    "drop=2",
    "seed",
];

/// `op` fields: cores, blocks and pages at and past the machine's and
/// the number's bounds.
const OP_FIELDS: [&str; 21] = [
    "core=0",
    "core=1",
    "core=3",
    "core=7",
    "core=64",
    "core=-1",
    "block=0x40",
    "block=0x41",
    "block=0",
    "block=0xffffffffffffffff",
    "block=0x",
    "block=18446744073709551616",
    "page=0x1",
    "page=0xffffffffffffffff",
    "write=1",
    "write=0",
    "write=x",
    "nc=1",
    "nc=0",
    "nc=99",
    "junk",
];

/// A `cfg` line of a few items.
fn cfg_line() -> impl Strategy<Value = String> {
    vec(select(CFG_ITEMS.to_vec()), 0..5).prop_map(|items| {
        std::iter::once("cfg")
            .chain(items)
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// An `op` line: a kind and the fields each kind takes, or others.
fn op_line() -> impl Strategy<Value = String> {
    let kind = select(vec!["access", "flushnc", "flushpage", "load", ""]);
    (kind, vec(select(OP_FIELDS.to_vec()), 0..6)).prop_map(|(kind, fields)| {
        let fields = match kind {
            "access" => [&fields[..], &["core=0", "block=0x40", "write=0", "nc=0"]].concat(),
            "flushpage" => [&fields[..], &["core=1", "page=0x1"]].concat(),
            _ => [&fields[..], &["core=0"]].concat(),
        };
        format!("op {kind} {}", fields.join(" "))
    })
}

/// One line of a trace: mostly well-formed, some token soup.
fn line() -> impl Strategy<Value = String> {
    let soup = [
        &CFG_ITEMS[..],
        &SPECS[..],
        &OP_FIELDS[..],
        &["cfg", "op", "fault", "spec=", "#", HEADER, "=", "\t"],
    ]
    .concat();
    prop_oneof![
        2 => cfg_line(),
        1 => select(SPECS.to_vec()).prop_map(|spec| format!("fault spec={spec}")),
        8 => op_line(),
        1 => vec(select(soup), 0..8).prop_map(|tokens| tokens.join(" ")),
    ]
}

/// Trace text: the header (or, now and then, not), a `cfg` line, then
/// any lines.
fn soup_trace() -> impl Strategy<Value = String> {
    let header = prop_oneof![
        8 => Just(HEADER),
        1 => Just("# raccd-check trace v1"),
        1 => Just(""),
    ];
    (header, cfg_line(), vec(line(), 0..24))
        .prop_map(|(header, cfg, lines)| format!("{header}\n{cfg}\n{}\n", lines.join("\n")))
}

/// `cfg` items a four- or eight-core machine admits.
const ADMITTED_ITEMS: [&str; 12] = [
    "topology=numa2",
    "topology=mesh",
    "llc=8",
    "llc=32",
    "dir_ways=2",
    "ratio=8",
    "ratio=256",
    "wt=1",
    "adr=1",
    "smt=2",
    "l1_bytes=128",
    "sched=steal",
];

/// A well-formed operation on one of four cores.
fn admitted_op() -> impl Strategy<Value = String> {
    let block = select(vec![
        "0x40",
        "0x41",
        "0x80",
        "0x1000",
        "0",
        "0xffffffffffffffff",
    ]);
    let page = select(vec!["0x1", "0x0", "0x40", "0xffffffffffffffff"]);
    prop_oneof![
        8 => (0usize..4, block, 0usize..2, 0usize..2).prop_map(|(core, block, write, nc)| {
            format!("op access core={core} block={block} write={write} nc={nc}")
        }),
        1 => (0usize..4).prop_map(|core| format!("op flushnc core={core}")),
        1 => (0usize..4, page).prop_map(|(core, page)| format!("op flushpage core={core} page={page}")),
    ]
}

/// A trace its writer could have written: the header, a `cfg` line for
/// a machine of 2×2 tiles per socket, at times a `fault` line, and up to
/// 64 operations, with now and then a comment or a blank line.
fn admitted_trace() -> impl Strategy<Value = String> {
    let items = vec(select(ADMITTED_ITEMS.to_vec()), 0..4);
    let fault = prop_oneof![
        4 => Just(None),
        1 => select(SPECS[..4].to_vec()).prop_map(Some),
    ];
    let lines = prop_oneof![
        40 => admitted_op(),
        2 => Just("# note".into()),
        2 => Just(String::new()),
        1 => Just("cfg mesh_k=1".into()),
    ];
    let lines = vec(lines, 0..68);
    (items, fault, lines).prop_map(|(items, fault, lines)| {
        let fault = fault.map_or(String::new(), |spec| format!("fault spec={spec}\n"));
        let (items, lines) = (items.join(" "), lines.join("\n"));
        format!("{HEADER}\ncfg mesh_k=2 {items}\n{fault}{lines}\n")
    })
}

/// Trace text, about half of it admitted.
fn trace() -> impl Strategy<Value = String> {
    prop_oneof![soup_trace(), admitted_trace()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Parsing refuses or admits, never panics; what it admits round-trips
    /// through `serialize` to the same configuration, plan and operations.
    #[test]
    fn parse_refuses_or_round_trips(text in trace()) {
        if let Ok((cfg, plan, ops)) = parse(&text) {
            let again = serialize(&cfg, plan.as_ref(), &ops);
            let (cfg2, plan2, ops2) = parse(&again).unwrap_or_else(|e| panic!("{e}:\n{again}"));
            prop_assert_eq!(format!("{cfg2:?}"), format!("{cfg:?}"), "{}", text);
            prop_assert_eq!((plan2, ops2), (plan, ops), "{}", text);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// An admitted trace of at most 64 operations replays to its end, with
    /// the shadow checker and any fault plane attached, under every
    /// protocol: each `cfg` line names the case's protocol.
    #[test]
    fn admitted_traces_replay(
        protocol in select(ProtocolKind::ALL.to_vec()),
        text in trace(),
    ) {
        let named = |line: &str| {
            if line.starts_with("cfg") {
                format!("{line} protocol={protocol}\n")
            } else {
                format!("{line}\n")
            }
        };
        let text: String = text.lines().map(named).collect();
        if let Ok((cfg, plan, ops)) = parse(&text) {
            prop_assert_eq!(cfg.protocol, protocol);
            if ops.len() <= 64 {
                let mut m = replay(cfg, plan.as_ref(), &ops);
                m.drain_violations();
                prop_assert!(!m.state_key().is_empty());
            }
        }
    }
}
