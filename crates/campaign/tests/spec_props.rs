//! The job line grammar is total. A line built from its keys, values at,
//! inside and just past each bound, fault spec fragments and junk never
//! panics
//! `JobSpec::parse`: it is refused, or read as a spec whose rendered line
//! parses back to the same spec.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use raccd_campaign::JobSpec;
use raccd_sim::config::{JOB_KEYS, KEYS};

/// The line's own keys past the machine keys, plus one it does not know.
const LINE_KEYS: [&str; 8] = [
    "bench", "scale", "mode", "warmup", "fault", "seeds", "engine", "bogus",
];

/// Values at and just past each key's bounds, every enumerated label,
/// fault spec fragments, and junk.
const VALUES: [&str; 46] = [
    "0",
    "1",
    "2",
    "3",
    "8",
    "16",
    "85",
    "256",
    "1024",
    "1025",
    "65536",
    "65537",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "0.5",
    "1e-3",
    "nan",
    "1e400",
    "true",
    "false",
    "mesif",
    "moesi",
    "numa2",
    "steal",
    "quantum",
    "test",
    "paper",
    "raccd",
    "fullcoh",
    "pagetable",
    "Jacobi",
    "md5",
    "serial",
    "parallel:2",
    "-",
    "1..2",
    "5..2",
    "drop=0.5",
    "delay=0.1:16;window=1:2",
    "backoff=0:4294967297",
    "..",
    ":",
    "x=y",
];

/// A `key=value` item: a key of the line or of the machine, and a value
/// of one fragment, or of two run together.
fn item() -> impl Strategy<Value = String> {
    let machine = KEYS[..JOB_KEYS].iter().map(|k| k.name);
    let keys: Vec<&str> = LINE_KEYS.into_iter().chain(machine).collect();
    let value = prop_oneof![
        3 => select(VALUES.to_vec()).prop_map(String::from),
        1 => vec(select(VALUES.to_vec()), 2..3).prop_map(|parts| parts.concat()),
    ];
    (select(keys), value).prop_map(|(key, value)| format!("{key}={value}"))
}

/// Values each key takes, at and inside its bounds, so that a line of
/// many keys is often admitted and its round trip tested.
const TAKEN: [(&str, &[&str]); 21] = [
    ("scale", &["test", "Bench", "paper"]),
    ("mode", &["raccd", "fullcoh", "pt", "pagetable", "tlbclass"]),
    ("ratio", &["1", "8", "16", "256"]),
    ("adr", &["0", "1", "true"]),
    ("protocol", &["mesi", "MESIF", "moesi"]),
    ("topology", &["mesh", "numa2"]),
    (
        "sched",
        &["fifo", "steal", "priority", "locality", "quantum"],
    ),
    ("smt", &["1", "2", "4"]),
    ("smt_flush", &["0", "1"]),
    ("wt", &["0", "1"]),
    ("contention", &["false", "1"]),
    ("permuted", &["0", "true"]),
    ("ncrt", &["1", "32", "1024"]),
    ("ncrt_lat", &["0", "10", "4294967295"]),
    ("theta_inc", &["0.9", "1", "0.8"]),
    ("theta_dec", &["0", "0.1", "1e-3"]),
    ("stack", &["0", "64", "65536"]),
    ("warmup", &["0", "2000", "18446744073709551615"]),
    (
        "fault",
        &[
            "-",
            "",
            "drop=2e-2",
            "delay=0.1:16;window=1:2",
            "backoff=0:4294967296",
        ],
    ),
    ("seeds", &["1..1", "1..8", "0..18446744073709551615"]),
    ("engine", &["serial", "parallel:2"]),
];

/// A line giving each key of [`TAKEN`] or not, with one of its values.
fn taken_line() -> impl Strategy<Value = String> {
    vec(any::<u64>(), TAKEN.len()..TAKEN.len() + 1).prop_map(|picks| {
        let items = TAKEN.iter().zip(picks).filter(|(_, pick)| pick % 2 == 0);
        let items = items.map(|((key, values), pick)| {
            format!(" {key}={}", values[(pick / 2) as usize % values.len()])
        });
        format!("bench=Jacobi{}", items.collect::<String>())
    })
}

/// A job line: one of [`taken_line`], a bench and items joined by spaces,
/// or any token soup.
fn line() -> impl Strategy<Value = String> {
    let soup = [&VALUES[..], &LINE_KEYS[..], &["=", " ", ";", ":", ".."]].concat();
    prop_oneof![
        2 => taken_line(),
        2 => vec(item(), 1..5).prop_map(|items| format!("bench=MD5 {}", items.join(" "))),
        1 => vec(select(soup), 0..16).prop_map(|tokens| tokens.concat()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn parse_refuses_or_round_trips(text in line()) {
        if let Ok(spec) = JobSpec::parse(&text) {
            // The rendered line spells the bench in lower case.
            let mut want = spec.clone();
            want.bench = spec.bench.to_ascii_lowercase();
            prop_assert_eq!(JobSpec::parse(&spec.render()), Ok(want), "{}", text);
        }
    }
}
