//! The fault spec grammar is total. Text built from its keys, separators,
//! numbers at and just past each bound, and junk never panics
//! `FaultPlan::from_spec`: it is refused, or read as a plan that renders
//! and parses back equal. Every plan inside the bounds, each key off its
//! default and the window both set and unset, round-trips through its
//! spec.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use raccd_fault::{FaultPlan, MAX_SPEC_CYCLES, SPEC_KEYS};

/// Every spec key, in render order.
fn keys() -> Vec<&'static str> {
    SPEC_KEYS.iter().map(|key| key.name).collect()
}

/// Values at and just past each kind's bounds, and junk.
const VALUES: [&str; 22] = [
    "0",
    "1",
    "-0",
    "-1",
    "0.5",
    "1.0000001",
    "2e-2",
    "nan",
    "inf",
    "1e400",
    "16",
    "4294967295",
    "4294967296",
    "4294967297",
    "18446744073709551615",
    "18446744073709551616",
    "",
    " ",
    "..",
    "x",
    "=",
    ";",
];

/// A `key=value` item whose value has one to four `:`-separated parts.
fn item() -> impl Strategy<Value = String> {
    (select(keys()), vec(select(VALUES.to_vec()), 1..5))
        .prop_map(|(key, parts)| format!("{key}={}", parts.join(":")))
}

/// Spec text: well-formed items joined by `;`, or any token soup.
fn spec_text() -> impl Strategy<Value = String> {
    let soup = [&keys()[..], &VALUES[..], &["=", ";", ":", ";", ":"]].concat();
    prop_oneof![
        vec(item(), 0..7).prop_map(|items| items.join(";")),
        vec(select(soup), 0..16).prop_map(|tokens| tokens.concat()),
    ]
}

/// A rate in `[0, 1)` with all 53 bits of a double's mantissa.
fn rate(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A plan inside every bound, each field drawn from one of `v`: the four
/// message rates below a quarter each, so they sum to at most 1.
fn plan(v: &[u64], window: bool) -> FaultPlan {
    let cycles = |n: u64| n % (MAX_SPEC_CYCLES + 1);
    let backoff_base = cycles(v[15]).max(1);
    let start = v[12] % u64::MAX;
    FaultPlan {
        seed: v[0],
        drop: rate(v[1]) / 4.0,
        dup: rate(v[2]) / 4.0,
        corrupt: rate(v[3]) / 4.0,
        delay: rate(v[4]) / 4.0,
        delay_max: cycles(v[5]).max(1),
        dir_loss: rate(v[6]),
        storm: rate(v[7]),
        storm_len: cycles(v[8]),
        task_fail: rate(v[9]),
        straggle: rate(v[10]),
        straggle_cycles: cycles(v[11]),
        window: window.then(|| (start, start + 1 + v[13] % (u64::MAX - start))),
        retry_budget: v[14] as u32,
        backoff_base,
        backoff_cap: backoff_base + v[16] % (MAX_SPEC_CYCLES - backoff_base + 1),
        drop_timeout: cycles(v[17]),
        task_retry_budget: v[18] as u32,
        watchdog_cycles: v[19].max(1),
        degrade_window: v[20],
        degrade_overflows: v[21],
        degrade_retries: v[22],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn from_spec_refuses_or_round_trips(text in spec_text()) {
        if let Ok(plan) = FaultPlan::from_spec(&text) {
            prop_assert_eq!(FaultPlan::from_spec(&plan.to_spec()), Ok(plan), "{}", text);
        }
    }

    #[test]
    fn every_plan_in_bounds_round_trips_with_every_key_rendered(
        values in vec(any::<u64>(), 23..24),
        window: bool,
    ) {
        let plan = plan(&values, window);
        let spec = plan.to_spec();
        let rendered: Vec<&str> = spec.split(';').map(|i| i.split('=').next().unwrap()).collect();
        let want: Vec<&str> = keys().into_iter().filter(|k| window || *k != "window").collect();
        prop_assert_eq!(rendered, want, "{}", spec);
        prop_assert_eq!(FaultPlan::from_spec(&spec), Ok(plan), "{}", spec);
    }
}
