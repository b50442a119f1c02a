//! Replayable counterexample traces.
//!
//! When the explorer, the fuzz harness or the differential runner trips a
//! shadow-checker invariant, the failing operation sequence is serialised
//! into a small text file that [`replay`] can re-run verbatim:
//!
//! ```text
//! # raccd-check trace v1
//! cfg ncores=4 mesh_k=2 l1_bytes=512 l1_ways=2 llc=32 llc_ways=8 \
//!     dir_ratio=32 dir_ways=1 wt=0 adr=0
//! fault spec=seed=7;drop=1;retry_budget=2
//! op access core=0 block=0x40 write=1 nc=0
//! op flushnc core=1
//! op flushpage core=0 page=0x1
//! ```
//!
//! Only the knobs that distinguish the run from [`MachineConfig::scaled`]
//! are recorded; everything else (latencies, runtime costs) is irrelevant
//! to the protocol state space. The optional `fault` directive carries a
//! [`FaultPlan`] spec (see [`FaultPlan::from_spec`]); replaying such a
//! trace re-attaches the plane, so fault-induced stuck states reproduce
//! bit-for-bit. [`minimize`] greedily drops operations while the
//! violation persists, so dumps are usually near-minimal.

use crate::harness::CheckedMachine;
use raccd_sim::{FaultPlan, MachineConfig, Violation};
use std::fmt;
use std::path::PathBuf;

/// One machine-level operation of a counterexample trace.
///
/// Blocks and pages are *physical* block / page numbers — the trace layer
/// bypasses address translation so replays are exact regardless of TLB
/// allocation history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// A load or store by `core` to physical block number `block`,
    /// requested non-coherently when `nc` (NCRT hit in the real system).
    Access {
        /// Issuing core.
        core: usize,
        /// Physical block number (byte address >> 6).
        block: u64,
        /// Store (`true`) or load (`false`).
        write: bool,
        /// Non-coherent request variant (§III-C3).
        nc: bool,
    },
    /// `raccd_invalidate` on `core`: flush all its NC lines.
    FlushNc {
        /// Flushing core.
        core: usize,
    },
    /// PT-style flush of every line of physical page `page` from `core`.
    FlushPage {
        /// Flushing core.
        core: usize,
        /// Physical page number.
        page: u64,
    },
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceOp::Access {
                core,
                block,
                write,
                nc,
            } => write!(
                f,
                "op access core={core} block={block:#x} write={} nc={}",
                write as u8, nc as u8
            ),
            TraceOp::FlushNc { core } => write!(f, "op flushnc core={core}"),
            TraceOp::FlushPage { core, page } => {
                write!(f, "op flushpage core={core} page={page:#x}")
            }
        }
    }
}

/// Serialise a configuration + operation sequence into trace text.
pub fn serialize(cfg: &MachineConfig, ops: &[TraceOp]) -> String {
    serialize_faulty(cfg, None, ops)
}

/// [`serialize`] plus an optional `fault` directive carrying the plan the
/// trace was produced under.
pub fn serialize_faulty(cfg: &MachineConfig, plan: Option<&FaultPlan>, ops: &[TraceOp]) -> String {
    let mut s = String::from("# raccd-check trace v1\n");
    s.push_str(&format!(
        "cfg ncores={} mesh_k={} l1_bytes={} l1_ways={} llc={} llc_ways={} \
         dir_ratio={} dir_ways={} wt={} adr={}\n",
        cfg.ncores,
        cfg.mesh_k,
        cfg.l1_bytes,
        cfg.l1_ways,
        cfg.llc_entries_per_bank,
        cfg.llc_ways,
        cfg.dir_ratio,
        cfg.dir_ways,
        cfg.l1_write_through as u8,
        cfg.adr as u8,
    ));
    if let Some(p) = plan {
        s.push_str(&format!("fault spec={}\n", p.to_spec()));
    }
    for op in ops {
        s.push_str(&format!("{op}\n"));
    }
    s
}

fn field<'a>(tokens: &'a [&str], key: &str) -> Result<&'a str, String> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn num(tokens: &[&str], key: &str) -> Result<u64, String> {
    let v = field(tokens, key)?;
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|e| format!("bad value for `{key}`: {e}"))
}

/// Parse trace text back into a configuration and operation sequence,
/// discarding any `fault` directive (see [`parse_faulty`]).
pub fn parse(text: &str) -> Result<(MachineConfig, Vec<TraceOp>), String> {
    parse_faulty(text).map(|(cfg, _, ops)| (cfg, ops))
}

/// Parse trace text back into a configuration, an optional fault plan and
/// an operation sequence.
pub fn parse_faulty(
    text: &str,
) -> Result<(MachineConfig, Option<FaultPlan>, Vec<TraceOp>), String> {
    let mut cfg = MachineConfig::scaled();
    let mut saw_cfg = false;
    let mut plan = None;
    let mut ops = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "cfg" => {
                cfg.ncores = num(&tokens, "ncores")? as usize;
                cfg.mesh_k = num(&tokens, "mesh_k")? as usize;
                cfg.l1_bytes = num(&tokens, "l1_bytes")?;
                cfg.l1_ways = num(&tokens, "l1_ways")? as usize;
                cfg.llc_entries_per_bank = num(&tokens, "llc")? as usize;
                cfg.llc_ways = num(&tokens, "llc_ways")? as usize;
                cfg.dir_ratio = num(&tokens, "dir_ratio")? as usize;
                cfg.dir_ways = num(&tokens, "dir_ways")? as usize;
                cfg.l1_write_through = num(&tokens, "wt")? != 0;
                cfg.adr = num(&tokens, "adr")? != 0;
                saw_cfg = true;
            }
            "fault" => {
                let spec = FaultPlan::from_spec(field(&tokens, "spec")?);
                plan = Some(spec.map_err(|e| e.to_string())?);
            }
            "op" => {
                let op = match tokens.get(1).copied() {
                    Some("access") => TraceOp::Access {
                        core: num(&tokens, "core")? as usize,
                        block: num(&tokens, "block")?,
                        write: num(&tokens, "write")? != 0,
                        nc: num(&tokens, "nc")? != 0,
                    },
                    Some("flushnc") => TraceOp::FlushNc {
                        core: num(&tokens, "core")? as usize,
                    },
                    Some("flushpage") => TraceOp::FlushPage {
                        core: num(&tokens, "core")? as usize,
                        page: num(&tokens, "page")?,
                    },
                    other => return Err(format!("unknown op {other:?}")),
                };
                ops.push(op);
            }
            other => return Err(format!("unknown directive `{other}`")),
        }
    }
    if !saw_cfg {
        return Err("trace has no cfg line".into());
    }
    Ok((cfg, plan, ops))
}

/// Replay a trace on a fresh machine with a collecting shadow checker,
/// returning every invariant violation it produces (empty = clean).
pub fn replay(cfg: MachineConfig, ops: &[TraceOp]) -> Vec<Violation> {
    replay_faulty(cfg, None, ops).into_violations()
}

/// Replay a trace with an optional fault plane attached, returning the
/// harness itself so callers can inspect the reached state (fingerprint,
/// stall flag, violations). Same plan + same ops ⇒ same end state.
pub fn replay_faulty(
    cfg: MachineConfig,
    plan: Option<FaultPlan>,
    ops: &[TraceOp],
) -> CheckedMachine {
    let mut m = match plan {
        Some(p) => CheckedMachine::with_faults(cfg, p),
        None => CheckedMachine::new(cfg),
    };
    for &op in ops {
        m.apply(op);
    }
    m
}

/// Greedy one-operation-removal minimisation: repeatedly drop any single
/// operation whose removal keeps the trace failing, until a fixed point.
/// The result still violates at least one invariant (assuming `ops` did).
pub fn minimize(cfg: MachineConfig, ops: &[TraceOp]) -> Vec<TraceOp> {
    let mut cur: Vec<TraceOp> = ops.to_vec();
    if replay(cfg, &cur).is_empty() {
        return cur;
    }
    let mut shrunk = true;
    while shrunk {
        shrunk = false;
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if !replay(cfg, &cand).is_empty() {
                cur = cand;
                shrunk = true;
            } else {
                i += 1;
            }
        }
    }
    cur
}

/// Directory counterexample dumps go to: `$RACCD_CHECK_DUMP_DIR` when set,
/// else `target/raccd-check-counterexamples/`.
pub(crate) fn dump_dir() -> PathBuf {
    match std::env::var_os("RACCD_CHECK_DUMP_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target").join("raccd-check-counterexamples"),
    }
}

/// Write a failing trace to the dump directory and return its path. The
/// file is a valid input to [`parse`] + [`replay`]; the violations are
/// appended as comments for human readers.
pub fn write_counterexample(
    cfg: &MachineConfig,
    ops: &[TraceOp],
    tag: &str,
    violations: &[Violation],
) -> std::io::Result<PathBuf> {
    write_counterexample_faulty(cfg, None, ops, tag, violations)
}

/// [`write_counterexample`] for fault-plane runs: the dump carries the
/// plan as a `fault` directive so [`parse_faulty`] + [`replay_faulty`]
/// reproduce the stuck state exactly.
pub fn write_counterexample_faulty(
    cfg: &MachineConfig,
    plan: Option<&FaultPlan>,
    ops: &[TraceOp],
    tag: &str,
    violations: &[Violation],
) -> std::io::Result<PathBuf> {
    let dir = dump_dir();
    std::fs::create_dir_all(&dir)?;
    let mut text = serialize_faulty(cfg, plan, ops);
    for v in violations {
        text.push_str(&format!("# violation: {v}\n"));
    }
    let path = dir.join(format!("{tag}-{}.trace", std::process::id()));
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_cfg_and_ops() {
        let mut cfg = MachineConfig::scaled()
            .with_dir_ratio(8)
            .with_write_through(true);
        cfg.ncores = 4;
        cfg.mesh_k = 2;
        cfg.llc_entries_per_bank = 32;
        cfg.dir_ways = 1;
        let ops = vec![
            TraceOp::Access {
                core: 1,
                block: 0x44,
                write: true,
                nc: false,
            },
            TraceOp::FlushNc { core: 0 },
            TraceOp::FlushPage { core: 3, page: 0x1 },
        ];
        let text = serialize(&cfg, &ops);
        let (cfg2, ops2) = parse(&text).expect("parse");
        assert_eq!(ops, ops2);
        assert_eq!(cfg2.ncores, 4);
        assert_eq!(cfg2.mesh_k, 2);
        assert_eq!(cfg2.llc_entries_per_bank, 32);
        assert_eq!(cfg2.dir_ratio, 8);
        assert_eq!(cfg2.dir_ways, 1);
        assert!(cfg2.l1_write_through);
        assert!(!cfg2.adr);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("nonsense line").is_err());
        assert!(parse("op access core=0").is_err());
        assert!(parse("").is_err(), "missing cfg line");
        assert!(parse(
            "cfg ncores=4 mesh_k=2 l1_bytes=512 l1_ways=2 llc=32 llc_ways=8 \
                       dir_ratio=32 dir_ways=1 wt=0 adr=0\nfault spec=drop=2.0"
        )
        .is_err());
    }

    #[test]
    fn fault_directive_round_trips() {
        let mut cfg = MachineConfig::scaled();
        cfg.ncores = 2;
        cfg.mesh_k = 2;
        let plan = FaultPlan::from_spec("seed=7;drop=1;retry_budget=2").unwrap();
        let ops = vec![TraceOp::Access {
            core: 0,
            block: 0x40,
            write: true,
            nc: false,
        }];
        let text = serialize_faulty(&cfg, Some(&plan), &ops);
        assert!(text.contains("fault spec=seed=7;drop=1;retry_budget=2"));
        let (cfg2, plan2, ops2) = parse_faulty(&text).expect("parse");
        assert_eq!(plan2, Some(plan));
        assert_eq!(ops2, ops);
        assert_eq!(cfg2.ncores, 2);
        // The plain parser still accepts the same text, dropping the plan.
        let (_, ops3) = parse(&text).expect("parse");
        assert_eq!(ops3, ops);
    }
}
