//! Replayable counterexample traces.
//!
//! When the explorer, the fuzz harness or the differential runner trips a
//! shadow-checker invariant, the failing operation sequence is serialised
//! into a small text file that [`replay`] can re-run verbatim:
//!
//! ```text
//! # raccd-check trace v2
//! cfg protocol=moesi topology=numa2 mesh_k=2 llc=32 dir_ways=1
//! fault spec=seed=7;drop=1;retry_budget=2
//! op access core=0 block=0x40 write=1 nc=0
//! op flushnc core=1
//! op flushpage core=0 page=0x1
//! ```
//!
//! The `cfg` line holds every machine key ([`raccd_sim::config::KEYS`])
//! on which the run differs from [`MachineConfig::scaled`], in table
//! order, and is read back through the same keys and
//! [`MachineConfig::check`]; everything else (latencies, runtime costs)
//! is irrelevant to the protocol state space. The optional `fault`
//! directive carries a [`FaultPlan`] spec (see [`FaultPlan::from_spec`]);
//! replaying such a trace re-attaches the plane, so fault-induced stuck
//! states reproduce bit-for-bit. [`minimize`] greedily drops operations
//! while the violation persists, so dumps are usually near-minimal.

use crate::harness::CheckedMachine;
use raccd_sim::config::KEYS;
use raccd_sim::{FaultPlan, MachineConfig, Violation};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// The first line of a trace file.
const HEADER: &str = "# raccd-check trace v2";

/// The `cfg` line naming `cfg`: `cfg` and the keys on which it differs
/// from [`MachineConfig::scaled`].
pub fn cfg_line(cfg: &MachineConfig) -> String {
    let keys = cfg.render_keys(&MachineConfig::scaled());
    std::iter::once("cfg".to_string())
        .chain(keys)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Serialise a configuration, the fault plan the trace was produced
/// under (a `fault` directive) and an operation sequence into trace text.
pub fn serialize(cfg: &MachineConfig, plan: Option<&FaultPlan>, ops: &[TraceOp]) -> String {
    let mut s = format!("{HEADER}\n{}\n", cfg_line(cfg));
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

/// Parse trace text back into a configuration, an optional fault plan and
/// an operation sequence. Anything [`replay`] could not run is refused:
/// a file that is not v2, a `cfg` line with an unknown key, a bad value
/// or a machine [`MachineConfig::check`] refuses, and an op before the
/// `cfg` line or naming a core the machine does not have.
pub fn parse(text: &str) -> Result<(MachineConfig, Option<FaultPlan>, Vec<TraceOp>), String> {
    let mut lines = text.lines();
    match lines.next().map(str::trim) {
        Some(HEADER) => {}
        Some(h) if h.starts_with("# raccd-check trace ") => {
            return Err(format!("`{h}`: this build reads trace format v2 only"));
        }
        _ => return Err(format!("trace does not start with `{HEADER}`")),
    }
    let mut cfg = None;
    let mut plan = None;
    let mut ops = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "cfg" => {
                let mut c = MachineConfig::scaled();
                for item in &tokens[1..] {
                    let (k, v) = item.split_once('=').unwrap_or((item, ""));
                    let key = KEYS.iter().find(|key| key.name == k);
                    key.ok_or_else(|| format!("unknown cfg key `{k}`"))?
                        .set(&mut c, v)?;
                }
                c.check()?;
                cfg = Some(c);
            }
            "fault" => {
                let spec = FaultPlan::from_spec(field(&tokens, "spec")?);
                plan = Some(spec.map_err(|e| e.to_string())?);
            }
            "op" => {
                let cores = cfg.as_ref().ok_or("op before the cfg line")?.ncores;
                let core = num(&tokens, "core")? as usize;
                if core >= cores {
                    return Err(format!("`{line}`: the machine has {cores} cores"));
                }
                let op = match tokens.get(1).copied() {
                    Some("access") => TraceOp::Access {
                        core,
                        block: num(&tokens, "block")?,
                        write: num(&tokens, "write")? != 0,
                        nc: num(&tokens, "nc")? != 0,
                    },
                    Some("flushnc") => TraceOp::FlushNc { core },
                    Some("flushpage") => TraceOp::FlushPage {
                        core,
                        page: num(&tokens, "page")?,
                    },
                    other => return Err(format!("unknown op {other:?}")),
                };
                ops.push(op);
            }
            other => return Err(format!("unknown directive `{other}`")),
        }
    }
    Ok((cfg.ok_or("trace has no cfg line")?, plan, ops))
}

/// Replay a trace on a fresh machine with a collecting shadow checker and
/// the fault plane of `plan`, if any, returning the harness so callers
/// can inspect the reached state (violations, fingerprint, stall flag).
/// Same plan + same ops ⇒ same end state.
pub fn replay(cfg: MachineConfig, plan: Option<&FaultPlan>, ops: &[TraceOp]) -> CheckedMachine {
    let mut m = match plan {
        Some(&p) => CheckedMachine::with_faults(cfg, p),
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
    let fails = |ops: &[TraceOp]| !replay(cfg, None, ops).into_violations().is_empty();
    if !fails(&cur) {
        return cur;
    }
    let mut shrunk = true;
    while shrunk {
        shrunk = false;
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if fails(&cand) {
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

/// Write a failing trace to the dump directory and return its path,
/// `{tag}-{pid}-{n}.trace` with `n` counting this process's dumps, so no
/// dump overwrites another. The file is a valid input to [`parse`] +
/// [`replay`], carrying `plan` as a `fault` directive so a stuck state
/// reproduces exactly; the violations are appended as comments for human
/// readers.
pub fn write_counterexample(
    cfg: &MachineConfig,
    plan: Option<&FaultPlan>,
    ops: &[TraceOp],
    tag: &str,
    violations: &[Violation],
) -> std::io::Result<PathBuf> {
    let dir = dump_dir();
    std::fs::create_dir_all(&dir)?;
    let mut text = serialize(cfg, plan, ops);
    for v in violations {
        text.push_str(&format!("# violation: {v}\n"));
    }
    static DUMPS: AtomicU64 = AtomicU64::new(0);
    let n = DUMPS.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{tag}-{}-{n}.trace", std::process::id()));
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MachineConfig {
        let mut cfg = MachineConfig {
            mesh_k: 2,
            llc_entries_per_bank: 32,
            dir_ways: 1,
            l1_write_through: true,
            ..MachineConfig::scaled().with_dir_ratio(8)
        };
        cfg.ncores = 4;
        cfg
    }

    #[test]
    fn round_trip_preserves_cfg_and_ops() {
        let cfg = tiny();
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
        let text = serialize(&cfg, None, &ops);
        assert!(
            text.starts_with(
                "# raccd-check trace v2\ncfg ratio=8 wt=1 mesh_k=2 llc=32 dir_ways=1\n"
            ),
            "{text}"
        );
        let (cfg2, plan, ops2) = parse(&text).expect("parse");
        assert_eq!(ops, ops2);
        assert_eq!(plan, None);
        assert_eq!(format!("{cfg2:?}"), format!("{cfg:?}"));
    }

    /// `parse` refuses each row with an error, never a panic. The third
    /// column marks the rows whose machine or op, spelled in trace v1,
    /// panicked the v1 reader's `parse` + `replay`.
    #[test]
    fn parse_refuses_what_replay_cannot_run() {
        let v2 = |body: &str| format!("# raccd-check trace v2\n{body}\n");
        let op = "op access core=0 block=0x40 write=1 nc=0";
        let on = |cfg: &str| v2(&format!("cfg {cfg}\n{op}"));
        let v1_cfg = "cfg ncores=4 mesh_k=2 l1_bytes=512 l1_ways=2 llc=32 llc_ways=8 \
                      dir_ratio=32 dir_ways=1 wt=0 adr=0";
        let four = |op: &str| v2(&format!("cfg mesh_k=2\n{op}"));
        for (text, want, panicked_in_v1) in [
            (String::new(), "does not start with", false),
            (format!("{v1_cfg}\n{op}\n"), "does not start with", false),
            (
                format!("# raccd-check trace v1\n{v1_cfg}\n{op}\n"),
                "`# raccd-check trace v1`: this build reads trace format v2 only",
                false,
            ),
            (v2(op), "op before the cfg line", false),
            (v2("fault spec=drop=0.1"), "no cfg line", false),
            (on("mesh_k=3"), "9 cores on 1 socket(s) of 3x3 tiles", true),
            (on("mesh_k=0"), "bad mesh_k `0`", true),
            (
                v2("cfg topology=numa2 mesh_k=8\nop access core=100 block=0x40 write=0 nc=0"),
                "128 cores",
                true,
            ),
            (on("ratio=0"), "bad ratio `0`", true),
            (
                on("ratio=3"),
                "1:3 directory: directory geometry 682 entries / 8 ways",
                true,
            ),
            (
                on("ratio=85 adr=1"),
                "1:85 directory halved by ADR: directory geometry 12 entries / 8 ways",
                true,
            ),
            (on("llc=12"), "LLC bank of 12 / 8 is not whole sets", true),
            (on("l1_bytes=320"), "L1 of 5 lines / 2 ways", true),
            (on("dir_ways=3"), "bad dir_ways `3`", true),
            (on("dir_ways=0"), "bad dir_ways `0`", true),
            (on("wt=2"), "bad wt `2`", false),
            (
                on("protocol=mosi"),
                "bad protocol `mosi` (mesi|mesif|moesi)",
                false,
            ),
            (on("l1_ways=4"), "unknown cfg key `l1_ways`", false),
            (
                four("op access core=4 block=0x40 write=1 nc=0"),
                "has 4 cores",
                true,
            ),
            (four("op flushnc core=99"), "`op flushnc core=99`", true),
            (four("op flushpage core=7 page=0x1"), "has 4 cores", true),
            (four("op access core=0"), "missing field `block`", false),
            (four("op evict core=0"), "unknown op", false),
            (four("fault spec=drop=2.0"), "drop", false),
            (four("nonsense line"), "unknown directive `nonsense`", false),
        ] {
            let err = parse(&text).expect_err(&text);
            assert!(
                err.contains(want),
                "{text:?} (panicked in v1: {panicked_in_v1}): {err}"
            );
        }
    }

    /// Two dumps under one tag land in two files, each parsing back to
    /// its own ops.
    #[test]
    fn dumps_under_one_tag_do_not_overwrite_each_other() {
        let runs = [
            vec![TraceOp::FlushNc { core: 0 }],
            vec![TraceOp::FlushNc { core: 1 }],
        ];
        let paths: Vec<PathBuf> = runs
            .iter()
            .map(|ops| write_counterexample(&tiny(), None, ops, "twice", &[]).expect("dump"))
            .collect();
        for (ops, path) in runs.iter().zip(&paths) {
            let text = std::fs::read_to_string(path).expect("dump file exists");
            assert_eq!(
                &parse(&text).expect("dump parses").2,
                ops,
                "{}",
                path.display()
            );
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn fault_directive_round_trips() {
        let cfg = MachineConfig {
            mesh_k: 2,
            ..MachineConfig::scaled()
        }
        .with_topology(raccd_sim::Topology::Mesh);
        let plan = FaultPlan::from_spec("seed=7;drop=1;retry_budget=2").unwrap();
        let ops = vec![TraceOp::Access {
            core: 0,
            block: 0x40,
            write: true,
            nc: false,
        }];
        let text = serialize(&cfg, Some(&plan), &ops);
        assert!(text.contains("fault spec=seed=7;drop=1;retry_budget=2"));
        let (cfg2, plan2, ops2) = parse(&text).expect("parse");
        assert_eq!(plan2, Some(plan));
        assert_eq!(ops2, ops);
        assert_eq!(cfg2.ncores, 4);
    }
}
