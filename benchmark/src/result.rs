//! Result documents: what one run of one workload measured, where it was
//! measured, and the JSON both are stored as.

use crate::names::{self, MetricDef};
use crate::summary::Summary;
use raccd_obs::json::{self, escape, num, Obj, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

pub const SCHEMA: u64 = 1;

/// What one process measured on one workload. An end-to-end pass fills
/// `end_to_end`, a traced pass `per_layer`; `run` without `--workload`
/// merges the two passes of a workload into one entry.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub seed: u64,
    pub seconds: u64,
    /// Timed reps behind the end-to-end values.
    pub reps: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Stats digests of the workload's cells, as pinned in `golden.json`.
    pub digests: Vec<u64>,
    /// `matched`, `mismatch`, or `unpinned` for a seed without a golden.
    pub golden: String,
    /// Median milliseconds of the host probe during the run: the reported
    /// timings are the measured floors times `probe::factor` of it. The
    /// reference on a traced pass, which takes no probe.
    pub probe_ms: f64,
    pub end_to_end: Vec<(String, Summary)>,
    pub per_layer: Vec<(String, f64)>,
}

impl WorkloadResult {
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.end_to_end
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// The last line of standard output the driver reads: every metric of
    /// the pass by name, each with its value and unit.
    pub fn contract_line(&self) -> String {
        let entry = |def: &MetricDef, value: f64| {
            let v = Obj::new().f64("value", value).str("unit", def.unit);
            format!("{}:{}", escape(def.name), v.render())
        };
        let metrics: Vec<String> = if self.per_layer.is_empty() {
            names::END_TO_END
                .iter()
                .map(|d| entry(d, self.metric(d.name).map_or(0.0, |s| s.value)))
                .collect()
        } else {
            names::PER_LAYER
                .iter()
                .map(|d| {
                    let v = self.per_layer.iter().find(|(n, _)| n == d.name);
                    entry(d, v.map_or(0.0, |(_, v)| *v))
                })
                .collect()
        };
        Obj::new()
            .bool("correct", self.failed == 0)
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", format!("{{{}}}", metrics.join(",")))
            .render()
    }

    fn to_json(&self) -> String {
        let strings = |v: &[String]| array(v.iter().map(|s| escape(s)));
        let e2e = self.end_to_end.iter().map(|(name, s)| {
            let def = names::END_TO_END.iter().find(|d| d.name == name);
            Obj::new()
                .str("name", name)
                .str("unit", def.map_or("", |d| d.unit))
                .f64("value", s.value)
                .f64("median", s.median)
                .f64("min", s.min)
                .f64("q1", s.q1)
                .f64("q3", s.q3)
                .f64("max", s.max)
                .u64("n", s.n() as u64)
                .raw("raw", array(s.raw.iter().map(|&v| num(v))))
                .render()
        });
        let layers = self.per_layer.iter().map(|(name, v)| {
            Obj::new()
                .str("name", name)
                .str("unit", names::per_layer(name).map_or("", |d| d.unit))
                .f64("value", *v)
                .render()
        });
        Obj::new()
            .str("name", &self.name)
            .u64("seed", self.seed)
            .u64("seconds", self.seconds)
            .u64("reps", self.reps)
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .f64("fail_share", self.fail_share())
            .raw("errors", strings(&self.errors))
            .raw(
                "digests",
                array(self.digests.iter().map(|d| escape(&hex(*d)))),
            )
            .str("golden", &self.golden)
            .f64("probe_ms", self.probe_ms)
            .raw("end_to_end", array(e2e))
            .raw("per_layer", array(layers))
            .render()
    }

    fn from_json(v: &Value) -> Result<WorkloadResult, String> {
        let strings = |key: &str| -> Result<Vec<String>, String> {
            field(v, key)?
                .items()
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or(format!("{key}: not a string"))
                })
                .collect()
        };
        let end_to_end = field(v, "end_to_end")?
            .items()
            .iter()
            .map(|m| {
                let raw = field(m, "raw")?
                    .items()
                    .iter()
                    .map(|x| x.as_f64().ok_or("raw: not a number".to_string()))
                    .collect::<Result<Vec<f64>, String>>()?;
                if raw.is_empty() {
                    return Err("raw: no samples".to_string());
                }
                Ok((text(m, "name")?, Summary::of(number(m, "value")?, raw)))
            })
            .collect::<Result<_, String>>()?;
        let per_layer = field(v, "per_layer")?
            .items()
            .iter()
            .map(|m| Ok((text(m, "name")?, number(m, "value")?)))
            .collect::<Result<_, String>>()?;
        Ok(WorkloadResult {
            name: text(v, "name")?,
            seed: number(v, "seed")? as u64,
            seconds: number(v, "seconds")? as u64,
            reps: number(v, "reps")? as u64,
            attempted: number(v, "attempted")? as u64,
            failed: number(v, "failed")? as u64,
            errors: strings("errors")?,
            digests: strings("digests")?
                .iter()
                .map(|s| unhex(s))
                .collect::<Result<_, _>>()?,
            golden: text(v, "golden")?,
            probe_ms: number(v, "probe_ms")?,
            end_to_end,
            per_layer,
        })
    }
}

/// Where and from what a result file was measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// `HEAD` of the measured tree, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Whether the tree differed from `HEAD` when measured.
    pub git_dirty: bool,
    pub host: String,
    pub nproc: u64,
    pub rustc: String,
}

fn command_line(dir: &Path, program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim_end().to_string())
}

impl Provenance {
    /// Ask git, the host and the compiler on `PATH`.
    pub fn collect() -> Provenance {
        let dir = manifest_dir();
        let (host, nproc) = raccd_bench::perfjson::host_fingerprint();
        Provenance {
            git_rev: command_line(&dir, "git", &["rev-parse", "HEAD"])
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".into()),
            git_dirty: command_line(&dir, "git", &["status", "--porcelain"])
                .is_some_and(|s| !s.is_empty()),
            host,
            nproc,
            rustc: command_line(&dir, "rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// One result file: provenance plus one entry per workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Doc {
    pub provenance: Provenance,
    pub workloads: Vec<WorkloadResult>,
}

impl Doc {
    pub fn render(&self) -> String {
        let p = &self.provenance;
        let provenance = Obj::new()
            .str("git_rev", &p.git_rev)
            .bool("git_dirty", p.git_dirty)
            .str("host", &p.host)
            .u64("nproc", p.nproc)
            .str("rustc", &p.rustc)
            .render();
        let workloads = self
            .workloads
            .iter()
            .map(|w| format!("\n{}", w.to_json()))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":{SCHEMA},\"provenance\":{provenance},\"workloads\":[{workloads}\n]}}\n"
        )
    }

    pub fn parse(text_in: &str) -> Result<Doc, String> {
        let v = json::parse(text_in)?;
        if number(&v, "schema")? as u64 != SCHEMA {
            return Err(format!("schema is not {SCHEMA}"));
        }
        let p = field(&v, "provenance")?;
        Ok(Doc {
            provenance: Provenance {
                git_rev: text(p, "git_rev")?,
                git_dirty: matches!(field(p, "git_dirty")?, Value::Bool(true)),
                host: text(p, "host")?,
                nproc: number(p, "nproc")? as u64,
                rustc: text(p, "rustc")?,
            },
            workloads: field(&v, "workloads")?
                .items()
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn load(path: &Path) -> Result<Doc, String> {
        let text_in =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Doc::parse(&text_in).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.render()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The benchmark's own directory: where cargo says the manifest is when
/// it runs the binary, else where it was when it built it.
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Everything the benchmark writes goes here.
pub fn out_dir() -> PathBuf {
    manifest_dir().join("out")
}

pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

pub fn unhex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("digest {s:?}: {e}"))
}

fn array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or(format!("missing {key:?}"))
}

pub fn number(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or(format!("{key:?} is not a number"))
}

pub fn text(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or(format!("{key:?} is not a string"))
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn sample(name: &str, walls: &[f64]) -> WorkloadResult {
        WorkloadResult {
            name: name.into(),
            seed: 2,
            seconds: 6,
            reps: walls.len() as u64,
            attempted: 8,
            failed: 0,
            errors: vec!["a \"quoted\" error\nover two lines".into()],
            digests: vec![0xdead_beef, u64::MAX],
            golden: "matched".into(),
            probe_ms: 5.25,
            end_to_end: vec![
                ("wall_s".into(), Summary::of(walls[0], walls.to_vec())),
                ("peak_rss_mb".into(), Summary::single(81.5)),
            ],
            per_layer: vec![("core.steps".into(), 277_000.0), ("sim.refs".into(), 1.5e7)],
        }
    }

    pub fn provenance() -> Provenance {
        Provenance {
            git_rev: "0123abcd".into(),
            git_dirty: true,
            host: "Some CPU (2 cpus, linux-x86_64)".into(),
            nproc: 2,
            rustc: "rustc 1.95.0".into(),
        }
    }

    #[test]
    fn a_document_survives_write_then_read() {
        let doc = Doc {
            provenance: provenance(),
            workloads: vec![
                sample("jacobi-raccd", &[1.0625, 1.04, 1.0712345678901234]),
                sample("snap-cycle", &[3.5]),
            ],
        };
        assert_eq!(Doc::parse(&doc.render()), Ok(doc));
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys_and_every_metric() {
        let mut w = sample("jacobi-raccd", &[1.0, 2.0, 4.0]);
        w.per_layer.clear();
        let v = json::parse(&w.contract_line()).unwrap();
        let Value::Obj(top) = &v else { panic!() };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), names::END_TO_END.len());
        let wall = &metrics["wall_s"];
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.0));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));

        let traced = sample("jacobi-raccd", &[1.0]);
        let v = json::parse(&traced.contract_line()).unwrap();
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), names::PER_LAYER.len());
        assert_eq!(
            metrics["core.steps"].get("value").unwrap().as_f64(),
            Some(277_000.0)
        );
        assert_eq!(
            metrics["snap.archive_mb"].get("value").unwrap().as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn digests_round_trip_as_hex() {
        assert_eq!(
            unhex(&hex(0x0123_4567_89ab_cdef)),
            Ok(0x0123_4567_89ab_cdef)
        );
        assert_eq!(hex(1).len(), 16);
        assert!(unhex("xyz").is_err());
    }
}
