//! `golden.json`: the Stats digests every workload must reproduce on the
//! pinned seeds. Simulated statistics are deterministic, so a digest that
//! moves is a change to the model, never noise.

use crate::result::{hex, manifest_dir, unhex};
use raccd_obs::json::{self, escape, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Seeds with pinned digests: 1 is the default, 2 is held out for claims.
pub const PINNED_SEEDS: [u64; 2] = [1, 2];

/// seed → workload → digests.
pub type Goldens = BTreeMap<u64, BTreeMap<String, Vec<u64>>>;

fn path() -> PathBuf {
    manifest_dir().join("golden.json")
}

pub fn parse(text: &str) -> Result<Goldens, String> {
    let Value::Obj(seeds) = json::parse(text)? else {
        return Err("not an object".into());
    };
    let mut out = Goldens::new();
    for (seed, workloads) in &seeds {
        let seed: u64 = seed.parse().map_err(|e| format!("seed {seed:?}: {e}"))?;
        let Value::Obj(workloads) = workloads else {
            return Err(format!("seed {seed}: not an object"));
        };
        for (name, digests) in workloads {
            let digests = digests
                .items()
                .iter()
                .map(|d| {
                    unhex(
                        d.as_str()
                            .ok_or(format!("{name}: digest is not a string"))?,
                    )
                })
                .collect::<Result<Vec<u64>, String>>()?;
            out.entry(seed).or_default().insert(name.clone(), digests);
        }
    }
    Ok(out)
}

pub fn render(goldens: &Goldens) -> String {
    let seeds: Vec<String> = goldens
        .iter()
        .map(|(seed, workloads)| {
            let rows: Vec<String> = workloads
                .iter()
                .map(|(name, digests)| {
                    let list: Vec<String> = digests.iter().map(|d| escape(&hex(*d))).collect();
                    format!("    {}: [{}]", escape(name), list.join(", "))
                })
                .collect();
            format!("  \"{seed}\": {{\n{}\n  }}", rows.join(",\n"))
        })
        .collect();
    format!("{{\n{}\n}}\n", seeds.join(",\n"))
}

/// The pinned digests of `workload` on `seed`, if that seed is pinned.
/// A golden file that cannot be read is a broken checkout: panic.
pub fn lookup(seed: u64, workload: &str) -> Option<Vec<u64>> {
    let path = path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let goldens = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    goldens.get(&seed)?.get(workload).cloned()
}

pub fn save(goldens: &Goldens) -> Result<(), String> {
    let path = path();
    std::fs::write(&path, render(goldens)).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::WORKLOADS;

    #[test]
    fn render_then_parse_is_the_identity() {
        let mut g = Goldens::new();
        g.entry(1)
            .or_default()
            .insert("fig7-sweep".into(), vec![1, 2, u64::MAX]);
        g.entry(2)
            .or_default()
            .insert("jacobi-raccd".into(), vec![7]);
        assert_eq!(parse(&render(&g)), Ok(g));
    }

    #[test]
    fn the_committed_file_pins_every_workload_on_both_seeds() {
        let text = std::fs::read_to_string(path()).unwrap();
        let g = parse(&text).unwrap();
        assert_eq!(g.keys().copied().collect::<Vec<_>>(), PINNED_SEEDS);
        for seed in PINNED_SEEDS {
            for w in &WORKLOADS {
                let digests = &g[&seed][w.name];
                let cells = if w.name == "fig7-sweep" { 6 } else { 1 };
                assert_eq!(digests.len(), cells, "{} seed {seed}", w.name);
            }
        }
    }
}
