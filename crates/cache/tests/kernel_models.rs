//! The set-associative array and its PLRU tree against reference models:
//! a tree walk that branches on every level, and an insert that scans the
//! set twice (the key's way, then the first invalid way). Every
//! power-of-two associativity the tree
//! holds, 1 to 64 ways, runs random sequences of inserts (of present keys,
//! of absent ones, into full sets), `get_mut`s and `remove`s; the lines,
//! victims, occupancy, PLRU bits and archive bytes must agree after every
//! step.

use proptest::prelude::*;
use raccd_cache::{Line, SetAssoc, TreePlru};
use raccd_snap::{encode, Snap, SnapWriter};

const WAYS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The branchy tree PLRU: one `if` per level on the touched way's bit.
fn model_touch(bits: &mut u64, way: usize, ways: usize) {
    let mut node = 1usize;
    let mut span = ways;
    while span > 1 {
        span /= 2;
        let right = way & span != 0;
        if right {
            *bits &= !(1 << node);
        } else {
            *bits |= 1 << node;
        }
        node = 2 * node + usize::from(right);
    }
}

fn model_victim(bits: u64, ways: usize) -> usize {
    let mut node = 1usize;
    let mut way = 0usize;
    let mut span = ways;
    while span > 1 {
        span /= 2;
        let right = bits & (1 << node) != 0;
        if right {
            way |= span;
        }
        node = 2 * node + usize::from(right);
    }
    way
}

/// The two-scan array, with `SetAssoc`'s archive layout.
struct Model {
    sets: usize,
    ways: usize,
    lines: Vec<Option<Line<u32>>>,
    plru: Vec<u64>,
    occupied: usize,
}

impl Model {
    fn new(sets: usize, ways: usize) -> Self {
        Model {
            sets,
            ways,
            lines: vec![None; sets * ways],
            plru: vec![0; sets],
            occupied: 0,
        }
    }

    fn find(&self, key: u64) -> Option<(usize, usize)> {
        let set = (key % self.sets as u64) as usize;
        let start = set * self.ways;
        let way = self.lines[start..start + self.ways]
            .iter()
            .position(|l| matches!(l, Some(l) if l.key == key))?;
        Some((set, start + way))
    }

    fn insert(&mut self, key: u64, data: u32) -> Option<(u64, u32)> {
        let set = (key % self.sets as u64) as usize;
        let start = set * self.ways;
        let present = self.find(key).map(|(_, at)| at - start);
        let lines = &mut self.lines[start..start + self.ways];
        let w = present
            .or_else(|| lines.iter().position(Option::is_none))
            .unwrap_or_else(|| model_victim(self.plru[set], self.ways));
        let old = lines[w].replace(Line { key, data });
        model_touch(&mut self.plru[set], w, self.ways);
        match old {
            Some(victim) if present.is_none() => Some((victim.key, victim.data)),
            Some(_) => None,
            None => {
                self.occupied += 1;
                None
            }
        }
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut u32> {
        let (set, at) = self.find(key)?;
        model_touch(&mut self.plru[set], at - set * self.ways, self.ways);
        self.lines[at].as_mut().map(|l| &mut l.data)
    }

    fn remove(&mut self, key: u64) -> Option<u32> {
        let (_, at) = self.find(key)?;
        self.occupied -= 1;
        self.lines[at].take().map(|l| l.data)
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.sets.save(&mut w);
        self.ways.save(&mut w);
        w.u32(0);
        self.lines.save(&mut w);
        self.plru.save(&mut w);
        self.occupied.save(&mut w);
        w.into_bytes()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Touches at random ways leave the same bits and name the same victim.
    #[test]
    fn plru_matches_the_branchy_model(touches in proptest::collection::vec(0usize..64, 1..200)) {
        for ways in WAYS {
            let (mut plru, mut bits) = (TreePlru::new(), 0u64);
            for &t in &touches {
                let way = t % ways;
                plru.touch(way, ways);
                model_touch(&mut bits, way, ways);
                prop_assert_eq!(encode(&plru), encode(&bits), "{} ways, touch {}", ways, way);
                prop_assert_eq!(plru.victim(ways), model_victim(bits, ways), "{} ways", ways);
            }
        }
    }

    /// Inserts, lookups and removals over a key space twice the capacity
    /// (so sets fill, evict and hold gaps a later key sits behind) return
    /// and leave what the two-scan model does. The sequence is replayed,
    /// with its keys shifted, until it has made six operations per line
    /// slot, so the widest sets fill too.
    #[test]
    fn set_assoc_matches_the_two_scan_model(
        sets in 1usize..4,
        ops in proptest::collection::vec((0u8..8, 0u64..1 << 20), 64..300),
    ) {
        for ways in WAYS {
            let keys = (2 * sets * ways) as u64;
            let mut a: SetAssoc<u32> = SetAssoc::new(sets, ways, 0);
            let mut m = Model::new(sets, ways);
            let mut evictions = 0;
            for i in 0..ops.len().max(6 * sets * ways) {
                let (op, k) = ops[i % ops.len()];
                let key = (k + (i / ops.len()) as u64 * 7919) % keys;
                match op {
                    0..=3 => {
                        let data = i as u32;
                        let victim = a.insert(key, data);
                        prop_assert_eq!(victim, m.insert(key, data), "insert {}", key);
                        evictions += usize::from(victim.is_some());
                    }
                    4..=6 => prop_assert_eq!(a.get_mut(key).copied(), m.get_mut(key).copied()),
                    _ => prop_assert_eq!(a.remove(key), m.remove(key)),
                }
                prop_assert_eq!(a.occupancy(), m.occupied);
                prop_assert_eq!(encode(&a), m.encode(), "{} sets x {} ways, op {}", sets, ways, i);
            }
            prop_assert!(evictions > 0, "{} sets x {} ways never filled a set", sets, ways);
            let lines: Vec<(u64, u32)> = a.iter().map(|(k, &d)| (k, d)).collect();
            let want: Vec<(u64, u32)> = m.lines.iter().flatten().map(|l| (l.key, l.data)).collect();
            prop_assert_eq!(lines, want);
        }
    }
}
