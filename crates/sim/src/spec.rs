//! Hit-prefix speculation for the epoch-parallel engine.
//!
//! A core turn replays up to `BATCH` references. The leading run of
//! references that hit in the core's *private* structures (TLB + L1)
//! touches nothing shared: no directory, no LLC, no NoC, no other core.
//! That prefix can therefore be executed on a detached
//! [`CoreShard`](crate::machine::CoreShard) clone, off-thread, while
//! other cores' prefixes are speculated concurrently — and committed later
//! by adopting the shard wholesale, bit-identically to serial execution.
//!
//! The interpreter here mirrors the serial hit path exactly
//! (`Machine::translate` + `Machine::l1_lookup` hit branches) and stops at
//! the first reference whose serial execution would leave the private
//! shard: a TLB miss (page walk), an L1 miss (fill path), any write under
//! write-through (store propagation to the LLC), or a coherent write hit
//! in Shared (directory upgrade). Everything up to that point is consumed
//! with the same mutations and the same per-reference latency the serial
//! engine charges; the stopped reference and its successors are replayed
//! serially at commit time on the adopted shard, so counters and
//! replacement state line up exactly.

use crate::config::MachineConfig;
use crate::machine::CoreShard;
use raccd_cache::L1State;
use raccd_mem::{BlockAddr, VAddr};

/// One speculated (hit) reference: everything the commit phase needs to
/// reproduce the serial side effects that live *outside* the shard — the
/// checker event pair, the refs-processed counter and the latency
/// histograms. (The census is not among them: it is recorded at fill
/// time, and a hit prefix fills nothing.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecRef {
    /// The block hit.
    pub block: BlockAddr,
    /// Whether the reference was a write.
    pub write: bool,
    /// Whether the line hit carried the NC bit.
    pub nc: bool,
    /// Cycles the serial engine charges for this hit (TLB + L1 latency).
    pub cycles: u64,
}

/// The result of speculating one turn: the mutated shard plus the hit
/// prefix it consumed. `refs.len()` references were executed; the caller
/// replays the rest of the batch serially after adopting the shard.
#[derive(Clone)]
pub struct HitPrefix {
    /// The shard after consuming the prefix.
    pub shard: CoreShard,
    /// The consumed references, in order.
    pub refs: Vec<SpecRef>,
}

/// Speculate the private hit prefix of one turn. `refs` is the turn's
/// batch as `(virtual address, is_write)` pairs, already stack-rebased.
///
/// Side-effect-free with respect to the machine: only the passed shard
/// clone is mutated. Stops (leaving the reference unconsumed) at:
/// * TLB miss — the serial path walks the shared page table;
/// * L1 miss — the serial path enters a fill transaction;
/// * any write when `cfg.l1_write_through` — stores propagate to the LLC;
/// * a coherent write hit in any non-exclusive state (Shared, MESIF
///   Forward, MOESI Owned) — the serial path upgrades through the
///   directory.
pub fn speculate_hit_prefix(
    cfg: &MachineConfig,
    mut shard: CoreShard,
    refs: &[(VAddr, bool)],
) -> HitPrefix {
    let hit_cycles = cfg.lat.tlb + cfg.lat.l1;
    let mut out = Vec::new();
    for &(vaddr, write) in refs {
        let vpage = vaddr.page();
        // Peek first: `Tlb::lookup` and `L1Cache::access` mutate counters
        // even on a miss, and a missed reference must be replayed serially
        // with those mutations happening there.
        let Some(ppage) = shard.tlb.peek(vpage) else {
            break;
        };
        let block = vaddr.on_frame(ppage).block();
        let Some(line) = shard.l1.probe(block) else {
            break;
        };
        let nc = line.nc;
        let state = line.state;
        if write {
            if cfg.l1_write_through {
                break;
            }
            if !nc && !matches!(state, L1State::Modified | L1State::Exclusive) {
                // S (and MESIF F / MOESI O) write hits upgrade through the
                // directory — not a private action.
                break;
            }
        }
        // Consume: the exact serial hit mutations. TLB stamp + hit counter,
        // L1 PLRU + hit counter, and M on a write-back write hit.
        let looked = shard.tlb.lookup(vpage);
        debug_assert_eq!(looked, Some(ppage));
        let accessed = shard.l1.access(block).expect("line just probed");
        if write {
            accessed.state = L1State::Modified;
        }
        out.push(SpecRef {
            block,
            write,
            nc,
            cycles: hit_cycles,
        });
    }
    HitPrefix { shard, refs: out }
}
