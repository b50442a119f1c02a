//! Layer replay: the workload's reference stream, captured through the
//! public runtime API, fed to each layer on its own and to the machine in
//! `process_ref` order, one span per [`BATCH`] references. No clock is
//! read per reference; the one exception is the machine pass's miss
//! fills, timed per miss (a fill costs several hundred ns, two clock
//! reads about forty), with the measured cost of the clock reads taken
//! back out.
//!
//! Tasks are replayed in a topological order of the task graph and dealt
//! to cores round-robin, so the replayed interleaving is not the
//! driver's; the layers see the same references, regions and sharing.

use crate::bench::{ratio, Layers};
use crate::sim::SimCell;
use crate::trace::Tracer;
use raccd_cache::{L1Cache, L1Line, L1State, LlcBank, LlcLine};
use raccd_core::{Census, CoherenceMode, Ncrt, PageClassifier, PtDecision};
use raccd_mem::{BlockAddr, FrameAllocPolicy, PAddr, PageNum, PageTable, Tlb, VAddr};
use raccd_noc::{Mesh, MsgClass};
use raccd_protocol::{DirEntry, DirectoryBank};
use raccd_runtime::{Dep, MemRef, Program, TaskCtx, TaskGraph};
use raccd_sched::SchedParams;
use raccd_sim::{L1LookupResult, Machine, MachineConfig};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// References per replay span.
const BATCH: usize = 4096;

struct TaskTrace {
    name: String,
    core: usize,
    deps: Vec<Dep>,
    refs: Vec<MemRef>,
}

/// The captured stream: every task's references, in a topological order.
struct Stream {
    tasks: Vec<TaskTrace>,
    refs: u64,
}

impl Stream {
    /// `(core, batch)` for every [`BATCH`]-sized piece of every task.
    fn batches(&self) -> impl Iterator<Item = (usize, &[MemRef])> {
        self.tasks
            .iter()
            .flat_map(|t| t.refs.chunks(BATCH).map(move |b| (t.core, b)))
    }
}

fn vaddr(cfg: &MachineConfig, core: usize, r: MemRef) -> VAddr {
    if r.is_stack() {
        VAddr(cfg.stack_base(core) + r.addr().0)
    } else {
        r.addr()
    }
}

/// Run every task body functionally, as the driver does at dispatch, and
/// keep the traces. One `runtime.body` span per task.
fn capture(cell: &SimCell, tr: &mut Tracer) -> Stream {
    let Program { mut mem, mut graph } = cell.workload.build();
    let ncores = cell.cfg.ncores;
    let mut queue: VecDeque<usize> = graph.initially_ready().into();
    let mut tasks = Vec::with_capacity(graph.len());
    let mut refs = 0;
    while let Some(id) = queue.pop_front() {
        let body = graph.take_body(id);
        let mut trace = Vec::new();
        let s = tr.begin("runtime.body");
        {
            let mut ctx = TaskCtx::new(&mut mem, &mut trace);
            body(&mut ctx);
            ctx.stack_traffic(cell.cfg.runtime.stack_words_per_task);
        }
        tr.end_units(s, trace.len() as u64);
        refs += trace.len() as u64;
        tasks.push(TaskTrace {
            name: graph.name(id).to_string(),
            core: tasks.len() % ncores,
            deps: graph.deps(id).to_vec(),
            refs: trace,
        });
        queue.extend(graph.complete(id));
    }
    assert_eq!(tasks.len(), graph.len(), "task graph has a cycle");
    Stream { tasks, refs }
}

/// Nanoseconds one `Instant::now()` + `elapsed()` pair costs here.
fn clock_pair_ns() -> f64 {
    const N: u32 = 200_000;
    let t = Instant::now();
    let mut acc = 0u128;
    for _ in 0..N {
        acc += black_box(Instant::now()).elapsed().as_nanos();
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / N as f64
}

/// Replay `cell`'s stream through every layer and set the layer metrics.
pub fn layers(cell: &SimCell, tr: &mut Tracer, out: &mut Layers) {
    let cfg = &cell.cfg;
    let stream = capture(cell, tr);
    graph_and_sched(&stream, cfg, tr);
    let misses = memory_layers(&stream, cfg, tr);
    shared_layers(&misses, cfg, tr);
    let fills = machine_pass(&stream, cell, tr);

    let totals = tr.totals(None);
    let per_unit = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_unit());
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.secs());
    out.set("runtime.body_ns_per_ref", per_unit("runtime.body"));
    out.set("runtime.graph_ns_per_task", per_unit("runtime.graph"));
    out.set("sched.push_pop_ns_per_task", per_unit("sched.push_pop"));
    out.set("mem.tlb_ns_per_lookup", per_unit("mem.tlb"));
    out.set("mem.tlb_hit_ratio", misses.tlb_hit_ratio);
    out.set("mem.pagetable_ns_per_walk", per_unit("mem.pagetable"));
    out.set("cache.l1_ns_per_access", per_unit("cache.l1"));
    out.set("cache.llc_ns_per_access", per_unit("cache.llc"));
    out.set("protocol.dir_ns_per_access", per_unit("protocol.dir"));
    out.set("noc.send_ns_per_msg", per_unit("noc.send"));
    out.set("sim.translate_ns_per_ref", per_unit("sim.translate"));
    out.set("core.pt_on_access_ns", per_unit("core.pt_on_access"));
    out.set("core.ncrt_lookup_ns", per_unit("core.ncrt_lookup"));
    out.set("core.census_record_ns", per_unit("core.census_record"));
    out.set(
        "core.ncrt_register_us_per_task",
        per_unit("core.ncrt_register") / 1e3,
    );
    out.set("sim.flush_nc_us_per_task", per_unit("sim.flush_nc") / 1e3);

    // `sim.l1_fill` spans hold lookups and fills; the fills were timed
    // one by one inside them.
    let lookup_fill_ns = secs("sim.l1_fill") * 1e9;
    let fill_ns = (fills.timed_ns - fills.count as f64 * fills.clock_pair_ns).max(0.0);
    out.set(
        "sim.miss_fill_ns_per_miss",
        ratio(fill_ns, fills.count as f64),
    );
    out.set(
        "sim.l1_lookup_ns_per_ref",
        ratio(
            (lookup_fill_ns - fills.timed_ns).max(0.0),
            stream.refs as f64,
        ),
    );
    let pass_ns: f64 = [
        "core.ncrt_register",
        "sim.translate",
        "core.pt_on_access",
        "core.ncrt_lookup",
        "sim.l1_fill",
        "core.census_record",
        "sim.flush_nc",
    ]
    .iter()
    .map(|n| secs(n) * 1e9)
    .sum();
    out.set("sim.miss_fill_share", ratio(fill_ns, pass_ns));
}

/// `runtime.graph`: rebuild the task graph from the captured dependences
/// and complete it in order. `sched.push_pop`: the configured ready-queue
/// policy, every task pushed by its waker's context and popped by its own.
fn graph_and_sched(stream: &Stream, cfg: &MachineConfig, tr: &mut Tracer) {
    let ntasks = stream.tasks.len() as u64;
    let s = tr.begin("runtime.graph");
    let mut graph = TaskGraph::new();
    for t in &stream.tasks {
        graph.add_task(&t.name, t.deps.clone(), Box::new(|_| {}));
    }
    for id in 0..stream.tasks.len() {
        black_box(graph.complete(id));
    }
    tr.end_units(s, ntasks);

    let nctx = cfg.ncontexts();
    let mut sched = raccd_sched::build(cfg.sched, &SchedParams::flat(nctx, cfg.sched_quantum));
    let s = tr.begin("sched.push_pop");
    for (id, wave) in stream.tasks.chunks(nctx).enumerate() {
        for (i, _) in wave.iter().enumerate() {
            sched.push(i, id * nctx + i);
        }
        for (i, _) in wave.iter().enumerate() {
            black_box(sched.pop(i));
        }
    }
    tr.end_units(s, ntasks);
}

/// What the private layers pass on to the shared ones.
struct Misses {
    /// `(core, block)` of every L1 miss, in order.
    l1: Vec<(usize, BlockAddr)>,
    tlb_hit_ratio: f64,
}

/// `mem.tlb` (lookup, and walk + fill on a miss, as `Machine::translate`
/// does), `mem.pagetable` (the walks alone, on a fresh table) and
/// `cache.l1` (access, fill on a miss).
fn memory_layers(stream: &Stream, cfg: &MachineConfig, tr: &mut Tracer) -> Misses {
    let mut table = PageTable::new(FrameAllocPolicy::Contiguous);
    let mut tlbs: Vec<Tlb> = (0..cfg.ncores).map(|_| Tlb::new(cfg.tlb_entries)).collect();
    let mut walks: Vec<PageNum> = Vec::new();
    for (core, batch) in stream.batches() {
        let tlb = &mut tlbs[core];
        let s = tr.begin("mem.tlb");
        for &r in batch {
            let vpage = vaddr(cfg, core, r).page();
            if tlb.lookup(vpage).is_none() {
                let ppage = table.translate_page(vpage);
                tlb.fill(vpage, ppage);
                walks.push(vpage);
            }
        }
        tr.end_units(s, batch.len() as u64);
    }
    let (hits, tlb_misses) = tlbs.iter().fold((0, 0), |(h, m), t| {
        let (th, tm) = t.stats();
        (h + th, m + tm)
    });

    let mut fresh = PageTable::new(FrameAllocPolicy::Contiguous);
    for batch in walks.chunks(BATCH) {
        let s = tr.begin("mem.pagetable");
        for &vpage in batch {
            black_box(fresh.translate_page(vpage));
        }
        tr.end_units(s, batch.len() as u64);
    }

    let mut l1s: Vec<L1Cache> = (0..cfg.ncores)
        .map(|_| L1Cache::new(cfg.l1_bytes, cfg.l1_ways))
        .collect();
    let mut misses = Vec::new();
    let mut blocks: Vec<(BlockAddr, bool)> = Vec::with_capacity(BATCH);
    for (core, batch) in stream.batches() {
        blocks.clear();
        blocks.extend(batch.iter().map(|&r| {
            let paddr = table.translate(vaddr(cfg, core, r));
            (paddr.block(), r.is_write())
        }));
        let l1 = &mut l1s[core];
        let s = tr.begin("cache.l1");
        for &(block, write) in &blocks {
            let state = if write {
                L1State::Modified
            } else {
                L1State::Exclusive
            };
            match l1.access(block) {
                Some(line) if write => line.state = state,
                Some(_) => {}
                None => {
                    let line = L1Line {
                        state,
                        nc: false,
                        tid: 0,
                    };
                    black_box(l1.fill(block, line));
                    misses.push((core, block));
                }
            }
        }
        tr.end_units(s, blocks.len() as u64);
    }
    Misses {
        l1: misses,
        tlb_hit_ratio: ratio(hits as f64, (hits + tlb_misses) as f64),
    }
}

/// The L1 miss stream through the shared layers, banked by home tile as
/// the machine banks them: `cache.llc`, `protocol.dir` (access, allocate
/// on a miss, evicting under the configured ratio) and `noc.send` (a
/// request to the home tile and a data response back).
fn shared_layers(misses: &Misses, cfg: &MachineConfig, tr: &mut Tracer) {
    let n = cfg.ncores;
    let bank_bits = n.trailing_zeros();
    let home = |b: BlockAddr| (b.0 % n as u64) as usize;
    let mut llc: Vec<LlcBank> = (0..n)
        .map(|_| LlcBank::new(cfg.llc_entries_per_bank, cfg.llc_ways, bank_bits))
        .collect();
    let mut dir: Vec<DirectoryBank> = (0..n)
        .map(|_| DirectoryBank::new(cfg.dir_entries_per_bank(), cfg.dir_ways, bank_bits))
        .collect();
    let mut noc = Mesh::for_topology(
        cfg.topology,
        cfg.mesh_k,
        cfg.lat.link,
        cfg.lat.router,
        cfg.flit_bytes,
        cfg.lat.xlink,
    );
    let mut now = 0u64;
    for batch in misses.l1.chunks(BATCH) {
        let s = tr.begin("cache.llc");
        for &(_, block) in batch {
            let bank = &mut llc[home(block)];
            if bank.access(block).is_none() {
                let line = LlcLine {
                    dirty: false,
                    nc: false,
                };
                black_box(bank.fill(block, line));
            }
        }
        tr.end_units(s, batch.len() as u64);

        let s = tr.begin("protocol.dir");
        for &(_, block) in batch {
            now += 1;
            let bank = &mut dir[home(block)];
            bank.record_access(now);
            if bank.lookup(block).is_none() {
                black_box(bank.allocate(block, now, DirEntry::uncached()));
            }
        }
        tr.end_units(s, batch.len() as u64);

        let s = tr.begin("noc.send");
        for &(core, block) in batch {
            let h = home(block);
            black_box(noc.send(core, h, MsgClass::Request));
            black_box(noc.send(h, core, MsgClass::DataResponse));
        }
        tr.end_units(s, 2 * batch.len() as u64);
    }
}

/// Miss fills of the machine pass, timed one by one.
struct Fills {
    count: u64,
    timed_ns: f64,
    clock_pair_ns: f64,
}

/// One reference's way through a batch of the machine pass.
#[derive(Clone, Copy)]
struct Staged {
    vaddr: VAddr,
    paddr: PAddr,
    write: bool,
    nc: bool,
    /// Previous owner, when the page classifier saw a private → shared
    /// transition at this reference.
    flush: Option<usize>,
    coherent: bool,
}

/// The whole machine under the cell's own coherence mode, each batch
/// staged through the pieces of `process_ref` in its order — translate,
/// page classification, NCRT lookup, L1 lookup + miss fill, census — with
/// `raccd_register` before and `raccd_invalidate` after each task under
/// RaCCD. The classifier and the NCRT are fed in every mode (on a scratch
/// machine where the mode itself would not register), but decide only in
/// their own.
fn machine_pass(stream: &Stream, cell: &SimCell, tr: &mut Tracer) -> Fills {
    let cfg = &cell.cfg;
    let mode = cell.mode;
    let raccd = mode == CoherenceMode::Raccd;
    let mut machine = Machine::new(*cfg);
    let mut scratch = (!raccd).then(|| Machine::new(*cfg));
    let mut ncrts: Vec<Ncrt> = (0..cfg.ncores)
        .map(|_| Ncrt::new(cfg.ncrt_entries))
        .collect();
    let mut classifier = PageClassifier::new();
    let mut census = Census::new();
    let mut now = vec![0u64; cfg.ncores];
    let mut staged: Vec<Staged> = Vec::with_capacity(BATCH);
    let mut fills = Fills {
        count: 0,
        timed_ns: 0.0,
        clock_pair_ns: clock_pair_ns(),
    };

    for task in &stream.tasks {
        let core = task.core;
        let ncrt = &mut ncrts[core];
        let s = tr.begin("core.ncrt_register");
        for dep in &task.deps {
            let m = scratch.as_mut().unwrap_or(&mut machine);
            let reg = ncrt.register_region(m, core, dep.range, &cfg.runtime);
            now[core] += reg.cycles;
        }
        tr.end_units(s, 1);

        for batch in task.refs.chunks(BATCH) {
            let units = batch.len() as u64;
            staged.clear();
            let s = tr.begin("sim.translate");
            for &r in batch {
                let v = vaddr(cfg, core, r);
                let (paddr, cycles) = machine.translate(core, v);
                now[core] += cycles;
                staged.push(Staged {
                    vaddr: v,
                    paddr,
                    write: r.is_write(),
                    nc: false,
                    flush: None,
                    coherent: true,
                });
            }
            tr.end_units(s, units);

            let s = tr.begin("core.pt_on_access");
            for st in &mut staged {
                match classifier.on_access(core, st.paddr.page()) {
                    PtDecision::Private => st.nc = mode == CoherenceMode::PageTable,
                    PtDecision::Shared => {}
                    PtDecision::Transition { prev_owner } => st.flush = Some(prev_owner),
                }
            }
            tr.end_units(s, units);

            let s = tr.begin("core.ncrt_lookup");
            for st in &mut staged {
                let hit = ncrt.lookup(st.paddr);
                if raccd {
                    st.nc = hit;
                } else {
                    black_box(hit);
                }
            }
            tr.end_units(s, units);

            let s = tr.begin("sim.l1_fill");
            for st in &mut staged {
                let at = now[core];
                if let (CoherenceMode::PageTable, Some(prev)) = (mode, st.flush) {
                    now[core] += machine.flush_page(prev, st.paddr.page(), st.vaddr.page(), at);
                }
                match machine.l1_lookup(core, st.paddr.block(), st.write, at) {
                    L1LookupResult::Hit { cycles, nc } => {
                        now[core] += cycles;
                        st.coherent = !nc;
                    }
                    L1LookupResult::Miss => {
                        let t = Instant::now();
                        let cycles =
                            machine.miss_fill_smt(core, 0, st.paddr.block(), st.write, st.nc, at);
                        fills.timed_ns += t.elapsed().as_nanos() as f64;
                        fills.count += 1;
                        now[core] += cycles;
                        st.coherent = !st.nc;
                    }
                }
            }
            tr.end_units(s, units);

            let s = tr.begin("core.census_record");
            for st in &staged {
                census.record(st.paddr.block(), st.coherent);
            }
            tr.end_units(s, units);
        }

        if raccd {
            let s = tr.begin("sim.flush_nc");
            now[core] += machine.flush_nc_filtered(core, None, now[core]);
            tr.end_units(s, 1);
        }
        ncrt.clear();
    }
    black_box(census.summary());
    fills
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_references_land_in_the_cores_own_stack() {
        let cfg = MachineConfig::scaled();
        let heap = MemRef::heap(VAddr(0x40_0000), false, 4);
        assert_eq!(vaddr(&cfg, 3, heap), VAddr(0x40_0000));
        let stack = MemRef::stack(64, true);
        assert_eq!(vaddr(&cfg, 3, stack), VAddr(cfg.stack_base(3) + 64));
        assert_ne!(vaddr(&cfg, 2, stack), vaddr(&cfg, 3, stack));
    }
}
