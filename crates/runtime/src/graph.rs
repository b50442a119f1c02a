//! Task Dependence Graph construction and completion wake-up.
//!
//! Tasks are inserted in program order. Dependences are tracked over
//! *region runs*: maximal runs of cache blocks that every task so far
//! touched alike, held in an ordered map keyed by first block — the shape
//! of the region maps Nanos++ derives its TDG from. A new annotation
//! splits the runs under its two boundaries (an untouched stretch is a run
//! with no history, made by the same split) and applies the last-writer /
//! readers-since-that-write rule once per run, so a 1 MB range costs what
//! the boundaries inside it cost, not 16 384 block visits. Edges are the
//! usual RAW / WAR / WAW dependences. "Only when all the dependences of a
//! task have been satisfied does a task move from created, to ready"
//! (§II-C).

use crate::region::{Dep, DepDir};
use crate::task::TaskBody;
use raccd_mem::BLOCK_SHIFT;
use std::collections::BTreeMap;

/// Index of a task in its graph.
pub type TaskId = usize;

/// Dependence state shared by every block of one run: from the run's key
/// up to the next key of the map.
#[derive(Clone, Default)]
struct Run {
    last_writer: Option<TaskId>,
    readers_since_write: Vec<TaskId>,
}

impl Run {
    /// Apply one access by task `id` to every block of the run, pushing
    /// the tasks it must wait for.
    fn access(&mut self, dir: DepDir, id: TaskId, preds: &mut Vec<TaskId>) {
        if dir.writes() {
            preds.extend(self.last_writer); // WAW (and RAW for inout)
            preds.append(&mut self.readers_since_write); // WAR
            self.last_writer = Some(id);
        } else {
            preds.extend(self.last_writer); // RAW
            self.readers_since_write.push(id);
        }
    }
}

struct TaskNode {
    name: String,
    deps: Vec<Dep>,
    body: Option<TaskBody>,
    dependents: Vec<TaskId>,
    /// Unsatisfied incoming edges.
    indegree: usize,
}

/// The Task Dependence Graph: a DAG whose "nodes represent tasks and the
/// edges are data dependences between tasks" (§II-C).
///
/// ```
/// use raccd_runtime::{Dep, TaskGraph};
/// use raccd_mem::{VAddr, addr::VRange};
/// let mut g = TaskGraph::new();
/// let data = VRange::new(VAddr(0x40_0000), 4096);
/// let producer = g.add_task("write", vec![Dep::output(data)], Box::new(|_| {}));
/// let consumer = g.add_task("read", vec![Dep::input(data)], Box::new(|_| {}));
/// assert_eq!(g.initially_ready(), vec![producer]);
/// assert_eq!(g.complete(producer), vec![consumer]); // RAW edge satisfied
/// ```
#[derive(Default)]
pub struct TaskGraph {
    tasks: Vec<TaskNode>,
    /// Region runs by first block. They tile the block space from the
    /// first key upwards; untouched stretches are runs with no history.
    runs: BTreeMap<u64, Run>,
    edges: usize,
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Insert a task with its dependence annotations and body. Edges to
    /// earlier tasks are discovered here. Returns the new task's id.
    pub fn add_task(&mut self, name: &str, deps: Vec<Dep>, body: TaskBody) -> TaskId {
        let id = self.tasks.len();
        let mut preds: Vec<TaskId> = Vec::new();

        for dep in &deps {
            // A zero-length range still registers on its start block.
            let first = dep.range.start.0 >> BLOCK_SHIFT;
            let end = ((dep.range.start.0 + dep.range.len.max(1) - 1) >> BLOCK_SHIFT) + 1;
            self.split_at(first);
            self.split_at(end);
            for (_, run) in self.runs.range_mut(first..end) {
                run.access(dep.dir, id, &mut preds);
            }
        }

        preds.sort_unstable();
        preds.dedup();
        preds.retain(|&p| p != id);
        self.push_node(name, deps, body, &preds)
    }

    /// Append a task that waits for `preds` (sorted, distinct, earlier).
    fn push_node(
        &mut self,
        name: &str,
        deps: Vec<Dep>,
        body: TaskBody,
        preds: &[TaskId],
    ) -> TaskId {
        let id = self.tasks.len();
        for &p in preds {
            self.tasks[p].dependents.push(id);
        }
        self.edges += preds.len();
        self.tasks.push(TaskNode {
            name: name.to_string(),
            deps,
            body: Some(body),
            dependents: Vec::new(),
            indegree: preds.len(),
        });
        id
    }

    /// Make `block` the first block of a run. The run it was inside, or
    /// the untouched space below the first run, keeps its history on both
    /// sides of the cut.
    fn split_at(&mut self, block: u64) {
        if !self.runs.contains_key(&block) {
            let inside = self.runs.range(..block).next_back();
            let history = inside.map(|(_, run)| run.clone()).unwrap_or_default();
            self.runs.insert(block, history);
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of dependence edges discovered.
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// Tasks with no unsatisfied dependences at creation (the initial ready
    /// set).
    pub fn initially_ready(&self) -> Vec<TaskId> {
        (0..self.tasks.len())
            .filter(|&t| self.tasks[t].indegree == 0)
            .collect()
    }

    /// Name of a task.
    pub fn name(&self, id: TaskId) -> &str {
        &self.tasks[id].name
    }

    /// Dependence annotations of a task (what `raccd_register` will walk).
    pub fn deps(&self, id: TaskId) -> &[Dep] {
        &self.tasks[id].deps
    }

    /// Number of dependent tasks (wake-up phase cost driver).
    pub fn dependent_count(&self, id: TaskId) -> usize {
        self.tasks[id].dependents.len()
    }

    /// Direct dependents of a task (every edge goes to a *higher* id, so
    /// critical-path depths are computable in one reverse sweep). Call
    /// before executing tasks — wake-up consumes the dependent lists.
    pub fn dependents(&self, id: TaskId) -> &[TaskId] {
        &self.tasks[id].dependents
    }

    /// Take a task's body for execution. Panics if taken twice.
    pub fn take_body(&mut self, id: TaskId) -> TaskBody {
        self.tasks[id].body.take().expect("task body already taken")
    }

    /// Insert a barrier task (OpenMP `taskwait`): it depends on every
    /// current *sink* task (tasks nothing depends on yet), so it becomes
    /// ready only when all previously created work has finished. Returns
    /// the barrier's task id; `body` runs when the barrier is reached.
    pub fn add_barrier(&mut self, name: &str, body: TaskBody) -> TaskId {
        let sinks: Vec<TaskId> = (0..self.tasks.len())
            .filter(|&t| self.tasks[t].dependents.is_empty())
            .collect();
        self.push_node(name, Vec::new(), body, &sinks)
    }

    /// Render the TDG in Graphviz DOT format (the right-hand side of the
    /// paper's Figure 1). Call before executing tasks — wake-up consumes
    /// the dependent lists.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph tdg {\n  rankdir=TB;\n");
        for (id, node) in self.tasks.iter().enumerate() {
            out.push_str(&format!("  t{id} [label=\"{}#{id}\"];\n", node.name));
        }
        for (id, node) in self.tasks.iter().enumerate() {
            for &d in &node.dependents {
                out.push_str(&format!("  t{id} -> t{d};\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Wake-up phase: mark `id` complete and return dependents that became
    /// ready.
    pub fn complete(&mut self, id: TaskId) -> Vec<TaskId> {
        let dependents = std::mem::take(&mut self.tasks[id].dependents);
        let mut ready = Vec::new();
        for d in dependents {
            let node = &mut self.tasks[d];
            node.indegree -= 1;
            if node.indegree == 0 {
                ready.push(d);
            }
        }
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Dep;
    use raccd_mem::{addr::VRange, VAddr};

    fn r(start: u64, len: u64) -> VRange {
        VRange::new(VAddr(start), len)
    }

    fn nop() -> TaskBody {
        Box::new(|_| {})
    }

    #[test]
    fn raw_dependence() {
        let mut g = TaskGraph::new();
        let t0 = g.add_task("w", vec![Dep::output(r(0x1000, 64))], nop());
        let t1 = g.add_task("r", vec![Dep::input(r(0x1000, 64))], nop());
        assert_eq!(g.edges(), 1);
        assert_eq!(g.initially_ready(), vec![t0]);
        assert_eq!(g.complete(t0), vec![t1]);
    }

    #[test]
    fn war_dependence() {
        let mut g = TaskGraph::new();
        let _w0 = g.add_task("w0", vec![Dep::output(r(0x1000, 64))], nop());
        let t_r = g.add_task("r", vec![Dep::input(r(0x1000, 64))], nop());
        let t_w = g.add_task("w1", vec![Dep::output(r(0x1000, 64))], nop());
        // w1 depends on both w0 (WAW) and r (WAR).
        assert_eq!(g.edges(), 1 + 2);
        assert!(!g.initially_ready().contains(&t_w));
        let _ = g.complete(0);
        // r becomes ready, w1 still blocked by r.
        assert_eq!(g.complete(t_r), vec![t_w]);
    }

    #[test]
    fn independent_tasks_all_ready() {
        let mut g = TaskGraph::new();
        for i in 0..5u64 {
            g.add_task("t", vec![Dep::output(r(0x1000 + i * 4096, 64))], nop());
        }
        assert_eq!(g.initially_ready().len(), 5);
        assert_eq!(g.edges(), 0);
    }

    #[test]
    fn unannotated_tasks_are_independent() {
        // JPEG's tasks carry no annotations (§II-D) — all immediately ready.
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            g.add_task("jpeg", vec![], nop());
        }
        assert_eq!(g.initially_ready().len(), 4);
    }

    #[test]
    fn readers_do_not_depend_on_each_other() {
        let mut g = TaskGraph::new();
        let w = g.add_task("w", vec![Dep::output(r(0x1000, 128))], nop());
        let r1 = g.add_task("r1", vec![Dep::input(r(0x1000, 64))], nop());
        let r2 = g.add_task("r2", vec![Dep::input(r(0x1040, 64))], nop());
        assert_eq!(g.edges(), 2);
        let ready = g.complete(w);
        assert_eq!(ready, vec![r1, r2]);
    }

    #[test]
    fn duplicate_edges_are_deduped() {
        let mut g = TaskGraph::new();
        let _w = g.add_task("w", vec![Dep::output(r(0x1000, 4096))], nop());
        // Reader overlaps many blocks of the same writer — still one edge.
        let _r = g.add_task("r", vec![Dep::input(r(0x1000, 4096))], nop());
        assert_eq!(g.edges(), 1);
    }

    #[test]
    fn inout_chains_serialize() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", vec![Dep::inout(r(0x1000, 64))], nop());
        let b = g.add_task("b", vec![Dep::inout(r(0x1000, 64))], nop());
        let c = g.add_task("c", vec![Dep::inout(r(0x1000, 64))], nop());
        assert_eq!(g.initially_ready(), vec![a]);
        assert_eq!(g.complete(a), vec![b]);
        assert_eq!(g.complete(b), vec![c]);
        assert_eq!(g.dependent_count(c), 0);
    }

    #[test]
    fn cholesky_shape_dependences() {
        // Mini 2×2-block Cholesky from Figure 1: potrf(0,0); trsm(1,0);
        // syrk(1,1); potrf(1,1).
        let blk = 4096u64;
        let a = |i: u64, j: u64| r(0x10_0000 + (i * 2 + j) * blk, blk);
        let mut g = TaskGraph::new();
        let potrf0 = g.add_task("potrf", vec![Dep::inout(a(0, 0))], nop());
        let trsm = g.add_task(
            "trsm",
            vec![Dep::input(a(0, 0)), Dep::inout(a(1, 0))],
            nop(),
        );
        let syrk = g.add_task(
            "syrk",
            vec![Dep::input(a(1, 0)), Dep::inout(a(1, 1))],
            nop(),
        );
        let potrf1 = g.add_task("potrf", vec![Dep::inout(a(1, 1))], nop());
        // Chain: potrf0 → trsm → syrk → potrf1.
        assert_eq!(g.initially_ready(), vec![potrf0]);
        assert_eq!(g.complete(potrf0), vec![trsm]);
        assert_eq!(g.complete(trsm), vec![syrk]);
        assert_eq!(g.complete(syrk), vec![potrf1]);
    }

    #[test]
    fn barrier_waits_for_all_sinks() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", vec![Dep::output(r(0x1000, 64))], nop());
        let b = g.add_task("b", vec![Dep::output(r(0x2000, 64))], nop());
        let c = g.add_task("c", vec![Dep::input(r(0x1000, 64))], nop());
        let bar = g.add_barrier("barrier", nop());
        // Sinks at barrier time: b and c (a has dependent c).
        assert_eq!(g.initially_ready(), vec![a, b]);
        assert!(g.complete(a).contains(&c));
        assert!(g.complete(b).is_empty(), "barrier still waits for c");
        assert_eq!(g.complete(c), vec![bar]);
    }

    #[test]
    fn barrier_on_empty_graph_is_ready() {
        let mut g = TaskGraph::new();
        let bar = g.add_barrier("barrier", nop());
        assert_eq!(g.initially_ready(), vec![bar]);
    }

    #[test]
    fn tasks_after_barrier_depend_transitively() {
        let mut g = TaskGraph::new();
        let _a = g.add_task("a", vec![Dep::output(r(0x1000, 64))], nop());
        let bar = g.add_barrier("barrier", nop());
        // A post-barrier task touching fresh data is independent of the
        // barrier in the dependence map — callers serialise via data or by
        // depending on barrier-produced ranges. Verify the barrier itself
        // drains normally.
        assert_eq!(g.complete(0), vec![bar]);
    }

    #[test]
    fn dot_export_lists_nodes_and_edges() {
        let mut g = TaskGraph::new();
        let _a = g.add_task("w", vec![Dep::output(r(0x1000, 64))], nop());
        let _b = g.add_task("r", vec![Dep::input(r(0x1000, 64))], nop());
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph tdg {"));
        assert!(dot.contains("t0 [label=\"w#0\"]"));
        assert!(dot.contains("t1 [label=\"r#1\"]"));
        assert!(dot.contains("t0 -> t1;"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn body_taken_once() {
        let mut g = TaskGraph::new();
        let t = g.add_task("t", vec![], nop());
        let _ = g.take_body(t);
        let _ = g.take_body(t);
    }
}
