//! Task bodies and the context they execute against.
//!
//! A task body is a closure over a [`TaskCtx`]. Every typed accessor both
//! performs the real read/write on the byte backing store **and** records a
//! [`MemRef`] for the timing model. Because the programming model
//! guarantees the task's annotated data is race-free while it executes
//! (§II-D), running the body functionally at dispatch time and replaying
//! its trace under contention is exact.

use raccd_mem::{MemRef, SimMemory, VAddr};

/// A task body: consumes a [`TaskCtx`] once.
pub type TaskBody = Box<dyn FnOnce(&mut TaskCtx<'_>)>;

/// Execution context handed to task bodies: functional memory plus the
/// trace recorder.
pub struct TaskCtx<'a> {
    mem: &'a mut SimMemory,
    trace: &'a mut Vec<MemRef>,
}

impl<'a> TaskCtx<'a> {
    /// Wrap memory and an (empty or reused) trace buffer.
    pub fn new(mem: &'a mut SimMemory, trace: &'a mut Vec<MemRef>) -> Self {
        TaskCtx { mem, trace }
    }

    /// Record `2 * words` references (read+write pairs) to the executing
    /// core's private stack, modelling task-local spills/temporaries that
    /// are *not* covered by dependence annotations. Offsets walk a small
    /// working window so they hit a handful of stack blocks.
    pub fn stack_traffic(&mut self, words: u64) {
        for i in 0..words {
            let off = (i % 512) * 8; // 4 KiB window
            self.trace.push(MemRef::stack(off, false));
            self.trace.push(MemRef::stack(off, true));
        }
    }

    /// Read-only view of the underlying memory (for bulk host-side
    /// operations inside bodies that account their traffic manually).
    pub fn memory(&self) -> &SimMemory {
        self.mem
    }
}

macro_rules! ctx_access {
    ($read:ident, $write:ident, $ty:ty, $size:expr) => {
        impl<'a> TaskCtx<'a> {
            /// Typed load: performs the functional read and records the
            /// reference.
            #[inline]
            pub fn $read(&mut self, addr: VAddr) -> $ty {
                self.trace.push(MemRef::heap(addr, false, $size));
                self.mem.$read(addr)
            }

            /// Typed store: performs the functional write and records the
            /// reference.
            #[inline]
            pub fn $write(&mut self, addr: VAddr, v: $ty) {
                self.trace.push(MemRef::heap(addr, true, $size));
                self.mem.$write(addr, v)
            }
        }
    };
}

ctx_access!(read_u8, write_u8, u8, 1);
ctx_access!(read_u16, write_u16, u16, 2);
ctx_access!(read_u32, write_u32, u32, 4);
ctx_access!(read_u64, write_u64, u64, 8);
ctx_access!(read_i32, write_i32, i32, 4);
ctx_access!(read_f32, write_f32, f32, 4);
ctx_access!(read_f64, write_f64, f64, 8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_are_functional_and_traced() {
        let mut mem = SimMemory::new();
        let buf = mem.alloc("x", 64);
        let mut trace = Vec::new();
        {
            let mut ctx = TaskCtx::new(&mut mem, &mut trace);
            ctx.write_f32(buf.start, 2.5);
            let v = ctx.read_f32(buf.start);
            assert_eq!(v, 2.5);
        }
        assert_eq!(mem.read_f32(buf.start), 2.5, "functional effect persists");
        assert_eq!(trace.len(), 2);
        assert!(trace[0].is_write());
        assert!(!trace[1].is_write());
        assert_eq!(trace[0].addr(), buf.start);
        assert_eq!(trace[0].size(), 4);
    }

    #[test]
    fn stack_traffic_marks_stack_refs() {
        let mut mem = SimMemory::new();
        let mut trace = Vec::new();
        let mut ctx = TaskCtx::new(&mut mem, &mut trace);
        ctx.stack_traffic(3);
        assert_eq!(trace.len(), 6);
        assert!(trace.iter().all(|r| r.is_stack()));
        assert_eq!(trace.iter().filter(|r| r.is_write()).count(), 3);
    }

    #[test]
    fn mixed_sizes_recorded() {
        let mut mem = SimMemory::new();
        let buf = mem.alloc("x", 64);
        let mut trace = Vec::new();
        let mut ctx = TaskCtx::new(&mut mem, &mut trace);
        ctx.write_u8(buf.start, 1);
        ctx.write_u64(buf.start.offset(8), 2);
        assert_eq!(trace[0].size(), 1);
        assert_eq!(trace[1].size(), 8);
    }
}
