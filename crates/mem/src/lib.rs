#![warn(missing_docs)]

//! Simulated memory substrate for the RaCCD reproduction.
//!
//! The paper evaluates RaCCD on a gem5 full-system simulation, where the
//! Linux kernel provides virtual memory and the hardware provides per-core
//! TLBs. This crate rebuilds that substrate:
//!
//! * [`addr`] — virtual/physical address newtypes and cache-block / page
//!   arithmetic (64 B blocks, 4 KiB pages, 42-bit physical addresses as in
//!   Table I of the paper).
//! * [`page_table`] — a simulated page table with a frame allocator. By
//!   default it mirrors the paper's observation that Linux maps the
//!   benchmarks' datasets to *contiguous* physical pages; a permuted mode
//!   exercises the NCRT region-collapsing logic of Figure 5.
//! * [`tlb`] — a fully-associative, LRU-replacement TLB model (256 entries,
//!   1-cycle, per Table I) with hit/miss statistics.
//! * [`memory`] — [`memory::SimMemory`], a byte-accurate backing store with a
//!   bump allocator. Workloads *really compute* on this store, so functional
//!   results (MD5 digests, stencil values, cluster assignments…) can be
//!   checked against host references in tests.
//! * [`hash`] — [`FibHasher`] / [`FibMap`], the one non-SipHash hasher for
//!   maps keyed by simulated page and block numbers (TLB index, page
//!   table, block census, page classifiers).
//! * [`trace`] — [`MemRef`], the packed memory-reference record task
//!   bodies emit and the machine replays.
//! * [`rng`] — a tiny deterministic SplitMix64/xoshiro generator so workload
//!   data is bit-reproducible regardless of external crate versions.

pub mod addr;
pub mod hash;
pub mod memory;
pub mod page_table;
pub mod rng;
pub mod tlb;
pub mod trace;

pub use addr::{
    BlockAddr, PAddr, PageNum, VAddr, VRange, BLOCK_SHIFT, BLOCK_SIZE, PAGE_SHIFT, PAGE_SIZE,
};
pub use hash::{FibHasher, FibMap};
pub use memory::SimMemory;
pub use page_table::{FrameAllocPolicy, PageTable};
pub use rng::SplitMix64;
pub use tlb::Tlb;
pub use trace::MemRef;
