#![warn(missing_docs)]

//! Directory-based coherence for the RaCCD reproduction.
//!
//! Table I: "Coherence Protocol: MESI with blocking states, silent
//! evictions. Directory: total 524288 entries, banked 32768 entries/core,
//! 15 cycles, 8-way, pseudoLRU."
//!
//! * [`mesi`] — the directory entry and its one transition function.
//! * [`kind`] — the protocol registry: one `const` rules record each for
//!   MESI, MESIF and MOESI.
//! * [`directory`] — one sparse, inclusive directory bank with access /
//!   occupancy / eviction accounting (Figures 7a and 8).
//! * [`adr`] — Adaptive Directory Reduction (§III-D): an occupancy monitor
//!   with a θ_inc/θ_dec hysteresis loop that halves or doubles the number
//!   of sets, powering off unused capacity (Gated-Vdd).
//!
//! The *inclusivity invariant* this crate supports (and `raccd-sim`
//! enforces): every **coherent** block resident in the LLC — and therefore
//! every coherent block in any L1, as the LLC is inclusive of the L1s — has
//! a directory entry. Non-coherent blocks have none; that is precisely how
//! RaCCD relieves directory capacity pressure (§II-A).

pub mod adr;
pub mod directory;
pub mod error;
pub mod kind;
pub mod mesi;

pub use adr::{Adr, AdrConfig, ResizeDirection};
pub use directory::{DirEntry, DirEviction, DirectoryBank};
pub use error::ProtocolError;
pub use kind::{victim_action, write_hit_is_local, ProtocolKind, ProtocolRules, VictimAction};
pub use mesi::{ApplyEffect, DirMsg, DirState};
