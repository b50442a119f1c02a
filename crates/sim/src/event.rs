//! The machine's protocol-event record and the name/value walk every text
//! exporter renders telemetry through.
//!
//! [`CoherenceEvent`] is declared once, below: each variant's line gives
//! its snapshot tag, its `kind` string and its fields, and the enum, its
//! [`raccd_snap::Snap`] layout, [`CoherenceEvent::kind`] and
//! [`CoherenceEvent::fields`] all come from that declaration. `raccd-obs`
//! declares its own records the same way and renders all of them as
//! `(name, `[`Field`]`)` pairs (DESIGN.md §7, "Schema").

use raccd_fault::FaultSite;
use raccd_mem::BlockAddr;

/// One named value of a telemetry record, as the text exporters see it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Field<'a> {
    /// A count, an index, an address or a cycle stamp.
    U64(u64),
    /// A ratio (JSON number; `{:.6}` in CSV).
    F64(f64),
    /// A flag.
    Bool(bool),
    /// A label or an interned name.
    Str(&'a str),
    /// An absent optional value (JSON `null`).
    Null,
}

macro_rules! field_from {
    ($($ty:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$ty> for Field<'_> {
            fn from($v: $ty) -> Self {
                $e
            }
        })*
    };
}
field_from! {
    u64 => |v| Field::U64(v),
    u32 => |v| Field::U64(v as u64),
    usize => |v| Field::U64(v as u64),
    f64 => |v| Field::F64(v),
    bool => |v| Field::Bool(v),
    BlockAddr => |v| Field::U64(v.0),
    FaultSite => |v| Field::Str(v.label()),
    Option<u32> => |v| v.map_or(Field::Null, Field::from),
}

/// Declare the protocol-event enum: `tag => "kind" Variant { fields }`.
/// The tags are the snapshot format (`snap_enum!`) and never move.
macro_rules! coherence_events {
    ($(#[$em:meta])* pub enum $name:ident {
        $($(#[$vm:meta])* $tag:literal => $kind:literal $variant:ident {
            $($(#[$fm:meta])* $field:ident: $ty:ty),* $(,)?
        }),* $(,)?
    }) => {
        $(#[$em])*
        pub enum $name {
            $($(#[$vm])* $variant { $($(#[$fm])* $field: $ty),* }),*
        }

        impl $name {
            /// Every kind string, in tag order.
            pub const KINDS: &'static [&'static str] = &[$($kind),*];

            /// Short machine-readable kind tag (the JSONL `kind` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => $kind),*
                }
            }

            /// Walk the variant's fields by name, in declaration order.
            pub fn fields(&self, f: &mut dyn FnMut(&'static str, Field<'_>)) {
                match *self {
                    $(Self::$variant { $($field),* } => {
                        $(f(stringify!($field), Field::from($field));)*
                    })*
                }
            }
        }

        raccd_snap::snap_enum!($name, "coherence event tag" {
            $($tag => $variant { $($field),* }),*
        });
    };
}

coherence_events! {
    /// A protocol-level event, recorded when `MachineConfig::record_events`
    /// is set. Used by protocol-conformance tests and the `trace` binary.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum CoherenceEvent {
        /// A coherent fill into a private cache.
        0 => "coherent_fill" CoherentFill {
            /// Requesting core.
            core: usize,
            /// Block filled.
            block: BlockAddr,
            /// Store (GetX) vs load (GetS).
            write: bool,
            /// Data supplied cache-to-cache by the previous owner.
            from_owner: bool,
        },
        /// A non-coherent fill (directory bypassed).
        1 => "nc_fill" NcFill {
            /// Requesting core.
            core: usize,
            /// Block filled.
            block: BlockAddr,
            /// Store vs load.
            write: bool,
        },
        /// A write upgrade on a Shared line.
        2 => "upgrade" Upgrade {
            /// Writing core.
            core: usize,
            /// Block upgraded.
            block: BlockAddr,
        },
        /// A directory entry evicted for capacity (inclusion victim).
        3 => "dir_eviction" DirEviction {
            /// Block whose entry was evicted.
            block: BlockAddr,
        },
        /// Block transitioned NC → coherent (§III-E).
        4 => "nc_to_coherent" NcToCoherent {
            /// The block.
            block: BlockAddr,
        },
        /// Block transitioned coherent → NC (§III-E).
        5 => "coherent_to_nc" CoherentToNc {
            /// The block.
            block: BlockAddr,
        },
        /// `raccd_invalidate` flushed a core's NC lines.
        6 => "flush_nc" FlushNc {
            /// The core flushed.
            core: usize,
            /// NC lines removed.
            lines: u32,
        },
        /// The ADR controller resized a directory bank (§III-D).
        7 => "adr_resize" AdrResize {
            /// Bank index (home tile).
            bank: usize,
            /// Grow (double) vs shrink (halve).
            grow: bool,
            /// New powered capacity in entries.
            new_entries: usize,
            /// Cycles the bank port was blocked for the rebuild.
            blocked_cycles: u64,
        },
        /// The fault plane injected a fault into a NoC transfer.
        8 => "fault_injected" FaultInjected {
            /// The injection site.
            site: FaultSite,
            /// Sending tile.
            from: usize,
            /// Receiving tile.
            to: usize,
        },
        /// The receiver's checksum rejected a corrupted payload and NACKed.
        9 => "nack" Nack {
            /// The NACKing tile (original receiver).
            from: usize,
            /// The original sender, which will retry.
            to: usize,
        },
        /// A faulted message was eventually delivered after retries.
        10 => "retry_recovered" RetryRecovered {
            /// Retries it took.
            attempts: u32,
            /// Total extra latency paid (timeouts + backoff + retransmits).
            delay: u64,
        },
        /// The bounded retry budget ran out; the message was force-delivered
        /// and the run flagged fatal (detection, not silent corruption).
        11 => "retry_exhausted" RetryExhausted {
            /// Sending tile.
            from: usize,
            /// Receiving tile.
            to: usize,
            /// Attempts made before giving up.
            attempts: u32,
        },
        /// The fault plane dropped a resident directory entry (SRAM upset);
        /// recovery runs the inclusion-eviction path.
        12 => "dir_entry_lost" DirEntryLost {
            /// The block whose entry was lost.
            block: BlockAddr,
        },
    }
}

/// A [`CoherenceEvent`] stamped with the cycle it occurred at (the
/// requesting core's local time when the transaction issued).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// Cycle stamp.
    pub cycle: u64,
    /// The protocol event.
    pub ev: CoherenceEvent,
}
raccd_snap::snap_record!(TimedEvent { cycle, ev });
