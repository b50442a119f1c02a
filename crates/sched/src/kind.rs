//! The scheduling-policy registry: which policy a machine runs.

use std::fmt;

/// Which scheduling policy a machine runs: the pop rule of the
/// [`ReadyQueue`](crate::ReadyQueue) that [`crate::build`] returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchedKind {
    /// One central FIFO ready queue shared by every context.
    #[default]
    Fifo,
    /// Per-context deques with NUMA-aware stealing (owner LIFO, thief
    /// FIFO, same-socket victims preferred).
    Steal,
    /// Central queue drained by critical-path depth, ties broken by
    /// lowest `TaskId`.
    Priority,
    /// Waker-local FIFO queues: own context, then socket, then global.
    Locality,
    /// Central FIFO with deterministic cycle-quantum preemption and an
    /// append-only audit log.
    Quantum,
}

impl SchedKind {
    /// Every policy, in registry order.
    pub const ALL: [SchedKind; 5] = [
        SchedKind::Fifo,
        SchedKind::Steal,
        SchedKind::Priority,
        SchedKind::Locality,
        SchedKind::Quantum,
    ];

    /// Canonical lower-case label (round-trips through
    /// [`SchedKind::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            SchedKind::Fifo => "fifo",
            SchedKind::Steal => "steal",
            SchedKind::Priority => "priority",
            SchedKind::Locality => "locality",
            SchedKind::Quantum => "quantum",
        }
    }

    /// Whether tasks wait on one queue per context (raided by the others
    /// when their own runs dry) rather than on one central queue.
    pub fn per_context(self) -> bool {
        matches!(self, SchedKind::Steal | SchedKind::Locality)
    }

    /// Parse a policy label (case-insensitive).
    pub fn parse(s: &str) -> Option<SchedKind> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Some(SchedKind::Fifo),
            "steal" => Some(SchedKind::Steal),
            "priority" => Some(SchedKind::Priority),
            "locality" => Some(SchedKind::Locality),
            "quantum" => Some(SchedKind::Quantum),
            _ => None,
        }
    }
}

impl fmt::Display for SchedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

raccd_snap::snap_enum!(SchedKind, "sched kind tag" {
    0 => Fifo,
    1 => Steal,
    2 => Priority,
    3 => Locality,
    4 => Quantum,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for kind in SchedKind::ALL {
            assert_eq!(SchedKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(SchedKind::parse("FIFO"), Some(SchedKind::Fifo));
        assert_eq!(SchedKind::parse("Locality"), Some(SchedKind::Locality));
        assert_eq!(SchedKind::parse("lifo"), None);
    }

    #[test]
    fn snap_roundtrip_is_byte_stable() {
        use raccd_snap::{Snap, SnapReader, SnapWriter};
        for (kind, tag) in [
            (SchedKind::Fifo, 0u8),
            (SchedKind::Steal, 1),
            (SchedKind::Priority, 2),
            (SchedKind::Locality, 3),
            (SchedKind::Quantum, 4),
        ] {
            let mut w = SnapWriter::new();
            kind.save(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(bytes, vec![tag], "{kind} must encode as its tag byte");
            let mut r = SnapReader::new(&bytes);
            assert_eq!(SchedKind::load(&mut r).unwrap(), kind);
        }
    }
}
