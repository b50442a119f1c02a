//! Problem-size scales.
//!
//! `Paper` reproduces Table II verbatim. `Bench` shrinks every working set
//! by roughly the same 16× factor as the scaled machine's LLC/directory
//! (`MachineConfig::scaled`), preserving the working-set-to-capacity ratios
//! that drive Figures 6–10. `Test` is tiny, for unit tests.

/// Problem-size selector for every workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny inputs for fast unit tests.
    Test,
    /// Default: proportionally scaled to the scaled machine (DESIGN.md §2).
    Bench,
    /// Table II sizes (pair with `MachineConfig::paper`).
    Paper,
}

impl Scale {
    /// Every scale, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Test, Scale::Bench, Scale::Paper];

    /// Parse a scale's [`Display`](core::fmt::Display) label
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        Scale::ALL
            .into_iter()
            .find(|scale| scale.to_string().eq_ignore_ascii_case(s))
    }

    /// Pick one of three values by scale.
    pub fn pick<T: Copy>(self, test: T, bench: T, paper: T) -> T {
        match self {
            Scale::Test => test,
            Scale::Bench => bench,
            Scale::Paper => paper,
        }
    }
}

impl core::fmt::Display for Scale {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Scale::Test => "test",
            Scale::Bench => "bench",
            Scale::Paper => "paper",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Test.pick(1, 2, 3), 1);
        assert_eq!(Scale::Bench.pick(1, 2, 3), 2);
        assert_eq!(Scale::Paper.pick(1, 2, 3), 3);
    }

    #[test]
    fn display_labels_roundtrip_through_parse() {
        assert_eq!(Scale::Bench.to_string(), "bench");
        for scale in Scale::ALL {
            assert_eq!(Scale::parse(&scale.to_string()), Some(scale));
        }
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("tset"), None);
    }
}
