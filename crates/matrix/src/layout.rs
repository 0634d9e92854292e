//! The data-layout design space of the paper (§4, Table 1).

use std::fmt;
use std::str::FromStr;

/// The three data layouts evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Classic LAPACK column-major storage (`CM` in the figures).
    ColumnMajor,
    /// Block cyclic layout (`BCL`, §4.1): in each tile column, a
    /// thread's tiles are contiguous and column-major, enabling grouped
    /// BLAS-3 calls.
    BlockCyclic,
    /// Two-level block layout (`2l-BL`, §4.2): block-cyclic at the first
    /// level, each `b × b` tile contiguous at the second level.
    TwoLevelBlock,
}

impl Layout {
    /// Short name as used in the paper's figures.
    pub(crate) fn short_name(&self) -> &'static str {
        match self {
            Layout::ColumnMajor => "CM",
            Layout::BlockCyclic => "BCL",
            Layout::TwoLevelBlock => "2l-BL",
        }
    }

    /// Whether the layout stores a thread's tiles of each tile column
    /// contiguously on one leading dimension (per tile column, not as one
    /// region per thread), which is what enables grouping several tiles
    /// into one BLAS-3 call (§3, §4.1).
    pub fn supports_grouping(&self) -> bool {
        matches!(self, Layout::BlockCyclic)
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

impl FromStr for Layout {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cm" | "column-major" | "columnmajor" => Ok(Layout::ColumnMajor),
            "bcl" | "block-cyclic" | "blockcyclic" => Ok(Layout::BlockCyclic),
            "2l-bl" | "2lbl" | "two-level" | "twolevelblock" => Ok(Layout::TwoLevelBlock),
            other => Err(format!(
                "unknown layout '{other}' (expected CM, BCL or 2l-BL)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(Layout::ColumnMajor.to_string(), "CM");
        assert_eq!(Layout::BlockCyclic.to_string(), "BCL");
        assert_eq!(Layout::TwoLevelBlock.to_string(), "2l-BL");
    }

    #[test]
    fn parse_roundtrip() {
        for l in [
            Layout::BlockCyclic,
            Layout::TwoLevelBlock,
            Layout::ColumnMajor,
        ] {
            assert_eq!(l.short_name().parse::<Layout>().unwrap(), l);
        }
        assert!("nope".parse::<Layout>().is_err());
    }

    #[test]
    fn capability_flags() {
        assert!(Layout::BlockCyclic.supports_grouping());
        assert!(!Layout::TwoLevelBlock.supports_grouping());
    }
}
