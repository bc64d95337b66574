//! GC victim-selection policies — the data-placement lab.
//!
//! The FTL originally shipped exactly one victim selector (greedy:
//! fewest valid units). Dayan & Bonnet's survey of page-mapping FTL
//! garbage collection catalogs the wider design space this module
//! makes sweepable:
//!
//! * **Greedy** reclaims the most space per erase *right now* and is
//!   optimal under uniform traffic, but under skew it repeatedly picks
//!   blocks whose remaining valid units are about to die anyway.
//! * **Windowed greedy** restricts greedy to the oldest closed blocks,
//!   a FIFO/greedy hybrid that bounds the victim scan and gives
//!   still-dying young blocks time to shed their remaining valid units.
//!
//! Both order candidates by integer keys on the FTL's deterministic
//! state (no wall-clock, no floats), so every policy stays
//! bit-reproducible under the determinism bans (`clippy.toml`). The lab
//! also ran an age-weighted scorer; it never won a cell and was retired
//! (see EXPERIMENTS.md).

use checkin_flash::BlockId;

/// One closed block offered to the victim selector.
#[derive(Debug, Clone, Copy)]
pub struct VictimCandidate {
    /// The block under consideration.
    pub block: BlockId,
    /// Units still referenced by the mapping table (migration cost).
    pub valid_units: u32,
    /// Lifetime erase count (wear tie-breaker).
    pub erase_count: u64,
    /// Monotone close order: lower rank closed earlier.
    pub closed_rank: u64,
}

impl VictimCandidate {
    /// Greedy ordering key: fewest valid units first, then least worn,
    /// then lowest block id (total order => deterministic).
    fn greedy_key(&self) -> (u32, u64, u64) {
        (self.valid_units, self.erase_count, self.block.0)
    }
}

/// Which victim-selection policy garbage collection runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimPolicy {
    /// Fewest valid units wins (ties: erase count, block id).
    #[default]
    Greedy,
    /// Greedy restricted to the `window` oldest closed blocks (by close
    /// order). `window = 0` behaves like plain greedy.
    WindowedGreedy {
        /// How many of the oldest closed blocks the greedy scan sees.
        window: u32,
    },
}

impl VictimPolicy {
    /// The windowed-greedy variant with its standard window.
    pub const WINDOWED_DEFAULT: VictimPolicy = VictimPolicy::WindowedGreedy { window: 8 };

    /// Every policy the lab sweeps, in display order.
    pub const ALL: [VictimPolicy; 2] = [VictimPolicy::Greedy, VictimPolicy::WINDOWED_DEFAULT];

    /// Stable lowercase label (CLI values, bench matrix rows).
    pub fn label(self) -> &'static str {
        match self {
            VictimPolicy::Greedy => "greedy",
            VictimPolicy::WindowedGreedy { .. } => "windowed-greedy",
        }
    }

    /// Parses a CLI value: `greedy`, `windowed-greedy`, or
    /// `windowed-greedy:<window>`.
    ///
    /// # Errors
    ///
    /// Returns a description listing the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "greedy" => Ok(VictimPolicy::Greedy),
            "windowed-greedy" => Ok(VictimPolicy::WINDOWED_DEFAULT),
            other => {
                if let Some(w) = other.strip_prefix("windowed-greedy:") {
                    let window: u32 = w
                        .parse()
                        .map_err(|_| format!("bad windowed-greedy window '{w}'"))?;
                    return Ok(VictimPolicy::WindowedGreedy { window });
                }
                Err(format!(
                    "unknown GC policy '{other}' (expected greedy, \
                     windowed-greedy, or windowed-greedy:<window>)"
                ))
            }
        }
    }

    /// Selects a victim among `candidates`. Returns `None` when the
    /// iterator is empty. Deterministic: the outcome depends only on the
    /// candidate fields, never on iteration side effects.
    pub fn select(self, candidates: impl Iterator<Item = VictimCandidate>) -> Option<BlockId> {
        match self {
            VictimPolicy::Greedy => candidates
                .min_by_key(VictimCandidate::greedy_key)
                .map(|c| c.block),
            VictimPolicy::WindowedGreedy { window } => {
                if window == 0 {
                    return VictimPolicy::Greedy.select(candidates);
                }
                // Keep the `window` oldest closed blocks (lowest close
                // rank) and run greedy over them. The candidate set is
                // small (closed blocks of one device), so a sort is fine.
                let mut all: Vec<VictimCandidate> = candidates.collect();
                all.sort_unstable_by_key(|c| (c.closed_rank, c.block.0));
                all.truncate(window as usize);
                all.into_iter()
                    .min_by_key(VictimCandidate::greedy_key)
                    .map(|c| c.block)
            }
        }
    }
}

impl std::fmt::Display for VictimPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VictimPolicy::WindowedGreedy { window } => write!(f, "windowed-greedy:{window}"),
            other => f.write_str(other.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(block: u64, valid: u32, closed_rank: u64) -> VictimCandidate {
        VictimCandidate {
            block: BlockId(block),
            valid_units: valid,
            erase_count: 0,
            closed_rank,
        }
    }

    #[test]
    fn greedy_picks_fewest_valid() {
        let got = VictimPolicy::Greedy.select([cand(0, 5, 0), cand(1, 2, 1)].into_iter());
        assert_eq!(got, Some(BlockId(1)));
    }

    #[test]
    fn greedy_ties_break_on_wear_then_id() {
        let mut a = cand(3, 4, 0);
        a.erase_count = 9;
        let b = cand(5, 4, 1);
        assert_eq!(
            VictimPolicy::Greedy.select([a, b].into_iter()),
            Some(BlockId(5)),
            "equal valid counts: less-worn block wins"
        );
    }

    #[test]
    fn windowed_greedy_only_sees_oldest_window() {
        // Block 9 is emptiest but closed last; a window of 2 only sees
        // blocks 4 and 7 (oldest close ranks) and picks the emptier.
        let cands = [cand(9, 1, 30), cand(4, 10, 10), cand(7, 5, 20)];
        assert_eq!(
            VictimPolicy::WindowedGreedy { window: 2 }.select(cands.into_iter()),
            Some(BlockId(7))
        );
        assert_eq!(
            VictimPolicy::WindowedGreedy { window: 8 }.select(cands.into_iter()),
            Some(BlockId(9)),
            "wide window degenerates to greedy"
        );
    }

    #[test]
    fn parse_round_trips() {
        for p in VictimPolicy::ALL {
            assert_eq!(VictimPolicy::parse(&p.to_string()), Ok(p));
        }
        assert_eq!(
            VictimPolicy::parse("windowed-greedy:4"),
            Ok(VictimPolicy::WindowedGreedy { window: 4 })
        );
        assert!(VictimPolicy::parse("fifo").is_err());
        assert!(VictimPolicy::parse("windowed-greedy:x").is_err());
    }
}
