//! Rows digests: each pass's canonical rows (the JSON lines
//! `Report::render(true)` prints, in canonical cell order) hashed with
//! FNV-1a 64, and the values recorded for the default and held-out seeds.

use crate::sys::{fnv1a, FNV_OFFSET};
use crate::{Scale, Workload};
use lcl_bench::Report;

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 1;

/// The held-out seed: never used while sizing or tuning, kept for
/// confirming a later gain on a seed it was not tuned on.
pub const HELD_OUT_SEED: u64 = 9001;

/// `workload seed digest` lines for full-scale runs.
const RECORDED: &str = include_str!("../digests.txt");

/// FNV-1a 64 of the report's canonical JSON rows.
#[must_use]
pub fn rows_digest(report: &Report) -> u64 {
    fnv1a(FNV_OFFSET, report.render(true).as_bytes())
}

/// The recorded digest of `workload` at `seed`, if there is one (only
/// full-scale runs are recorded).
#[must_use]
pub fn recorded(workload: Workload, seed: u64, scale: Scale) -> Option<u64> {
    if scale != Scale::Full {
        return None;
    }
    RECORDED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload.name() && s.parse() == Ok(seed)).then(|| u64::from_str_radix(d, 16).ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_held_out_seeds_are_recorded_for_every_workload() {
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert!(recorded(w, seed, Scale::Full).is_some(), "{} seed {seed}", w.name());
                assert!(recorded(w, seed, Scale::Tiny).is_none());
            }
        }
    }
}
