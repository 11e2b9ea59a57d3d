//! Branch-free selection: the one way a per-row test becomes positions.
//!
//! A filter that pushes a position only when its test holds pays a
//! data-dependent branch per candidate, mispredicted about as often as the
//! selectivity is far from 0 or 1. The loops here write *every* candidate at
//! the cursor and advance the cursor by the test's boolean, so the only
//! branches left are the loop's own: the cost per candidate is the test's,
//! whatever it keeps. Candidates are written a morsel's worth at a time, so a
//! selection over a whole table holds memory of the order of what it keeps.

use crate::morsel::DEFAULT_MORSEL_ROWS;

/// The `candidates`, in order, for which `keep` holds.
#[inline]
pub fn select(
    mut candidates: impl ExactSizeIterator<Item = u32>,
    mut keep: impl FnMut(u32) -> bool,
) -> Vec<u32> {
    let mut out = Vec::new();
    while candidates.len() > 0 {
        let block = candidates.len().min(DEFAULT_MORSEL_ROWS);
        let mut at = out.len();
        out.resize(at + block, 0);
        for p in candidates.by_ref().take(block) {
            out[at] = p;
            at += keep(p) as usize;
        }
        out.truncate(at);
    }
    out
}

/// [`select`] with two outcomes at once: `test` says of a candidate whether
/// it goes to `yes` and whether it goes to `no` (SQL's TRUE and NULL, say),
/// each appended in order through its own cursor.
#[inline]
pub fn split_into(
    yes: &mut Vec<u32>,
    no: &mut Vec<u32>,
    mut candidates: impl ExactSizeIterator<Item = u32>,
    mut test: impl FnMut(u32) -> (bool, bool),
) {
    while candidates.len() > 0 {
        let block = candidates.len().min(DEFAULT_MORSEL_ROWS);
        let (mut y, mut n) = (yes.len(), no.len());
        yes.resize(y + block, 0);
        no.resize(n + block, 0);
        for p in candidates.by_ref().take(block) {
            let (to_yes, to_no) = test(p);
            yes[y] = p;
            no[n] = p;
            y += to_yes as usize;
            n += to_no as usize;
        }
        yes.truncate(y);
        no.truncate(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: `below(n)` draws from `0..n`.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn select_equals_filter_collect() {
        let mut mix = Mix(7);
        for case in 0..400u32 {
            // Lengths straddle the block size; candidates ascend with gaps
            // and repeats, as selection vectors and gathered rows do.
            let n = [0, 1, 2, 1023, 1024, 1025, 3000][case as usize % 7];
            let mut at = 0u32;
            let candidates: Vec<u32> = (0..n)
                .map(|_| {
                    at += mix.below(3) as u32;
                    at
                })
                .collect();
            let bits: Vec<bool> = match case % 5 {
                0 => vec![true; n],
                1 => vec![false; n],
                2 => (0..n).map(|i| i % 2 == 0).collect(),
                3 => (0..n).map(|_| mix.below(100) < 8).collect(),
                _ => (0..n).map(|_| mix.below(2) == 0).collect(),
            };
            let keep = |i: usize| bits[i];
            let want: Vec<u32> = (0..n as u32).filter(|&i| keep(i as usize)).collect();
            assert_eq!(
                select(0..n as u32, |i| keep(i as usize)),
                want,
                "case {case}"
            );
            let by_value = |p: u32| keep(candidates.partition_point(|&c| c < p));
            let want: Vec<u32> = candidates
                .iter()
                .copied()
                .filter(|&p| by_value(p))
                .collect();
            assert_eq!(
                select(candidates.iter().copied(), by_value),
                want,
                "case {case}"
            );
            // Two cursors, appending: each is the filter by its own test.
            let (mut yes, mut no) = (vec![u32::MAX], Vec::new());
            split_into(&mut yes, &mut no, 0..n as u32, |i| {
                (keep(i as usize), !keep(i as usize) && i % 3 == 0)
            });
            let want_no: Vec<u32> = (0..n as u32)
                .filter(|&i| !keep(i as usize) && i % 3 == 0)
                .collect();
            let want_yes: Vec<u32> = [u32::MAX]
                .into_iter()
                .chain((0..n as u32).filter(|&i| keep(i as usize)))
                .collect();
            assert_eq!((yes, no), (want_yes, want_no), "case {case}");
        }
    }
}
