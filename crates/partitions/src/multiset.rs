//! Multiset partition enumeration.
//!
//! The paper's job requests bundle 1–4 VMs *of the same application
//! profile*, and bursts bundle up to 5 such jobs. VMs of equal type are
//! interchangeable for allocation purposes, so enumerating partitions of
//! the *multiset* of workload types (rather than of the labelled VM set)
//! collapses the search space dramatically: e.g. 8 identical VMs have
//! Bell(8) = 4140 labelled partitions but only p(8) = 22 distinct
//! multiset partitions.
//!
//! A block is a type-count vector `Vec<u32>` (one entry per workload
//! type); a multiset partition is a list of blocks. Enumeration emits
//! blocks in non-increasing lexicographic order, which canonicalizes each
//! partition and guarantees no duplicates.

/// One multiset partition: a list of blocks, each a per-type count vector.
/// Blocks appear in non-increasing lexicographic order.
pub type MultisetPart = Vec<Vec<u32>>;

/// Enumerate every partition of the multiset described by `counts`
/// (`counts[i]` = multiplicity of type `i`), with at most
/// `max_block_total` items per block (`u32::MAX` disables the bound).
///
/// ```
/// use eavm_partitions::multiset_partitions;
/// // The paper's 4-VM job request: integer partitions of 4.
/// let parts = multiset_partitions(&[4], u32::MAX);
/// assert_eq!(parts.len(), 5); // 4, 3+1, 2+2, 2+1+1, 1+1+1+1
/// ```
pub fn multiset_partitions(counts: &[u32], max_block_total: u32) -> Vec<MultisetPart> {
    multiset_partitions_capped(counts, max_block_total, usize::MAX)
}

/// Like [`multiset_partitions`], but stops *generating* once `max_parts`
/// partitions have been emitted — the enumeration cost is bounded by the
/// cap instead of the (potentially astronomic) full count. The emitted
/// prefix is identical to the first `max_parts` entries of the unbounded
/// enumeration. A collector over [`for_each_multiset_partition`].
pub fn multiset_partitions_capped(
    counts: &[u32],
    max_block_total: u32,
    max_parts: usize,
) -> Vec<MultisetPart> {
    let mut out = Vec::new();
    for_each_multiset_partition(counts, max_block_total, max_parts, |blocks| {
        out.push(
            blocks
                .chunks_exact(counts.len())
                .map(<[u32]>::to_vec)
                .collect(),
        );
    });
    out
}

/// Visit the partitions [`multiset_partitions_capped`] would return, in
/// the same order, without allocating per block or per partition.
///
/// Each partition reaches `visit` as one borrowed slice holding its
/// blocks back to back, `counts.len()` entries per block
/// (`blocks.chunks_exact(counts.len())` splits it). The slice is only
/// valid for the call. Returns the number of partitions visited.
///
/// ```
/// use eavm_partitions::multiset::for_each_multiset_partition;
/// let mut seen = Vec::new();
/// let n = for_each_multiset_partition(&[2, 1], u32::MAX, usize::MAX, |blocks| {
///     seen.push(blocks.to_vec());
/// });
/// assert_eq!(n, 4);
/// // {aab}, then {aa}{b}, {ab}{a}, {a}{a}{b}.
/// assert_eq!(seen[0], [2, 1]);
/// assert_eq!(seen[3], [1, 0, 1, 0, 0, 1]);
/// ```
pub fn for_each_multiset_partition<F: FnMut(&[u32])>(
    counts: &[u32],
    max_block_total: u32,
    max_parts: usize,
    mut visit: F,
) -> usize {
    let total: u32 = counts.iter().sum();
    if total == 0 || max_parts == 0 {
        return 0;
    }
    let mut walk = Walk {
        dim: counts.len(),
        max_block_total,
        left: max_parts,
        remaining: counts.to_vec(),
        blocks: Vec::new(),
        visit: &mut visit,
    };
    walk.descend(total);
    max_parts - walk.left
}

/// Depth-first enumeration state shared by every level: `remaining` is
/// the multiset not yet covered by `blocks`, the stack of chosen blocks.
struct Walk<'v, F> {
    dim: usize,
    max_block_total: u32,
    /// Partitions that may still be emitted.
    left: usize,
    remaining: Vec<u32>,
    blocks: Vec<u32>,
    visit: &'v mut F,
}

impl<F: FnMut(&[u32])> Walk<'_, F> {
    /// Pick the next block `b` with `0 < b ≤ remaining` (component-wise),
    /// `b ≤_lex` the previous block (canonical non-increasing order), and
    /// `Σb ≤ max_block_total`, then recurse on the rest. `items` is
    /// `Σ remaining`.
    ///
    /// The candidates are stepped through in decreasing lexicographic
    /// order in place on top of the stack, like an odometer over the box
    /// `[0, remaining]`: the first is the largest box vector not above
    /// the previous block, and each step decrements the last non-zero
    /// digit and refills the digits after it to their maxima.
    fn descend(&mut self, items: u32) {
        if items == 0 {
            (self.visit)(&self.blocks);
            self.left -= 1;
            return;
        }
        let (dim, top) = (self.dim, self.blocks.len());
        // Start at the lex-largest box vector ≤ the previous block: copy
        // the previous block while it fits, then take every remaining
        // item from the first digit where it does not.
        let mut tight = top > 0;
        for i in 0..dim {
            let r = self.remaining[i];
            let digit = if tight {
                let roof = self.blocks[top - dim + i];
                tight = r >= roof;
                r.min(roof)
            } else {
                r
            };
            self.blocks.push(digit);
        }
        loop {
            let size: u32 = self.blocks[top..].iter().sum();
            if size == 0 {
                break;
            }
            if size <= self.max_block_total {
                for i in 0..dim {
                    self.remaining[i] -= self.blocks[top + i];
                }
                self.descend(items - size);
                for i in 0..dim {
                    self.remaining[i] += self.blocks[top + i];
                }
                if self.left == 0 {
                    break;
                }
            }
            // Lexicographic predecessor within the box.
            let Some(i) = (0..dim).rev().find(|&i| self.blocks[top + i] > 0) else {
                break;
            };
            self.blocks[top + i] -= 1;
            for j in i + 1..dim {
                self.blocks[top + j] = self.remaining[j];
            }
        }
        self.blocks.truncate(top);
    }
}

/// Number of items in a block.
pub fn block_total(block: &[u32]) -> u32 {
    block.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Reference enumerator (the parity oracle): materialize every
    /// candidate block of the remaining multiset, sort them in decreasing
    /// lexicographic order, and recurse with cloned state.
    fn reference_capped(
        counts: &[u32],
        max_block_total: u32,
        max_parts: usize,
    ) -> Vec<MultisetPart> {
        fn recurse(
            remaining: Vec<u32>,
            roof: &[u32],
            max_block_total: u32,
            max_parts: usize,
            acc: &mut MultisetPart,
            out: &mut Vec<MultisetPart>,
        ) {
            if out.len() >= max_parts {
                return;
            }
            if remaining.iter().all(|&c| c == 0) {
                out.push(acc.clone());
                return;
            }
            let mut candidates = subvectors(&remaining);
            candidates.sort_unstable_by(|a, b| b.cmp(a));
            for b in candidates {
                if out.len() >= max_parts {
                    return;
                }
                if b.as_slice() > roof || b.iter().sum::<u32>() > max_block_total {
                    continue;
                }
                let rest: Vec<u32> = remaining.iter().zip(&b).map(|(r, x)| r - x).collect();
                acc.push(b.clone());
                recurse(rest, &b, max_block_total, max_parts, acc, out);
                acc.pop();
            }
        }

        /// All non-zero component-wise subvectors of `v`.
        fn subvectors(v: &[u32]) -> Vec<Vec<u32>> {
            let mut out = vec![Vec::new()];
            for &c in v {
                let mut next = Vec::with_capacity(out.len() * (c as usize + 1));
                for prefix in &out {
                    for x in 0..=c {
                        let mut p = prefix.clone();
                        p.push(x);
                        next.push(p);
                    }
                }
                out = next;
            }
            out.retain(|b| b.iter().any(|&x| x > 0));
            out
        }

        let total: u32 = counts.iter().sum();
        if total == 0 || max_parts == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        recurse(
            counts.to_vec(),
            counts,
            max_block_total,
            max_parts,
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    #[test]
    fn visitor_matches_the_reference_enumerator() {
        let mut inputs: Vec<Vec<u32>> = Vec::new();
        for a in 0..=6 {
            for b in 0..=5 {
                for c in 0..=4 {
                    inputs.push(vec![a, b, c]);
                }
            }
        }
        inputs.extend([
            vec![],
            vec![3],
            vec![7],
            vec![2, 2],
            vec![0, 4],
            vec![2, 0, 3, 1],
            vec![1, 1, 1, 1, 1],
        ]);
        let mut cases = 0;
        for counts in &inputs {
            for block_cap in [1, 2, 3, 5, 16, u32::MAX] {
                for part_cap in [1, 3, 7, 4_096] {
                    let expected: Vec<Vec<u32>> = reference_capped(counts, block_cap, part_cap)
                        .into_iter()
                        .map(|p| p.concat())
                        .collect();
                    let mut got = Vec::new();
                    let visited =
                        for_each_multiset_partition(counts, block_cap, part_cap, |blocks| {
                            got.push(blocks.to_vec())
                        });
                    assert_eq!(
                        got, expected,
                        "{counts:?} block<={block_cap} cap {part_cap}"
                    );
                    assert_eq!(visited, expected.len());
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, inputs.len() * 24);
    }

    /// Integer partition counts p(n) — multiset partitions of n identical
    /// items.
    const P: [usize; 11] = [0, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42];

    #[test]
    fn single_type_counts_match_integer_partitions() {
        for n in 1..=10u32 {
            let parts = multiset_partitions(&[n], u32::MAX);
            assert_eq!(parts.len(), P[n as usize], "p({n})");
        }
    }

    #[test]
    fn known_small_multisets() {
        // {a, b}: {ab}, {a}{b}
        assert_eq!(multiset_partitions(&[1, 1], u32::MAX).len(), 2);
        // {a, a, b}: {aab}, {aa}{b}, {ab}{a}, {a}{a}{b}
        assert_eq!(multiset_partitions(&[2, 1], u32::MAX).len(), 4);
        // {a, a, b, b}: 9 partitions (OEIS A020555-style table value).
        assert_eq!(multiset_partitions(&[2, 2], u32::MAX).len(), 9);
    }

    #[test]
    fn partitions_preserve_the_multiset() {
        let counts = vec![2u32, 1, 3];
        for p in multiset_partitions(&counts, u32::MAX) {
            let mut sum = vec![0u32; counts.len()];
            for block in &p {
                assert!(block.iter().any(|&x| x > 0), "empty block emitted");
                for (s, x) in sum.iter_mut().zip(block) {
                    *s += x;
                }
            }
            assert_eq!(sum, counts);
        }
    }

    #[test]
    fn no_duplicate_partitions() {
        let parts = multiset_partitions(&[3, 2, 1], u32::MAX);
        let set: HashSet<_> = parts.iter().cloned().collect();
        assert_eq!(set.len(), parts.len());
    }

    #[test]
    fn blocks_are_canonically_non_increasing() {
        for p in multiset_partitions(&[2, 2, 2], u32::MAX) {
            for w in p.windows(2) {
                assert!(w[0] >= w[1], "blocks must be non-increasing: {p:?}");
            }
        }
    }

    #[test]
    fn block_size_bound_is_enforced() {
        let bounded = multiset_partitions(&[4, 0, 0], 2);
        for p in &bounded {
            for b in p {
                assert!(block_total(b) <= 2);
            }
        }
        // 4 identical items, blocks of at most 2: {2,2}, {2,1,1}, {1,1,1,1}.
        assert_eq!(bounded.len(), 3);
    }

    #[test]
    fn empty_multiset_yields_nothing() {
        assert!(multiset_partitions(&[], u32::MAX).is_empty());
        assert!(multiset_partitions(&[0, 0], u32::MAX).is_empty());
    }

    #[test]
    fn bound_smaller_than_every_item_still_allows_singletons() {
        let parts = multiset_partitions(&[3, 1], 1);
        assert_eq!(parts.len(), 1, "only all-singletons is feasible");
        assert_eq!(parts[0].len(), 4);
    }

    #[test]
    fn capped_enumeration_is_a_prefix_of_the_full_one() {
        let full = multiset_partitions(&[4, 3, 2], 6);
        for cap in [0usize, 1, 2, 7, full.len(), full.len() + 5] {
            let capped = multiset_partitions_capped(&[4, 3, 2], 6, cap);
            assert_eq!(capped.len(), cap.min(full.len()));
            assert_eq!(&capped[..], &full[..capped.len()]);
        }
    }

    #[test]
    fn cap_bounds_generation_cost_on_huge_spaces() {
        // (8,6,6) with block cap 10 has hundreds of thousands of
        // partitions; with a cap the call must return promptly.
        // eavm-lint: allow(D1, reason = "perf-sanity test asserting a loose wall-clock bound on capped enumeration; no replayed state involved")
        let start = std::time::Instant::now();
        let some = multiset_partitions_capped(&[8, 6, 6], 10, 4_096);
        assert_eq!(some.len(), 4_096);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "capped generation took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn multiset_is_far_smaller_than_labelled_enumeration() {
        use crate::counting::bell_number;
        // 8 identical VMs: 22 multiset partitions vs Bell(8)=4140.
        let ms = multiset_partitions(&[8], u32::MAX).len();
        assert_eq!(ms, 22);
        assert_eq!(bell_number(8), 4140);
    }
}
