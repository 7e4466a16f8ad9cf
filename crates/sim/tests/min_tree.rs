//! Differential test of [`MinTree`] against a flat `Vec` of keys.
//!
//! A seeded random mix of `set` (including back to empty), `resize`,
//! `min` and `collect_below` calls drives both. The flat reference's
//! minimum is the lowest slot holding the least non-empty key, and its
//! `collect_below` is a filter in slot order. Sizes cover one slot,
//! powers of two and their neighbours, and trees that stay all-empty.

use hpl_sim::{MinTree, Rng};

const EMPTY: u64 = u64::MAX;

fn flat_min(flat: &[u64]) -> Option<(usize, u64)> {
    flat.iter()
        .copied()
        .enumerate()
        .filter(|&(_, k)| k != EMPTY)
        .min_by_key(|&(i, k)| (k, i))
}

fn flat_below(flat: &[u64], bound: u64) -> Vec<usize> {
    (0..flat.len()).filter(|&i| flat[i] < bound).collect()
}

fn assert_same(tree: &MinTree<u64>, flat: &[u64], ctx: &str) {
    assert_eq!(tree.len(), flat.len(), "{ctx}: len");
    assert_eq!(tree.min(), flat_min(flat), "{ctx}: min");
    for (i, &k) in flat.iter().enumerate() {
        assert_eq!(tree.get(i), k, "{ctx}: slot {i}");
    }
    tree.check().unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

/// One seeded round over a tree of `len` slots. Keys come from a small
/// range so ties are frequent; `max_key` 0 keeps every slot empty.
fn run_round(seed: u64, len: usize, max_key: u64, ops: usize) {
    let mut rng = Rng::new(seed);
    let mut tree = MinTree::with_len(len, EMPTY);
    let mut flat = vec![EMPTY; len];
    assert_same(&tree, &flat, &format!("seed {seed} len {len} fresh"));
    let mut out = Vec::new();
    for op in 0..ops {
        let ctx = format!("seed {seed} len {} op {op}", flat.len());
        match rng.below(100) {
            0..=54 if !flat.is_empty() && max_key > 0 => {
                let i = rng.below(flat.len() as u64) as usize;
                let key = if rng.below(5) == 0 {
                    EMPTY
                } else {
                    rng.below(max_key)
                };
                tree.set(i, key);
                flat[i] = key;
            }
            55..=57 => {
                let grow = flat.len() + rng.below(6) as usize;
                tree.resize(grow);
                flat.resize(grow, EMPTY);
            }
            _ => {
                let bound = match rng.below(4) {
                    0 => EMPTY,
                    _ => rng.below(max_key + 2),
                };
                out.clear();
                out.push(usize::MAX);
                tree.collect_below(bound, &mut out);
                assert_eq!(out[0], usize::MAX, "{ctx}: appends, never clears");
                assert_eq!(out[1..], flat_below(&flat, bound), "{ctx}: below {bound}");
            }
        }
        assert_same(&tree, &flat, &ctx);
    }
}

#[test]
fn matches_flat_vec_across_sizes() {
    for len in [1, 2, 3, 5, 7, 8, 9, 16, 17, 31, 33, 100] {
        for seed in 0..6 {
            run_round(seed * 1000 + len as u64, len, 12, 400);
        }
    }
}

#[test]
fn wide_keys_and_growth_from_zero() {
    for seed in 0..20 {
        run_round(seed, 0, 1 << 40, 300);
    }
}

#[test]
fn all_empty_trees_have_no_min_and_nothing_below() {
    for len in [0, 1, 2, 3, 6, 64, 65] {
        let tree = MinTree::with_len(len, EMPTY);
        assert_eq!(tree.min(), None);
        let mut out = Vec::new();
        tree.collect_below(EMPTY, &mut out);
        assert!(out.is_empty(), "len {len}");
        tree.check().expect("fresh tree");
        run_round(7 + len as u64, len, 0, 50);
    }
}

#[test]
fn ties_resolve_to_the_lowest_slot() {
    let mut tree = MinTree::with_len(6, EMPTY);
    for i in [5, 2, 4] {
        tree.set(i, 3);
    }
    assert_eq!(tree.min(), Some((2, 3)));
    tree.set(2, EMPTY);
    assert_eq!(tree.min(), Some((4, 3)));
}
