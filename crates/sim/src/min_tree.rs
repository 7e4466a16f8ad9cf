//! Tournament (min) tree over a fixed set of keyed slots.
//!
//! Leaf `i` holds slot `i`'s key; each inner node holds the smaller of
//! its children's, with the slot it came from, so the root is the
//! minimum over all slots. Changing one slot's key costs O(log n) to
//! replay its path, reading the minimum costs nothing, and listing
//! every slot below a bound ([`MinTree::collect_below`]) costs
//! O(k log n) for k hits, in slot order.
//!
//! Two users share it: the event queue ranks its re-armable timers'
//! earliest occurrences with it (keys `(time, seq)`), and the cluster's
//! window calendar ranks every node's next event time, taking the
//! window start from the root and the active set from
//! `collect_below(window end)`.

/// A min tree over `len()` slots with keys of type `K`.
///
/// `empty` (given at construction) is the key of a slot with nothing
/// pending. It must be the greatest key — no real key may compare above
/// it — so an empty slot never wins the minimum and never lies below a
/// bound.
///
/// ```
/// use hpl_sim::MinTree;
///
/// let mut t = MinTree::with_len(5, u32::MAX);
/// t.set(3, 7);
/// t.set(1, 9);
/// t.set(4, 2);
/// assert_eq!(t.min(), Some((4, 2)));
/// let mut below = Vec::new();
/// t.collect_below(8, &mut below);
/// assert_eq!(below, [3, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct MinTree<K> {
    /// Slot count.
    len: usize,
    /// Leaf count: `len` rounded up to a power of two, at least two so
    /// the root is always `nodes[1]`.
    leaves: usize,
    /// `nodes[1..leaves]` inner nodes, `nodes[leaves + i]` slot `i`'s
    /// leaf: `(key, slot)` of the least key in the subtree.
    nodes: Vec<(K, usize)>,
    /// Copy of `nodes[1]`, kept inline so that reading the minimum —
    /// the event queue does it on every pop and peek — touches no
    /// memory beyond the tree's owner.
    root: (K, usize),
    /// Key of a slot with nothing pending; the greatest key.
    empty: K,
}

impl<K: Copy + Ord> MinTree<K> {
    /// A tree with no slots; grow it with [`Self::resize`].
    pub fn new(empty: K) -> Self {
        MinTree {
            len: 0,
            leaves: 0,
            nodes: Vec::new(),
            root: (empty, 0),
            empty,
        }
    }

    /// A tree with `len` slots, all empty.
    pub fn with_len(len: usize, empty: K) -> Self {
        let mut t = Self::new(empty);
        t.resize(len);
        t
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the tree has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot `i`'s key.
    #[inline]
    pub fn get(&self, i: usize) -> K {
        debug_assert!(i < self.len, "slot {i} of {}", self.len);
        self.nodes[self.leaves + i].0
    }

    /// The least key and its slot (the lowest slot among equal keys),
    /// `None` when every slot is empty.
    #[inline]
    pub fn min(&self) -> Option<(usize, K)> {
        let (key, i) = self.root;
        (key != self.empty).then_some((i, key))
    }

    /// Set slot `i`'s key and replay its path to the root.
    pub fn set(&mut self, i: usize, key: K) {
        debug_assert!(i < self.len, "slot {i} of {}", self.len);
        let mut k = self.leaves + i;
        self.nodes[k] = (key, i);
        while k > 1 {
            k /= 2;
            self.replay(k);
        }
        self.root = self.nodes[1];
    }

    /// Recompute inner node `k` from its two children.
    #[inline]
    fn replay(&mut self, k: usize) {
        let (a, b) = (self.nodes[2 * k], self.nodes[2 * k + 1]);
        self.nodes[k] = if a.0 <= b.0 { a } else { b };
    }

    /// Grow to `len` slots; new slots start empty. Never shrinks. When
    /// the leaf count has to grow, the tree is rebuilt.
    pub fn resize(&mut self, len: usize) {
        if len <= self.len {
            return;
        }
        self.len = len;
        if len <= self.leaves {
            return;
        }
        let old = std::mem::take(&mut self.nodes);
        let old_leaves = self.leaves;
        self.leaves = len.next_power_of_two().max(2);
        self.nodes = vec![(self.empty, 0); 2 * self.leaves];
        for i in 0..self.leaves {
            let key = if i < old_leaves {
                old[old_leaves + i].0
            } else {
                self.empty
            };
            self.nodes[self.leaves + i] = (key, i);
        }
        for k in (1..self.leaves).rev() {
            self.replay(k);
        }
        self.root = self.nodes[1];
    }

    /// Append to `out`, in increasing slot order, every slot whose key
    /// is below `bound`. Descends only into subtrees whose minimum is
    /// below `bound`, so it costs O(hits · log len), not O(len).
    pub fn collect_below(&self, bound: K, out: &mut Vec<usize>) {
        if self.root.0 < bound {
            self.collect_from(1, bound, out);
        }
    }

    /// [`Self::collect_below`] under node `k`, whose key is below
    /// `bound`.
    fn collect_from(&self, k: usize, bound: K, out: &mut Vec<usize>) {
        if k >= self.leaves {
            out.push(k - self.leaves);
            return;
        }
        for child in [2 * k, 2 * k + 1] {
            if self.nodes[child].0 < bound {
                self.collect_from(child, bound, out);
            }
        }
    }

    /// Check the tree's invariants: every inner node is the lesser of
    /// its children, every leaf names its own slot, padding leaves are
    /// empty, and the inline root equals the stored one. Returns the
    /// first violation.
    pub fn check(&self) -> Result<(), String> {
        for i in 0..self.leaves {
            let (key, slot) = self.nodes[self.leaves + i];
            if slot != i {
                return Err(format!("leaf {i} names slot {slot}"));
            }
            if i >= self.len && key != self.empty {
                return Err(format!("padding leaf {i} is not empty"));
            }
        }
        for k in 1..self.leaves {
            let (a, b) = (self.nodes[2 * k], self.nodes[2 * k + 1]);
            let want = if a.0 <= b.0 { a } else { b };
            if self.nodes[k] != want {
                return Err(format!("inner node {k} is not the min of its children"));
            }
        }
        if self.leaves > 0 && self.root != self.nodes[1] {
            return Err("inline root differs from the tree's root".into());
        }
        Ok(())
    }
}
