//! Flat per-neighbor state containers, indexed by [`NodeId`].
//!
//! Per-neighbor state is touched on **every** receive, tick and
//! discovery — it is the protocols' hot data. The original
//! implementation kept it in `BTreeMap`/`BTreeSet`, which costs a pointer
//! chase per node visited; these containers store it as one compact
//! entry array kept **sorted by [`NodeId`]** ([`FlatMap`] holds the edge
//! weights of [`crate::GradientShared`], [`IdSet`] the baseline's `Υ_u`,
//! and [`crate::GradientNode`] keeps its `Υ_u` table, with `Γ_u` flagged
//! inside it, in the same layout):
//!
//! * membership and lookup are a binary search over the compact array —
//!   `O(log degree)`, and degree is tiny for the bounded-degree topologies
//!   the experiments run,
//! * iteration is cache-linear in ascending node id — exactly the order
//!   the old tree maps iterated, so deterministic traces (message emission
//!   order, blocking-neighbor selection) are preserved bit-for-bit,
//! * memory is `O(degree)` per node. An earlier revision kept an auxiliary
//!   dense `pos` index (`O(max neighbor id)` per node) for `O(1)` lookup;
//!   at the `n = 65 536` scale of E11 that costs `O(n²)` bytes across the
//!   network — gigabytes — for a lookup that a two-probe binary search
//!   over a few cache-resident entries already wins. The dense index is
//!   gone.
//!
//! Inserts and removals shift the compact tail — `O(degree)` — while the
//! per-event read path (the actual hot loop) stays branch-predictable
//! array walking.

use gcs_net::NodeId;

/// A map from [`NodeId`] to `T` backed by a compact entry array sorted by
/// node id. Iteration order is ascending node id.
#[derive(Debug, Default)]
pub struct FlatMap<T> {
    /// Compact, sorted by node id.
    entries: Vec<(NodeId, T)>,
}

impl<T: Clone> Clone for FlatMap<T> {
    fn clone(&self) -> Self {
        FlatMap {
            entries: self.entries.clone(),
        }
    }

    /// Reuses `self`'s entry array.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl<T> FlatMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }

    #[inline]
    fn slot(&self, v: NodeId) -> Option<usize> {
        self.entries.binary_search_by_key(&v, |e| e.0).ok()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if `v` has an entry.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.slot(v).is_some()
    }

    /// The entry for `v`, if present.
    #[inline]
    pub fn get(&self, v: NodeId) -> Option<&T> {
        self.slot(v).map(|i| &self.entries[i].1)
    }

    /// Mutable entry for `v`, if present.
    #[inline]
    pub fn get_mut(&mut self, v: NodeId) -> Option<&mut T> {
        match self.slot(v) {
            Some(i) => Some(&mut self.entries[i].1),
            None => None,
        }
    }

    /// Inserts or replaces the entry for `v`; returns the previous value.
    pub fn insert(&mut self, v: NodeId, value: T) -> Option<T> {
        match self.entries.binary_search_by_key(&v, |e| e.0) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(at) => {
                self.entries.insert(at, (v, value));
                None
            }
        }
    }

    /// Removes the entry for `v`, returning it if present.
    pub fn remove(&mut self, v: NodeId) -> Option<T> {
        let i = self.slot(v)?;
        let (_, value) = self.entries.remove(i);
        Some(value)
    }

    /// Entries in ascending node-id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.entries.iter().map(|(v, t)| (*v, t))
    }

    /// Node ids in ascending order.
    #[inline]
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|(v, _)| *v)
    }

    /// Heap bytes backing the entry array (plane accounting: this is the
    /// dominant per-node term the cold tier reclaims).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(NodeId, T)>()
    }
}

/// A set of [`NodeId`]s with the same sorted compact layout as
/// [`FlatMap`]. Iteration order is ascending node id.
#[derive(Debug, Default)]
pub struct IdSet {
    items: Vec<NodeId>,
}

impl Clone for IdSet {
    fn clone(&self) -> Self {
        IdSet {
            items: self.items.clone(),
        }
    }

    /// Reuses `self`'s member array.
    fn clone_from(&mut self, source: &Self) {
        self.items.clone_from(&source.items);
    }
}

impl IdSet {
    /// An empty set.
    pub fn new() -> Self {
        IdSet { items: Vec::new() }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if `v` is a member.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.items.binary_search(&v).is_ok()
    }

    /// Adds `v`; returns true if it was newly inserted.
    pub fn insert(&mut self, v: NodeId) -> bool {
        match self.items.binary_search(&v) {
            Ok(_) => false,
            Err(at) => {
                self.items.insert(at, v);
                true
            }
        }
    }

    /// Removes `v`; returns true if it was a member.
    pub fn remove(&mut self, v: NodeId) -> bool {
        match self.items.binary_search(&v) {
            Ok(i) => {
                self.items.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Members in ascending node-id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.items.iter().copied()
    }

    /// Heap bytes backing the member array (plane accounting).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_net::node;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn map_insert_get_remove_roundtrip() {
        let mut m = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(node(5), "five"), None);
        assert_eq!(m.insert(node(2), "two"), None);
        assert_eq!(m.insert(node(9), "nine"), None);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(node(5)), Some(&"five"));
        assert_eq!(m.get(node(3)), None);
        assert!(m.contains(node(2)));
        assert_eq!(m.insert(node(5), "FIVE"), Some("five"));
        assert_eq!(m.remove(node(2)), Some("two"));
        assert_eq!(m.remove(node(2)), None);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![node(5), node(9)]);
    }

    #[test]
    fn map_iterates_in_sorted_order_like_btreemap() {
        let ids = [7usize, 1, 30, 4, 12, 0, 25];
        let mut flat = FlatMap::new();
        let mut tree = BTreeMap::new();
        for (rank, &i) in ids.iter().enumerate() {
            flat.insert(node(i), rank);
            tree.insert(node(i), rank);
        }
        let f: Vec<_> = flat.iter().map(|(v, &r)| (v, r)).collect();
        let t: Vec<_> = tree.iter().map(|(&v, &r)| (v, r)).collect();
        assert_eq!(f, t);
    }

    #[test]
    fn map_get_mut_updates_in_place() {
        let mut m = FlatMap::new();
        m.insert(node(3), 10);
        *m.get_mut(node(3)).unwrap() += 5;
        assert_eq!(m.get(node(3)), Some(&15));
        assert!(m.get_mut(node(4)).is_none());
    }

    #[test]
    fn map_survives_shifting_inserts_and_removals() {
        // Insert in descending order (worst shifting), then remove from the
        // middle and verify every remaining lookup.
        let mut m = FlatMap::new();
        for i in (0..20).rev() {
            m.insert(node(i), i * 100);
        }
        m.remove(node(10));
        m.remove(node(0));
        m.remove(node(19));
        for i in 0..20 {
            let expect = (![0, 10, 19].contains(&i)).then_some(i * 100);
            assert_eq!(m.get(node(i)).copied(), expect, "id {i}");
        }
        assert_eq!(m.len(), 17);
    }

    #[test]
    fn map_memory_is_degree_bound_for_huge_ids() {
        // A node whose only neighbor has a huge id must not allocate
        // proportionally to that id (the n = 65k scale requirement).
        let mut m = FlatMap::new();
        m.insert(node(65_535), 1u8);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(node(65_535)), Some(&1));
        assert_eq!(m.get(node(65_534)), None);
    }

    #[test]
    fn set_matches_btreeset_semantics() {
        let ops = [3usize, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let mut flat = IdSet::new();
        let mut tree = BTreeSet::new();
        for &i in &ops {
            assert_eq!(flat.insert(node(i)), tree.insert(node(i)), "insert {i}");
        }
        assert_eq!(
            flat.iter().collect::<Vec<_>>(),
            tree.iter().copied().collect::<Vec<_>>()
        );
        for &i in &[1usize, 7, 5] {
            assert_eq!(flat.remove(node(i)), tree.remove(&node(i)), "remove {i}");
        }
        assert_eq!(
            flat.iter().collect::<Vec<_>>(),
            tree.iter().copied().collect::<Vec<_>>()
        );
        assert_eq!(flat.len(), tree.len());
        assert!(!flat.is_empty());
    }
}
