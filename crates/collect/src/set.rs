//! [`DetSet`]: a deterministic insertion-ordered hash set.
//!
//! A thin wrapper over [`DetMap<T, ()>`] with the same determinism
//! contract: seed-free hashing, insertion-order iteration, and
//! [`iter_sorted`](DetSet::iter_sorted) for serialization boundaries.

use crate::map::DetMap;
use serde::de::Deserializer;
use serde::{DeError, Deserialize, Serialize};
use std::borrow::Borrow;
use std::hash::Hash;

/// A deterministic hash set with insertion-order iteration.
///
/// # Examples
///
/// ```
/// use hc_collect::DetSet;
///
/// let mut s = DetSet::new();
/// assert!(s.insert("dog"));
/// assert!(!s.insert("dog"));
/// assert!(s.contains("dog"));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Clone)]
pub struct DetSet<T> {
    map: DetMap<T, ()>,
}

impl<T> Default for DetSet<T> {
    fn default() -> Self {
        DetSet { map: DetMap::new() }
    }
}

impl<T> DetSet<T> {
    /// An empty set (no allocation until the first insert).
    #[must_use]
    pub fn new() -> Self {
        DetSet::default()
    }

    /// An empty set pre-sized for `capacity` elements.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        DetSet {
            map: DetMap::with_capacity(capacity),
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes every element, keeping allocations.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterates elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.map.keys()
    }

    /// Iterates elements in **sorted order** — the serialization
    /// boundary, matching what the same data in a `BTreeSet` yields.
    pub fn iter_sorted(&self) -> impl Iterator<Item = &T>
    where
        T: Ord,
    {
        let mut refs: Vec<&T> = self.map.keys().collect();
        refs.sort();
        refs.into_iter()
    }
}

impl<T: Hash + Eq> DetSet<T> {
    /// Adds an element; `true` when it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        self.map.insert(value, ()).is_none()
    }

    /// `true` when `value` is present.
    #[must_use]
    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(value)
    }

    /// Removes an element; `true` when it was present. Surviving
    /// elements keep their relative insertion order.
    pub fn remove<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.remove(value).is_some()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for DetSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Order-insensitive equality: same elements, any insertion history.
impl<T: Hash + Eq> PartialEq for DetSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<T: Hash + Eq> Eq for DetSet<T> {}

impl<T: Hash + Eq> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut set = DetSet::with_capacity(iter.size_hint().0);
        for value in iter {
            set.insert(value);
        }
        set
    }
}

impl<T: Hash + Eq> Extend<T> for DetSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for value in iter {
            self.insert(value);
        }
    }
}

fn first<T>(entry: &(T, ())) -> &T {
    &entry.0
}

impl<'a, T> IntoIterator for &'a DetSet<T> {
    type Item = &'a T;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (T, ())>, fn(&'a (T, ())) -> &'a T>;

    fn into_iter(self) -> Self::IntoIter {
        self.map
            .raw_entries()
            .iter()
            .map(first as fn(&'a (T, ())) -> &'a T)
    }
}

impl<T> IntoIterator for DetSet<T> {
    type Item = T;
    type IntoIter = std::iter::Map<std::vec::IntoIter<(T, ())>, fn((T, ())) -> T>;

    fn into_iter(self) -> Self::IntoIter {
        fn take_key<T>(entry: (T, ())) -> T {
            entry.0
        }
        self.map.into_iter().map(take_key as fn((T, ())) -> T)
    }
}

/// Serializes in **sorted order** — byte-identical to the same data held
/// in a `BTreeSet` (a plain array of elements).
impl<T: Serialize + Hash + Eq + Ord> Serialize for DetSet<T> {
    fn serialize(&self, out: &mut String) {
        serde::serialize_seq(self.iter_sorted(), out);
    }
}

impl<'de, T: Deserialize<'de> + Hash + Eq> Deserialize<'de> for DetSet<T> {
    fn deserialize(de: &mut Deserializer<'de>) -> Result<Self, DeError> {
        serde::deserialize_seq(de)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = DetSet::new();
        assert!(s.insert(3u64));
        assert!(s.insert(1));
        assert!(!s.insert(3));
        assert!(s.contains(&3));
        assert!(s.remove(&3));
        assert!(!s.remove(&3));
        assert!(!s.contains(&3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_orders() {
        let mut s = DetSet::new();
        for w in ["c", "a", "b"] {
            s.insert(w);
        }
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), ["c", "a", "b"]);
        assert_eq!(
            s.iter_sorted().copied().collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
    }

    #[test]
    fn equality_ignores_order() {
        let a: DetSet<u64> = [1, 2, 3].into_iter().collect();
        let b: DetSet<u64> = [3, 2, 1].into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn serializes_like_a_btreeset() {
        use std::collections::BTreeSet;
        let det: DetSet<String> = ["b", "a"].into_iter().map(String::from).collect();
        let btree: BTreeSet<String> = ["b", "a"].into_iter().map(String::from).collect();
        let json = serde_json::to_string(&det).expect("encodes");
        assert_eq!(json, serde_json::to_string(&btree).expect("encodes"));
        assert_eq!(json, r#"["a","b"]"#);
        let back: DetSet<String> = serde_json::from_str(&json).expect("round-trip");
        assert_eq!(back, det);
    }

    #[test]
    fn borrowed_lookups_work() {
        let mut s: DetSet<String> = DetSet::new();
        s.insert("hello".to_string());
        assert!(s.contains("hello"));
        assert!(s.remove("hello"));
    }
}
