//! The per-run metrics registry: named counters and histograms.
//!
//! Unlike the process-global atomics it replaces, a `Registry` belongs to
//! one simulation run; parallel runs (e.g. `cargo test`) each get their own
//! and cannot cross-contaminate. Names are interned once (at node/network
//! construction), so the hot path is an index into a flat vector.

use crate::hist::{HistSnapshot, Histogram};
use std::cell::RefCell;
use std::collections::HashMap;

/// Handle to a registered counter (an index; cheap to copy and store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub(crate) u32);

#[derive(Debug, Default)]
struct Inner {
    counter_index: HashMap<&'static str, u32>,
    counter_names: Vec<&'static str>,
    counters: Vec<u64>,
    hist_index: HashMap<&'static str, u32>,
    hist_names: Vec<&'static str>,
    hists: Vec<Histogram>,
}

/// A per-run collection of named counters and histograms.
///
/// Interior-mutable (`RefCell`): the simulator is single-threaded and the
/// registry handle is shared between the runner, the network and every node.
#[derive(Debug, Default)]
pub struct Registry {
    inner: RefCell<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-finds) a counter by name.
    pub fn counter(&self, name: &'static str) -> CounterId {
        let mut g = self.inner.borrow_mut();
        if let Some(&i) = g.counter_index.get(name) {
            return CounterId(i);
        }
        let i = g.counters.len() as u32;
        g.counter_index.insert(name, i);
        g.counter_names.push(name);
        g.counters.push(0);
        CounterId(i)
    }

    /// Registers (or re-finds) a histogram by name.
    pub fn histogram(&self, name: &'static str) -> HistId {
        let mut g = self.inner.borrow_mut();
        if let Some(&i) = g.hist_index.get(name) {
            return HistId(i);
        }
        let i = g.hists.len() as u32;
        g.hist_index.insert(name, i);
        g.hist_names.push(name);
        g.hists.push(Histogram::new());
        HistId(i)
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.inner.borrow_mut().counters[id.0 as usize] += n;
    }

    /// Increments a counter.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Records a histogram sample.
    #[inline]
    pub fn record(&self, id: HistId, v: u64) {
        self.inner.borrow_mut().hists[id.0 as usize].record(v);
    }

    /// Freezes all metrics into a name-sorted snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.inner.borrow();
        let mut counters: Vec<(String, u64)> = g
            .counter_names
            .iter()
            .zip(&g.counters)
            .map(|(&n, &v)| (n.to_string(), v))
            .collect();
        counters.sort();
        let mut histograms: Vec<(String, HistSnapshot)> = g
            .hist_names
            .iter()
            .zip(&g.hists)
            .map(|(&n, h)| (n.to_string(), h.snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            counters,
            histograms,
        }
    }
}

/// A frozen, name-sorted view of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` histograms, sorted by name.
    pub histograms: Vec<(String, HistSnapshot)>,
}

impl Snapshot {
    /// Counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| &self.histograms[i].1)
            .ok()
    }

    /// Folds another snapshot into this one: counters are summed by name and
    /// histograms merged by name ([`HistSnapshot::merge`]); metrics present
    /// in only one snapshot carry over unchanged. Both name orderings stay
    /// sorted, so merging is deterministic regardless of which runs of a
    /// sweep registered which metrics.
    pub fn merge(&mut self, other: &Snapshot) {
        let mut counters = Vec::with_capacity(self.counters.len().max(other.counters.len()));
        let (mut a, mut b) = (
            self.counters.drain(..).peekable(),
            other.counters.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some((na, _)), Some((nb, _))) => {
                    if na < nb {
                        counters.push(a.next().unwrap());
                    } else if nb < na {
                        counters.push(b.next().unwrap().clone());
                    } else {
                        let (name, va) = a.next().unwrap();
                        let (_, vb) = b.next().unwrap();
                        counters.push((name, va + vb));
                    }
                }
                (Some(_), None) => counters.push(a.next().unwrap()),
                (None, Some(_)) => counters.push(b.next().unwrap().clone()),
                (None, None) => break,
            }
        }
        drop(a);
        self.counters = counters;

        let mut hists = Vec::with_capacity(self.histograms.len().max(other.histograms.len()));
        let (mut a, mut b) = (
            self.histograms.drain(..).peekable(),
            other.histograms.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some((na, _)), Some((nb, _))) => {
                    if na < nb {
                        hists.push(a.next().unwrap());
                    } else if nb < na {
                        hists.push(b.next().unwrap().clone());
                    } else {
                        let (name, mut ha) = a.next().unwrap();
                        let (_, hb) = b.next().unwrap();
                        ha.merge(hb);
                        hists.push((name, ha));
                    }
                }
                (Some(_), None) => hists.push(a.next().unwrap()),
                (None, Some(_)) => hists.push(b.next().unwrap().clone()),
                (None, None) => break,
            }
        }
        drop(a);
        self.histograms = hists;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_interned() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.inc(a);
        r.add(b, 2);
        assert_eq!(r.snapshot().counter("x"), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.inc(r.counter("zeta"));
        r.add(r.counter("alpha"), 7);
        r.record(r.histogram("lat"), 100);
        r.record(r.histogram("lat"), 200);
        let s = r.snapshot();
        assert_eq!(
            s.counters,
            vec![("alpha".to_string(), 7), ("zeta".to_string(), 1)]
        );
        assert_eq!(s.counter("alpha"), 7);
        assert_eq!(s.counter("nope"), 0);
        let h = s.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, Some(100));
    }

    #[test]
    fn snapshots_merge_by_name() {
        let a = Registry::new();
        a.add(a.counter("shared"), 3);
        a.inc(a.counter("only_a"));
        a.record(a.histogram("lat"), 10);
        let b = Registry::new();
        b.add(b.counter("shared"), 4);
        b.inc(b.counter("only_b"));
        b.record(b.histogram("lat"), 30);
        b.record(b.histogram("hops"), 2);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counter("shared"), 7);
        assert_eq!(s.counter("only_a"), 1);
        assert_eq!(s.counter("only_b"), 1);
        let lat = s.histogram("lat").unwrap();
        assert_eq!((lat.count, lat.min, lat.max), (2, Some(10), Some(30)));
        assert_eq!(s.histogram("hops").unwrap().count, 1);
        // Name ordering stays sorted (the artifact writer relies on it).
        let names: Vec<_> = s.counters.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn separate_registries_do_not_share_state() {
        let a = Registry::new();
        let b = Registry::new();
        a.inc(a.counter("c"));
        assert_eq!(b.snapshot().counter("c"), 0);
    }
}
