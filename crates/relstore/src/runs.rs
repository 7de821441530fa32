//! The sorted runs both stores read: one predicate's edges as compressed
//! sparse rows in both directions.
//!
//! A [`SortedRuns`] holds a partition's edge multiset twice — a forward
//! run keyed by subject and a reverse run keyed by object — each a sorted
//! key array, a `u32` offset array and one packed, sorted neighbour array.
//! A neighbour lookup is a binary search over the partition's distinct
//! keys plus a slice, `O(log keys + matches)` however large the rest of
//! the graph is. The statistics the planners price patterns with are read
//! off the runs ([`SortedRuns::stats`]): rows are the neighbour count and
//! the distinct subjects and objects are the key counts, so nothing is
//! maintained beside them.
//!
//! The relational table ([`crate::PredTable`]) owns its runs, and the
//! graph store owns none: a graph-resident partition is read through its
//! table's runs, so migrating a partition into `T_G` or evicting it
//! touches no edge. A write splices the table's runs once, in place
//! ([`SortedRuns::insert`], [`SortedRuns::remove_all`]).
//!
//! # Cost-parity contract
//!
//! The graph matcher and the relational index paths charge work units
//! from the *sizes* of the slices they read here (row lengths, partition
//! lengths), never from how they searched or merged them. Any layout
//! holding the same edge multiset therefore produces **identical work
//! units** for the same query, so a change of memory layout or of
//! execution strategy never moves DOTIL's learned designs or a work-unit
//! figure.
//!
//! # Enumeration-order contract
//!
//! Enumeration order is *canonical*, not layout-defined: every
//! [`CsrView`] ascends by key and, within a row, by neighbour, and the
//! graph store lists its resident predicates ascending by id. LIMIT
//! queries exit mid-enumeration, so two layouts enumerating in different
//! orders would return different (individually correct) result subsets
//! and charge different work — canonical order is what keeps *every*
//! deterministic metric layout-invariant, truncated queries included. It
//! is also what lets the matcher close a cycle by merging two sorted runs.

use kgdual_model::NodeId;
use kgdual_vec::cost::Card;

/// One direction of one partition as compressed sparse rows: `keys` are
/// the distinct row nodes, ascending; `offsets[i]..offsets[i + 1]`
/// delimits row `i` in `nbrs`; each row ascends, duplicate edges adjacent
/// (bag semantics).
#[derive(Clone, Debug)]
struct Csr {
    keys: Vec<NodeId>,
    offsets: Vec<u32>,
    nbrs: Vec<NodeId>,
}

impl Default for Csr {
    fn default() -> Self {
        Csr {
            keys: Vec::new(),
            offsets: vec![0],
            nbrs: Vec::new(),
        }
    }
}

impl Csr {
    /// Build from `(row, neighbour)` pairs already in ascending order in
    /// one pass, after counting the distinct rows so that every array is
    /// allocated at its final size.
    fn from_sorted(sorted: &[(NodeId, NodeId)]) -> Self {
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "input must be sorted"
        );
        let rows = usize::from(!sorted.is_empty())
            + sorted.windows(2).filter(|w| w[0].0 != w[1].0).count();
        let mut keys = Vec::with_capacity(rows);
        let mut offsets = Vec::with_capacity(rows + 1);
        for (i, &(k, _)) in sorted.iter().enumerate() {
            if keys.last() != Some(&k) {
                keys.push(k);
                offsets.push(i as u32);
            }
        }
        offsets.push(sorted.len() as u32);
        Csr {
            keys,
            offsets,
            nbrs: sorted.iter().map(|&(_, v)| v).collect(),
        }
    }

    fn view(&self) -> CsrView<'_> {
        CsrView {
            keys: &self.keys,
            offsets: &self.offsets,
            nbrs: &self.nbrs,
        }
    }

    /// Splice one neighbour into `k`'s row, keeping every array sorted:
    /// a `memmove` behind the position plus one increment per later row.
    fn insert(&mut self, k: NodeId, v: NodeId) {
        let i = match self.keys.binary_search(&k) {
            Ok(i) => i,
            Err(i) => {
                self.keys.insert(i, k);
                self.offsets.insert(i + 1, self.offsets[i]);
                i
            }
        };
        let pos = self.view().row_at(i).partition_point(|&n| n < v) + self.offsets[i] as usize;
        self.nbrs.insert(pos, v);
        for off in &mut self.offsets[i + 1..] {
            *off += 1;
        }
    }

    /// Remove every copy of `v` from `k`'s row; returns how many were
    /// removed. An emptied row drops its key, so the key count stays the
    /// distinct count.
    fn remove_all(&mut self, k: NodeId, v: NodeId) -> usize {
        let Ok(i) = self.keys.binary_search(&k) else {
            return 0;
        };
        let row = self.view().row_at(i);
        let start = self.offsets[i] as usize;
        let (lo, hi) = (
            start + row.partition_point(|&n| n < v),
            start + row.partition_point(|&n| n <= v),
        );
        if lo == hi {
            return 0;
        }
        self.nbrs.drain(lo..hi);
        for off in &mut self.offsets[i + 1..] {
            *off -= (hi - lo) as u32;
        }
        if self.offsets[i] == self.offsets[i + 1] {
            self.keys.remove(i);
            self.offsets.remove(i + 1);
        }
        hi - lo
    }
}

/// One partition's edges as a forward (subject-keyed) and a reverse
/// (object-keyed) [`CsrView`] over the same edge multiset.
#[derive(Clone, Debug, Default)]
pub struct SortedRuns {
    fwd: Csr,
    rev: Csr,
}

impl SortedRuns {
    /// Both directions from `(s, o)` pairs in any order: one sort and one
    /// pass per direction, through one scratch buffer.
    pub fn from_pairs(pairs: &[(NodeId, NodeId)]) -> Self {
        assert!(u32::try_from(pairs.len()).is_ok(), "offsets are u32");
        let mut buf = pairs.to_vec();
        buf.sort_unstable();
        let fwd = Csr::from_sorted(&buf);
        buf.clear();
        buf.extend(pairs.iter().map(|&(s, o)| (o, s)));
        buf.sort_unstable();
        SortedRuns {
            fwd,
            rev: Csr::from_sorted(&buf),
        }
    }

    /// Edge count.
    #[inline]
    pub fn len(&self) -> usize {
        self.fwd.nbrs.len()
    }

    /// True when the partition holds no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fwd.nbrs.is_empty()
    }

    /// The edges keyed by subject.
    #[inline]
    pub fn fwd(&self) -> CsrView<'_> {
        self.fwd.view()
    }

    /// The edges keyed by object.
    #[inline]
    pub fn rev(&self) -> CsrView<'_> {
        self.rev.view()
    }

    /// Rows and distinct subjects and objects, read off the runs.
    #[inline]
    pub fn stats(&self) -> Card {
        Card {
            rows: self.len(),
            distinct_s: self.fwd.keys.len(),
            distinct_o: self.rev.keys.len(),
        }
    }

    /// Splice the edge `(s, o)` into both directions.
    pub fn insert(&mut self, s: NodeId, o: NodeId) {
        self.fwd.insert(s, o);
        self.rev.insert(o, s);
    }

    /// Remove every copy of the edge `(s, o)`; returns how many were
    /// removed. An absent edge costs one search of the forward run.
    pub fn remove_all(&mut self, s: NodeId, o: NodeId) -> usize {
        let removed = self.fwd.remove_all(s, o);
        if removed > 0 {
            let mirrored = self.rev.remove_all(o, s);
            debug_assert_eq!(removed, mirrored, "fwd/rev must stay mirrored");
        }
        removed
    }
}

/// One direction of one partition as compressed sparse rows: `keys` are
/// the distinct row nodes, ascending; `offsets[i]..offsets[i + 1]`
/// delimits row `i` in `nbrs`; each row ascends, duplicate edges adjacent.
/// Read in key order the rows are the partition's edges in ascending
/// `(key, neighbour)` order. Only [`SortedRuns`] builds one, so the three
/// slices always agree.
#[derive(Copy, Clone, Debug, Default)]
pub struct CsrView<'a> {
    keys: &'a [NodeId],
    /// `keys.len() + 1` entries (none when the view is the default).
    offsets: &'a [u32],
    nbrs: &'a [NodeId],
}

impl<'a> CsrView<'a> {
    /// The distinct row nodes, ascending.
    #[inline]
    pub fn keys(&self) -> &'a [NodeId] {
        self.keys
    }

    /// Row boundaries: row `i` is `nbrs()[offsets()[i]..offsets()[i + 1]]`.
    #[inline]
    pub fn offsets(&self) -> &'a [u32] {
        self.offsets
    }

    /// Every row's neighbours, packed in key order.
    #[inline]
    pub fn nbrs(&self) -> &'a [NodeId] {
        self.nbrs
    }

    /// Edge count.
    #[inline]
    pub fn len(&self) -> usize {
        self.nbrs.len()
    }

    /// True when the partition holds no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbrs.is_empty()
    }

    /// Row `i` (the neighbours of `keys[i]`).
    #[inline]
    pub fn row_at(&self, i: usize) -> &'a [NodeId] {
        &self.nbrs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The neighbours of `key`, found by binary search (empty if absent).
    #[inline]
    pub fn row(&self, key: NodeId) -> &'a [NodeId] {
        self.keys
            .binary_search(&key)
            .map_or(&[], |i| self.row_at(i))
    }
}
