//! Search-and-splice maintenance of `(key, value)`-sorted pair vectors.
//!
//! The relational store's two permutation indexes — the sorted
//! structures a single-row write touches — are each a `Vec<(K, V)>` in
//! ascending order, duplicates allowed. A write binary-searches its
//! position and splices there; whether the write took its key's row
//! count across 0 ↔ 1 is read off the neighbours of that position, which
//! is all a partition's distinct counts ever need: they move only on that
//! crossing, so no store recounts anything on a write.
//!
//! The cost that remains is the `memmove` behind the splice position — at
//! worst a few hundred kB on the largest written partition of the
//! benchmark fixture (≈ 8 µs measured), and nothing like a sort.

/// Does `key` own a row at or next to position `at`?
fn key_at<K: Ord + Copy, V>(sorted: &[(K, V)], at: usize, key: K) -> bool {
    let holds = |i: usize| sorted.get(i).is_some_and(|&(k, _)| k == key);
    holds(at) || at.checked_sub(1).is_some_and(holds)
}

/// Insert `row` at its sorted position. Returns `true` when its key had no
/// row before (the key's count went 0 → 1).
pub fn splice_in<K: Ord + Copy, V: Ord + Copy>(sorted: &mut Vec<(K, V)>, row: (K, V)) -> bool {
    let at = sorted.partition_point(|&e| e < row);
    let new_key = !key_at(sorted, at, row.0);
    sorted.insert(at, row);
    new_key
}

/// Remove every copy of `row`. Returns how many were removed and whether
/// they were the key's last rows (its count went to 0; always `false` when
/// nothing was removed). An absent row costs the two binary searches only.
pub fn splice_out<K: Ord + Copy, V: Ord + Copy>(
    sorted: &mut Vec<(K, V)>,
    row: (K, V),
) -> (usize, bool) {
    let lo = sorted.partition_point(|&e| e < row);
    let hi = lo + sorted[lo..].partition_point(|&e| e <= row);
    if lo == hi {
        return (0, false);
    }
    sorted.drain(lo..hi);
    (hi - lo, !key_at(sorted, lo, row.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_in_keeps_order_and_reports_new_keys() {
        let mut v: Vec<(u32, u32)> = Vec::new();
        assert!(splice_in(&mut v, (5, 1)), "first row of key 5");
        assert!(
            !splice_in(&mut v, (5, 0)),
            "key 5 already present (right neighbour)"
        );
        assert!(
            !splice_in(&mut v, (5, 9)),
            "key 5 already present (left neighbour)"
        );
        assert!(!splice_in(&mut v, (5, 1)), "duplicate row");
        assert!(splice_in(&mut v, (1, 7)), "new smallest key");
        assert!(splice_in(&mut v, (8, 0)), "new largest key");
        assert!(splice_in(&mut v, (6, 6)), "new key between two others");
        assert_eq!(
            v,
            vec![(1, 7), (5, 0), (5, 1), (5, 1), (5, 9), (6, 6), (8, 0)]
        );
    }

    #[test]
    fn splice_out_removes_all_copies_and_reports_vanished_keys() {
        let mut v = vec![(1, 7), (5, 0), (5, 1), (5, 1), (5, 9), (8, 0)];
        assert_eq!(splice_out(&mut v, (5, 2)), (0, false), "absent value");
        assert_eq!(splice_out(&mut v, (4, 0)), (0, false), "absent key");
        assert_eq!(splice_out(&mut v, (5, 1)), (2, false), "5 keeps rows");
        assert_eq!(splice_out(&mut v, (5, 0)), (1, false));
        assert_eq!(splice_out(&mut v, (5, 9)), (1, true), "last row of 5");
        assert_eq!(splice_out(&mut v, (1, 7)), (1, true), "first position");
        assert_eq!(splice_out(&mut v, (8, 0)), (1, true), "empties the vector");
        assert!(v.is_empty());
        assert_eq!(splice_out(&mut v, (8, 0)), (0, false));
    }
}
