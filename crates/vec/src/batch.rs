//! Batch kernels: one-pass gathers from packed `(subject, object)` edge
//! storage into contiguous binding cells.
//!
//! The relational [`PredTable`] keeps a predicate's edges as an
//! insertion-ordered pair vector, which its full scans read, plus two
//! sorted CSR runs (keys, offsets, neighbours) for its index paths. The
//! kernel here applies selection + projection over a whole 4096-row chunk
//! of the pair vector in one tight loop, appending finished rows to a flat cell
//! buffer instead of calling a per-row emit closure (binding checks,
//! per-row pushes).
//!
//! The projection is described by an [`EmitSrc`] template — one entry
//! per output column, naming where the cell comes from (the subject
//! column, the object column, or a constant such as an already-bound
//! variable or the scanned predicate id). Templates are built once per
//! scan with duplicate variables collapsed to their first occurrence,
//! the same schema a per-row emit produces, and rows come out in chunk
//! order.
//!
//! [`PredTable`]: https://docs.rs/kgdual-relstore

use kgdual_model::NodeId;

/// Rows per batch: the granularity at which operators charge work and
/// poll for cancellation or the work limit.
pub const BATCH: usize = 4096;

/// Source of one output column in a gathered row.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EmitSrc {
    /// The chunk's subject column.
    S,
    /// The chunk's object column.
    O,
    /// A per-scan constant: an already-bound variable's value, or the
    /// predicate id of the table being scanned (var-predicate unions).
    Const(NodeId),
}

#[inline]
fn emit_row(template: &[EmitSrc], s: NodeId, o: NodeId, out: &mut Vec<NodeId>) {
    for src in template {
        out.push(match *src {
            EmitSrc::S => s,
            EmitSrc::O => o,
            EmitSrc::Const(c) => c,
        });
    }
}

/// Gather one chunk of `(s, o)` pairs into `out`, applying constant
/// filters and the self-loop (`s == o`) restriction, projecting each
/// surviving pair through `template`. Returns the number of rows
/// emitted. Row order follows `pairs` order exactly.
pub fn gather_pairs(
    pairs: &[(NodeId, NodeId)],
    s_filter: Option<NodeId>,
    o_filter: Option<NodeId>,
    require_s_eq_o: bool,
    template: &[EmitSrc],
    out: &mut Vec<NodeId>,
) -> usize {
    let emitted = if s_filter.is_none() && o_filter.is_none() && !require_s_eq_o {
        // The hot shape: unfiltered scan of a whole partition. The two
        // all-var projections compile to straight strided copies.
        match template {
            [EmitSrc::S, EmitSrc::O] => {
                out.reserve(pairs.len() * 2);
                for &(s, o) in pairs {
                    out.push(s);
                    out.push(o);
                }
                pairs.len()
            }
            [one] => {
                out.reserve(pairs.len());
                match *one {
                    EmitSrc::S => out.extend(pairs.iter().map(|&(s, _)| s)),
                    EmitSrc::O => out.extend(pairs.iter().map(|&(_, o)| o)),
                    EmitSrc::Const(c) => out.extend(pairs.iter().map(|_| c)),
                }
                pairs.len()
            }
            _ => {
                out.reserve(pairs.len() * template.len());
                for &(s, o) in pairs {
                    emit_row(template, s, o, out);
                }
                pairs.len()
            }
        }
    } else {
        let mut n = 0usize;
        for &(s, o) in pairs {
            if s_filter.is_some_and(|c| c != s) {
                continue;
            }
            if o_filter.is_some_and(|c| c != o) {
                continue;
            }
            if require_s_eq_o && s != o {
                continue;
            }
            emit_row(template, s, o, out);
            n += 1;
        }
        n
    };
    crate::note_scan_batch(emitted);
    emitted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn unfiltered_pair_gather_is_an_interleave() {
        let pairs = [(n(1), n(2)), (n(3), n(4))];
        let mut out = Vec::new();
        let got = gather_pairs(
            &pairs,
            None,
            None,
            false,
            &[EmitSrc::S, EmitSrc::O],
            &mut out,
        );
        assert_eq!(got, 2);
        assert_eq!(out, vec![n(1), n(2), n(3), n(4)]);
    }

    #[test]
    fn filters_and_constants_apply_per_row() {
        let pairs = [(n(1), n(2)), (n(1), n(5)), (n(2), n(5))];
        let mut out = Vec::new();
        let got = gather_pairs(
            &pairs,
            Some(n(1)),
            None,
            false,
            &[EmitSrc::O, EmitSrc::Const(n(9))],
            &mut out,
        );
        assert_eq!(got, 2);
        assert_eq!(out, vec![n(2), n(9), n(5), n(9)]);
    }

    #[test]
    fn self_loop_restriction_keeps_diagonal_rows() {
        let pairs = [(n(1), n(1)), (n(1), n(2)), (n(3), n(3))];
        let mut out = Vec::new();
        let got = gather_pairs(&pairs, None, None, true, &[EmitSrc::S], &mut out);
        assert_eq!(got, 2);
        assert_eq!(out, vec![n(1), n(3)]);
    }
}
