//! Seeded operation streams: what `--seed` controls.
//!
//! The data fixture is fixed (`sut::DATA_SEED`); the seed decides which
//! subjects are looked up, in what order the mixed queries arrive, and which
//! triples the update stream writes. Every stream is a pure function of its
//! arguments, and op counts per repetition are fixed, so counts (rows, work
//! units, routes, bytes) repeat exactly for a seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};

/// Zipf exponent of the point-lookup subject popularity.
pub const ZIPF_S: f64 = 1.0;

/// Zipfian sampler over `0..n` from the closed-form CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(s);
                total
            })
            .collect();
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stream + 1))
}

/// `serve_point`: `n` requests, each `(template, subject)` with the subject
/// Zipf-distributed over `subjects` and the template uniform over `templates`.
pub fn point_stream(seed: u64, n: usize, templates: usize, subjects: usize) -> Vec<(usize, usize)> {
    let mut rng = stream_rng(seed, 0);
    let zipf = Zipf::new(subjects, ZIPF_S);
    (0..n)
        .map(|_| (rng.gen_range(0..templates), zipf.sample(&mut rng)))
        .collect()
}

/// `serve_mixed`: every one of `queries` exactly `rounds` times, shuffled.
/// Stratified so the work in a repetition does not depend on the draw; only
/// the arrival order (and what runs next to what) does.
pub fn mixed_stream(seed: u64, rounds: usize, queries: usize) -> Vec<usize> {
    let mut rng = stream_rng(seed, 1_000);
    let mut order: Vec<usize> = (0..rounds).flat_map(|_| 0..queries).collect();
    order.shuffle(&mut rng);
    order
}

/// One `update_mixed` operation. Subjects and objects index the workload's
/// subject and object pools; `pred` indexes its read (resp. written)
/// predicate list.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Bound-subject lookup `SELECT ?o WHERE { <subject> <pred> ?o }`.
    Read { pred: usize, subject: usize },
    /// The graph-route complex query.
    Complex,
    /// Insert `(subject, written pred, object)`.
    Insert {
        pred: usize,
        subject: usize,
        object: usize,
    },
    /// Delete the `nth` insert of the stream.
    Delete { nth: usize },
}

/// Shape of the update stream.
#[derive(Copy, Clone, Debug)]
pub struct UpdateShape {
    pub ops: usize,
    pub read_preds: usize,
    pub written_preds: usize,
    pub subjects: usize,
    pub objects: usize,
    /// Inserted triples stay live for this many further inserts.
    pub lag: usize,
}

/// Share of writes and of complex reads among all operations.
pub const WRITE_SHARE: f64 = 0.20;
pub const COMPLEX_SHARE: f64 = 0.05;

/// The whole stream (all repetitions back to back, so the insert-delete lag
/// carries across repetition boundaries and the store size stays steady).
pub fn update_stream(seed: u64, shape: &UpdateShape) -> Vec<UpdateOp> {
    let mut rng = stream_rng(seed, 2_000);
    let zipf = Zipf::new(shape.subjects, ZIPF_S);
    let mut live: VecDeque<usize> = VecDeque::new();
    let mut live_keys: HashSet<(usize, usize, usize)> = HashSet::new();
    let mut inserts: Vec<(usize, usize, usize)> = Vec::new();
    let mut ops = Vec::with_capacity(shape.ops);
    for _ in 0..shape.ops {
        let u: f64 = rng.gen();
        if u < WRITE_SHARE {
            if live.len() >= shape.lag {
                let nth = live.pop_front().expect("lag > 0");
                live_keys.remove(&inserts[nth]);
                ops.push(UpdateOp::Delete { nth });
            } else {
                // A triple may be live only once: deleting removes every copy.
                let key = loop {
                    let key = (
                        rng.gen_range(0..shape.written_preds),
                        rng.gen_range(0..shape.subjects),
                        rng.gen_range(0..shape.objects),
                    );
                    if live_keys.insert(key) {
                        break key;
                    }
                };
                live.push_back(inserts.len());
                inserts.push(key);
                ops.push(UpdateOp::Insert {
                    pred: key.0,
                    subject: key.1,
                    object: key.2,
                });
            }
        } else if u < WRITE_SHARE + COMPLEX_SHARE {
            ops.push(UpdateOp::Complex);
        } else {
            ops.push(UpdateOp::Read {
                pred: rng.gen_range(0..shape.read_preds),
                subject: zipf.sample(&mut rng),
            });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_the_head_and_covers_the_domain() {
        let zipf = Zipf::new(16, ZIPF_S);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 16];
        for _ in 0..4_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[8]);
        assert!(
            counts.iter().filter(|&&c| c > 0).count() >= 12,
            "{counts:?}"
        );
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(
            point_stream(42, 500, 4, 2_000),
            point_stream(42, 500, 4, 2_000)
        );
        assert_ne!(
            point_stream(42, 500, 4, 2_000),
            point_stream(43, 500, 4, 2_000)
        );
        assert_eq!(mixed_stream(42, 3, 20), mixed_stream(42, 3, 20));
        assert_ne!(mixed_stream(42, 3, 20), mixed_stream(43, 3, 20));
        let shape = UpdateShape {
            ops: 2_000,
            read_preds: 4,
            written_preds: 2,
            subjects: 200,
            objects: 5,
            lag: 8,
        };
        assert_eq!(update_stream(42, &shape), update_stream(42, &shape));
        assert_ne!(update_stream(42, &shape), update_stream(43, &shape));
    }

    #[test]
    fn mixed_stream_is_stratified() {
        let order = mixed_stream(9, 7, 20);
        assert_eq!(order.len(), 140);
        for q in 0..20 {
            assert_eq!(order.iter().filter(|&&x| x == q).count(), 7);
        }
    }

    #[test]
    fn update_stream_keeps_the_lag_and_never_doubles_a_live_triple() {
        let shape = UpdateShape {
            ops: 5_000,
            read_preds: 4,
            written_preds: 2,
            subjects: 50,
            objects: 3,
            lag: 16,
        };
        let ops = update_stream(3, &shape);
        let mut inserts = Vec::new();
        let mut live: Vec<(usize, usize, usize)> = Vec::new();
        let (mut writes, mut complex) = (0, 0);
        for op in &ops {
            match *op {
                UpdateOp::Insert {
                    pred,
                    subject,
                    object,
                } => {
                    let key = (pred, subject, object);
                    assert!(!live.contains(&key), "doubled live triple");
                    live.push(key);
                    inserts.push(key);
                    writes += 1;
                }
                UpdateOp::Delete { nth } => {
                    let key = inserts[nth];
                    let at = live
                        .iter()
                        .position(|k| *k == key)
                        .expect("deletes a live triple");
                    assert_eq!(at, 0, "oldest first");
                    live.remove(at);
                    writes += 1;
                }
                UpdateOp::Complex => complex += 1,
                UpdateOp::Read { .. } => {}
            }
            assert!(live.len() <= shape.lag);
        }
        let share = writes as f64 / ops.len() as f64;
        assert!((0.17..0.23).contains(&share), "write share {share}");
        assert!(complex > 150 && complex < 350);
    }
}
