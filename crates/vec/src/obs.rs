//! kgdual-obs handles for the vectorized operators, registered once per
//! process. Observational only: the deterministic work accounting stays
//! in the stores' `ExecStats`, and the always-on batch counter lives in
//! [`crate::batches_emitted`].

use std::sync::OnceLock;

/// Per-operator batch instruments.
pub struct VecObs {
    /// Rows emitted per vectorized scan gather (batch-size histogram).
    pub scan_batch_rows: kgdual_obs::Histogram,
    /// Output rows per vectorized hash-join / INL batch.
    pub join_batch_rows: kgdual_obs::Histogram,
    /// Vectorized scan batches gathered.
    pub scan_batches: kgdual_obs::Counter,
    /// Vectorized join batches processed.
    pub join_batches: kgdual_obs::Counter,
    /// Estimate-vs-actual q-error of scan-family operators (rounded to
    /// the nearest integer ratio; fed per profiled query by
    /// [`crate::plan::record_q_errors`]).
    pub plan_qerror_scan: kgdual_obs::Histogram,
    /// Estimate-vs-actual q-error of join-family operators.
    pub plan_qerror_join: kgdual_obs::Histogram,
}

/// The process-wide vec instruments (lazily registered).
pub fn vec_obs() -> &'static VecObs {
    static OBS: OnceLock<VecObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = kgdual_obs::global().metrics();
        VecObs {
            scan_batch_rows: m.histogram("vec_scan_batch_rows"),
            join_batch_rows: m.histogram("vec_join_batch_rows"),
            scan_batches: m.counter("vec_scan_batches"),
            join_batches: m.counter("vec_join_batches"),
            plan_qerror_scan: m.histogram("plan_qerror_scan"),
            plan_qerror_join: m.histogram("plan_qerror_join"),
        }
    })
}
