//! kgdual-obs handles for the executor layer, registered once per
//! process. Everything here is observational only — see the determinism
//! contract in `kgdual_obs`.

use std::sync::OnceLock;

pub(crate) struct ExecObs {
    /// Wall latency of one query task, submission to completion of its
    /// body (the per-query latency distribution the serving layer would
    /// expose).
    pub query_wall: kgdual_obs::Histogram,
    /// Wall latency of one whole batch under its shared-read epoch.
    pub batch_wall: kgdual_obs::Histogram,
    /// Time spent waiting at the epoch barrier — write-lock acquires
    /// (reconfigure/checkpoint/restore draining in-flight batches) and
    /// the batch's read acquire waiting out a writer.
    pub epoch_wait: kgdual_obs::Histogram,
    /// Wall time of the checkpoint capture, the wait for in-flight
    /// batches included.
    pub checkpoint_wall: kgdual_obs::Histogram,
}

pub(crate) fn exec_obs() -> &'static ExecObs {
    static OBS: OnceLock<ExecObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = kgdual_obs::global().metrics();
        ExecObs {
            query_wall: m.histogram("exec_query_wall_ns"),
            batch_wall: m.histogram("exec_batch_wall_ns"),
            epoch_wait: m.histogram("exec_epoch_wait_ns"),
            checkpoint_wall: m.histogram("exec_checkpoint_wall_ns"),
        }
    })
}
