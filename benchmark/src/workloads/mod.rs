//! The four workloads. Each sets up, verifies outputs, then either runs the
//! measured repetitions (plain) or the traced pass.

pub mod batch;
pub mod serve;
pub mod update;
