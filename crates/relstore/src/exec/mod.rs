//! Execution primitives shared by the relational and graph stores.

pub mod bindings;
pub mod context;

pub use bindings::Bindings;
pub use context::{ExecContext, ExecError, ExecStats, ResourceGovernor};
