//! Error type spanning the dual-store components.

use kgdual_graphstore::{GraphExecError, GraphStoreError};
use kgdual_model::ModelError;
use kgdual_relstore::ExecError;
use kgdual_sparql::{CompileError, ParseError};
use std::fmt;

/// Any error the dual store can surface to a caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Query text failed to parse.
    Parse(ParseError),
    /// Query failed to compile against the dictionary.
    Compile(CompileError),
    /// Relational execution failed (cancellation).
    Exec(ExecError),
    /// Graph execution failed.
    Graph(GraphExecError),
    /// Storage management failed (budget, double load, …).
    Storage(GraphStoreError),
    /// A partition was requested that the relational store does not hold.
    UnknownPartition(kgdual_model::PredId),
    /// The dictionary refused a term (its id space is exhausted).
    Model(ModelError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Parse(e) => write!(f, "parse: {e}"),
            CoreError::Compile(e) => write!(f, "compile: {e}"),
            CoreError::Exec(e) => write!(f, "execution: {e}"),
            CoreError::Graph(e) => write!(f, "graph execution: {e}"),
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::UnknownPartition(p) => {
                write!(f, "partition {p} does not exist in the relational store")
            }
            CoreError::Model(e) => write!(f, "dictionary: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<ParseError> for CoreError {
    fn from(e: ParseError) -> Self {
        CoreError::Parse(e)
    }
}

impl From<CompileError> for CoreError {
    fn from(e: CompileError) -> Self {
        CoreError::Compile(e)
    }
}

impl From<ExecError> for CoreError {
    fn from(e: ExecError) -> Self {
        CoreError::Exec(e)
    }
}

impl From<GraphExecError> for CoreError {
    fn from(e: GraphExecError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<GraphStoreError> for CoreError {
    fn from(e: GraphStoreError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = ParseError::new(3, "boom").into();
        assert!(e.to_string().contains("parse"));
        let e: CoreError = ExecError::Cancelled { partial_work: 7 }.into();
        assert!(e.to_string().contains("cancelled"));
        let e = CoreError::UnknownPartition(kgdual_model::PredId(4));
        assert!(e.to_string().contains("p4"));
    }

    /// A full dictionary is a dictionary error, not a missing partition.
    #[test]
    fn a_full_dictionary_reports_itself() {
        let e: CoreError = ModelError::DictionaryFull.into();
        assert_eq!(e, CoreError::Model(ModelError::DictionaryFull));
        assert_eq!(
            e.to_string(),
            "dictionary: dictionary full: u32 id space exhausted"
        );
    }
}
