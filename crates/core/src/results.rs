//! Decoding query results back to terms.

use crate::processor::QueryOutcome;
use kgdual_model::{Dictionary, PredId, Term};
use kgdual_sparql::Var;
use std::fmt;

/// A decoded result set: variable names and term rows.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    /// Projected variables (column headers).
    pub vars: Vec<Var>,
    /// One row of terms per result.
    pub rows: Vec<Vec<Term>>,
}

impl ResultSet {
    /// Decode an outcome's bindings against the dictionary. Columns bound
    /// to predicate variables decode through the predicate dictionary.
    pub fn decode(outcome: &QueryOutcome, dict: &Dictionary) -> ResultSet {
        let is_pred_col: Vec<bool> = outcome
            .vars
            .iter()
            .map(|v| outcome.pred_vars.contains(v))
            .collect();
        let rows = outcome
            .results
            .rows()
            .map(|row| {
                row.iter()
                    .zip(&is_pred_col)
                    .map(|(&id, &is_pred)| {
                        if is_pred {
                            dict.pred(PredId(id.0))
                                .map(Term::iri)
                                .unwrap_or_else(|_| Term::iri(format!("?:p{}", id.0)))
                        } else {
                            dict.node(id)
                                .cloned()
                                .unwrap_or_else(|_| Term::iri(format!("?:n{}", id.0)))
                        }
                    })
                    .collect()
            })
            .collect();
        ResultSet {
            vars: outcome.vars.clone(),
            rows,
        }
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, "\t")?;
            }
            write!(f, "{v}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (i, t) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, "\t")?;
                }
                write!(f, "{t}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::DualStore;
    use crate::processor::{process, Options};
    use kgdual_model::DatasetBuilder;
    use kgdual_sparql::parse;

    #[test]
    fn decode_produces_terms() {
        let mut b = DatasetBuilder::new();
        b.add_terms(&Term::iri("y:Einstein"), "y:wasBornIn", &Term::iri("y:Ulm"));
        let d = DualStore::from_dataset(b.build(), 10);
        let q = parse("SELECT ?p ?c WHERE { ?p y:wasBornIn ?c }").unwrap();
        let out = process(&d, &q, Options::default()).unwrap();
        let rs = ResultSet::decode(&out, d.dict());
        assert_eq!(rs.len(), 1);
        assert_eq!(
            rs.rows[0],
            vec![Term::iri("y:Einstein"), Term::iri("y:Ulm")]
        );
        let rendered = rs.to_string();
        assert!(rendered.contains("?p\t?c"));
        assert!(rendered.contains("y:Einstein\ty:Ulm"));
    }

    #[test]
    fn decode_predicate_variables() {
        let mut b = DatasetBuilder::new();
        b.add_terms(&Term::iri("y:A"), "y:knows", &Term::iri("y:B"));
        let d = DualStore::from_dataset(b.build(), 10);
        let q = parse("SELECT ?rel WHERE { y:A ?rel y:B }").unwrap();
        let out = process(&d, &q, Options::default()).unwrap();
        let rs = ResultSet::decode(&out, d.dict());
        assert_eq!(rs.rows[0][0], Term::iri("y:knows"));
    }
}
