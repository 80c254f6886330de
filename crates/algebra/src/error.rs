//! Error type for plan construction, validation, and evaluation.

use std::fmt;

use nested_data::DataError;

/// Errors raised by the algebra crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// A table referenced by a table-access operator does not exist.
    UnknownTable(String),
    /// An operator referenced an unknown operator id.
    UnknownOperator(u32),
    /// A plan node has the wrong number of inputs for its operator.
    WrongArity {
        /// The operator kind.
        operator: String,
        /// Expected number of inputs.
        expected: usize,
        /// Actual number of inputs.
        found: usize,
    },
    /// An expression or operator parameter is invalid for the input schema.
    InvalidParameter {
        /// The operator kind.
        operator: String,
        /// Description of the problem.
        message: String,
    },
    /// A reparameterization could not be applied.
    InvalidReparameterization(String),
    /// Error bubbled up from the data model.
    Data(DataError),
    /// Evaluation failed (e.g. a predicate applied to incompatible values).
    Eval(String),
    /// A resource guard tripped (deadline or budget).
    Resource(whynot_guard::ResourceError),
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            AlgebraError::UnknownOperator(id) => write!(f, "unknown operator id {id}"),
            AlgebraError::WrongArity { operator, expected, found } => {
                write!(f, "{operator} expects {expected} input(s), got {found}")
            }
            AlgebraError::InvalidParameter { operator, message } => {
                write!(f, "invalid parameter for {operator}: {message}")
            }
            AlgebraError::InvalidReparameterization(msg) => {
                write!(f, "invalid reparameterization: {msg}")
            }
            AlgebraError::Data(e) => write!(f, "{e}"),
            AlgebraError::Eval(msg) => write!(f, "evaluation error: {msg}"),
            AlgebraError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AlgebraError {}

impl From<DataError> for AlgebraError {
    fn from(e: DataError) -> Self {
        AlgebraError::Data(e)
    }
}

impl From<whynot_guard::ResourceError> for AlgebraError {
    fn from(e: whynot_guard::ResourceError) -> Self {
        AlgebraError::Resource(e)
    }
}

/// Result alias for the algebra crate.
pub type AlgebraResult<T> = Result<T, AlgebraError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            AlgebraError::UnknownTable("person".into()).to_string(),
            "unknown table `person`"
        );
        let e = AlgebraError::WrongArity { operator: "join".into(), expected: 2, found: 1 };
        assert!(e.to_string().contains("expects 2"));
        let data: AlgebraError = DataError::Invalid("x".into()).into();
        assert_eq!(data.to_string(), "x");
    }
}
