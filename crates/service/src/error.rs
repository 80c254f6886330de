//! Service-level errors.

use std::fmt;

use nrab_algebra::AlgebraError;
use whynot_core::WhyNotError;
use whynot_guard::ResourceError;

use crate::json::{Json, JsonError};

/// A structured decode failure: what was wrong, and *where* — a
/// JSON-pointer-style path (e.g. `requests/3/question/tuple`) assembled as
/// the error bubbles out of the nested decoders, so a bad field in a large
/// batch payload is locatable without guesswork.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Path segments from the payload root to the offending field.
    pub path: Vec<String>,
    /// What was wrong at that location.
    pub message: String,
}

impl DecodeError {
    /// The path in JSON-pointer style (`a/b/2/c`); empty for root errors.
    pub fn pointer(&self) -> String {
        self.path.join("/")
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "at `{}`: {}", self.pointer(), self.message)
        }
    }
}

/// Anything that can go wrong between a JSON request and a JSON response.
#[derive(Debug)]
pub enum ServiceError {
    /// Malformed JSON.
    Json(JsonError),
    /// Structurally valid JSON that does not encode the expected entity.
    Decode(DecodeError),
    /// A named database or plan is not registered in the catalog.
    UnknownCatalogEntry(String),
    /// Error from the algebra layer.
    Algebra(AlgebraError),
    /// Error from the explanation engine.
    WhyNot(WhyNotError),
    /// A resource guard tripped (deadline or budget).
    Resource(ResourceError),
    /// The request's computation panicked (isolated by `explain_batch`).
    Panic(String),
    /// Filesystem error (CLI).
    Io(std::io::Error),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Json(e) => write!(f, "invalid JSON: {e}"),
            ServiceError::Decode(e) => write!(f, "invalid request: {e}"),
            ServiceError::UnknownCatalogEntry(name) => {
                write!(f, "unknown catalog entry `{name}`")
            }
            ServiceError::Algebra(e) => write!(f, "algebra error: {e}"),
            ServiceError::WhyNot(e) => write!(f, "explanation error: {e}"),
            ServiceError::Resource(e) => write!(f, "resource limit: {e}"),
            ServiceError::Panic(message) => write!(f, "request panicked: {message}"),
            ServiceError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<JsonError> for ServiceError {
    fn from(e: JsonError) -> Self {
        ServiceError::Json(e)
    }
}

impl From<AlgebraError> for ServiceError {
    fn from(e: AlgebraError) -> Self {
        // A resource trip carried through the algebra layer is a resource
        // outcome of the request, not an algebra bug; reclassify it so the
        // wire kind is `deadline`/`trace_budget`/... rather than `algebra`.
        match e {
            AlgebraError::Resource(trip) => ServiceError::Resource(trip),
            other => ServiceError::Algebra(other),
        }
    }
}

impl From<WhyNotError> for ServiceError {
    fn from(e: WhyNotError) -> Self {
        match e {
            WhyNotError::Algebra(inner) => ServiceError::from(inner),
            other => ServiceError::WhyNot(other),
        }
    }
}

impl From<ResourceError> for ServiceError {
    fn from(e: ResourceError) -> Self {
        ServiceError::Resource(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl ServiceError {
    /// Shorthand for a decode error at the current decoding location (callers
    /// prepend path segments with [`ServiceError::at`] as it bubbles out).
    pub fn decode(message: impl Into<String>) -> Self {
        ServiceError::Decode(DecodeError { path: Vec::new(), message: message.into() })
    }

    /// Prepends a path segment to a decode error's location; any other error
    /// kind passes through unchanged. Decoders wrap recursive calls in this:
    /// `nip_from_json(v).map_err(|e| e.at("question"))`.
    pub fn at(self, segment: impl fmt::Display) -> Self {
        match self {
            ServiceError::Decode(mut e) => {
                e.path.insert(0, segment.to_string());
                ServiceError::Decode(e)
            }
            other => other,
        }
    }

    /// A stable machine-readable error kind — the `kind` field of wire error
    /// entries.
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceError::Json(_) => "json",
            ServiceError::Decode(_) => "decode",
            ServiceError::UnknownCatalogEntry(_) => "unknown_catalog_entry",
            ServiceError::Algebra(_) => "algebra",
            ServiceError::WhyNot(_) => "whynot",
            ServiceError::Resource(e) => e.kind(),
            ServiceError::Panic(_) => "panic",
            ServiceError::Io(_) => "io",
        }
    }

    /// The structured wire form of an error entry: `{"kind", "message"}`,
    /// plus `"path"` for decode errors that know where they happened.
    pub fn to_wire(&self) -> Json {
        let mut fields =
            vec![("kind", Json::str(self.kind())), ("message", Json::str(self.to_string()))];
        if let ServiceError::Decode(e) = self {
            if !e.path.is_empty() {
                fields.push(("path", Json::str(e.pointer())));
            }
        }
        Json::object(fields)
    }
}

/// Result alias for service operations.
pub type ServiceResult<T> = Result<T, ServiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_paths_assemble_outside_in() {
        let error = ServiceError::decode("expected a string")
            .at("tuple")
            .at("question")
            .at(3)
            .at("requests");
        let ServiceError::Decode(decode) = &error else { panic!("decode expected") };
        assert_eq!(decode.pointer(), "requests/3/question/tuple");
        assert_eq!(
            error.to_string(),
            "invalid request: at `requests/3/question/tuple`: expected a string"
        );
        let wire = error.to_wire();
        assert_eq!(wire.get("kind").and_then(Json::as_str), Some("decode"));
        assert_eq!(wire.get("path").and_then(Json::as_str), Some("requests/3/question/tuple"));
    }

    #[test]
    fn resource_trips_reclassify_out_of_algebra() {
        let trip = ResourceError::TraceBudgetExceeded { used: 7, budget: 5 };
        let error = ServiceError::from(AlgebraError::Resource(trip.clone()));
        assert!(matches!(&error, ServiceError::Resource(e) if *e == trip));
        assert_eq!(error.kind(), "trace_budget");
        let nested = ServiceError::from(WhyNotError::Algebra(AlgebraError::Resource(trip)));
        assert_eq!(nested.kind(), "trace_budget");
    }

    #[test]
    fn wire_form_has_kind_and_message() {
        let wire = ServiceError::Panic("injected fault".into()).to_wire();
        assert_eq!(wire.get("kind").and_then(Json::as_str), Some("panic"));
        assert!(wire.get("message").and_then(Json::as_str).unwrap().contains("injected fault"));
        assert!(wire.get("path").is_none());
    }
}
