//! Port types and the data flowing along edges.

use std::fmt;
use tioga2_display::{DisplayError, Displayable};
use tioga2_expr::{ScalarType, Value};

/// The type of a box input or output (paper §2: "a box input or output
/// may be a scalar value (e.g., a runtime parameter supplied by the user)
/// or a displayable").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PortType {
    /// Extended relation.
    R,
    /// Composite of relations.
    C,
    /// Group of composites.
    G,
    /// Scalar parameter.
    Scalar(ScalarType),
}

impl PortType {
    /// Does a value of type `out` flowing along an edge satisfy an input
    /// of type `self`?  Displayables coerce upward: `R = Composite(R)`
    /// and `C = Group(C)` (paper §2), so an R output may feed a C or G
    /// input.  The reverse requires an explicit selection (the lift
    /// machinery), not an edge.
    pub fn accepts(&self, out: &PortType) -> bool {
        match (self, out) {
            (PortType::R, PortType::R) => true,
            (PortType::C, PortType::R | PortType::C) => true,
            (PortType::G, PortType::R | PortType::C | PortType::G) => true,
            (PortType::Scalar(a), PortType::Scalar(b)) => {
                a == b || (*a == ScalarType::Float && *b == ScalarType::Int)
            }
            _ => false,
        }
    }

    pub fn is_displayable(&self) -> bool {
        matches!(self, PortType::R | PortType::C | PortType::G)
    }

    /// Compact notation used in persisted programs and diagrams.
    pub fn code(&self) -> String {
        match self {
            PortType::R => "R".into(),
            PortType::C => "C".into(),
            PortType::G => "G".into(),
            PortType::Scalar(t) => format!("S:{t}"),
        }
    }

    pub fn parse(s: &str) -> Option<PortType> {
        match s {
            "R" => Some(PortType::R),
            "C" => Some(PortType::C),
            "G" => Some(PortType::G),
            other => other.strip_prefix("S:").and_then(ScalarType::parse).map(PortType::Scalar),
        }
    }
}

impl fmt::Display for PortType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.code())
    }
}

/// A value flowing along an edge.
// Displayables dwarf scalars, but Data is always moved/cloned whole and
// never stored in bulk, so boxing would only add indirection.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Data {
    D(Displayable),
    Scalar(Value),
}

impl Data {
    pub fn into_displayable(self) -> Result<Displayable, DisplayError> {
        match self {
            Data::D(d) => Ok(d),
            Data::Scalar(v) => {
                Err(DisplayError::Op(format!("expected a displayable, got scalar {v}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ScalarType as T;

    #[test]
    fn displayable_subtyping() {
        assert!(PortType::R.accepts(&PortType::R));
        assert!(PortType::C.accepts(&PortType::R), "R = Composite(R)");
        assert!(PortType::G.accepts(&PortType::R));
        assert!(PortType::G.accepts(&PortType::C), "C = Group(C)");
        assert!(!PortType::R.accepts(&PortType::C), "no down-coercion on edges");
        assert!(!PortType::R.accepts(&PortType::G));
        assert!(!PortType::C.accepts(&PortType::G));
    }

    #[test]
    fn scalar_typing() {
        assert!(PortType::Scalar(T::Int).accepts(&PortType::Scalar(T::Int)));
        assert!(PortType::Scalar(T::Float).accepts(&PortType::Scalar(T::Int)), "widening");
        assert!(!PortType::Scalar(T::Int).accepts(&PortType::Scalar(T::Float)));
        assert!(!PortType::Scalar(T::Int).accepts(&PortType::R));
        assert!(!PortType::R.accepts(&PortType::Scalar(T::Int)));
    }

    #[test]
    fn code_roundtrip() {
        for t in [
            PortType::R,
            PortType::C,
            PortType::G,
            PortType::Scalar(T::Int),
            PortType::Scalar(T::DrawList),
        ] {
            assert_eq!(PortType::parse(&t.code()), Some(t));
        }
        assert_eq!(PortType::parse("X"), None);
        assert_eq!(PortType::parse("S:nope"), None);
    }
}
