//! Error type for the viewer runtime.

use std::fmt;
use tioga2_display::DisplayError;

#[derive(Debug, Clone, PartialEq)]
pub enum ViewError {
    Display(DisplayError),
    /// Slaving constraint error (dimension mismatch, unknown viewer, ...).
    Slave(String),
    /// Viewer configuration error.
    Config(String),
}

impl From<DisplayError> for ViewError {
    fn from(e: DisplayError) -> Self {
        ViewError::Display(e)
    }
}

impl From<tioga2_relational::RelError> for ViewError {
    fn from(e: tioga2_relational::RelError) -> Self {
        ViewError::Display(DisplayError::Rel(e))
    }
}

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::Display(e) => write!(f, "{e}"),
            ViewError::Slave(m) => write!(f, "slaving error: {m}"),
            ViewError::Config(m) => write!(f, "viewer error: {m}"),
        }
    }
}

impl std::error::Error for ViewError {}
