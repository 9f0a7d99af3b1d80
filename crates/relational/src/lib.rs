//! # tioga2-relational
//!
//! The object-relational substrate Tioga-2 runs on.  The paper assumes
//! POSTGRES: "a relation has stored attributes as well as methods defining
//! additional attributes" (§2).  This crate supplies exactly the surface
//! Tioga-2 needs from its DBMS:
//!
//! * typed [`Schema`]s, [`Tuple`]s and [`Relation`]s,
//! * **computed attributes** ([`Method`]s) defined by expressions from
//!   `tioga2-expr`, evaluated lazily per tuple — this is how location and
//!   display attributes exist without ever being stored (§5.1: "display
//!   and location attributes ... are computed attributes and are not
//!   stored in the database"),
//! * the database operators of paper Figure 3 — [`ops::restrict`],
//!   [`ops::project`], [`ops::sample`], [`ops::join`] — plus sorting,
//! * a [`Catalog`] of named, shared, updatable tables, and
//! * tuple-level [`update`] machinery used by paper §8.

pub mod aggregate;
pub mod catalog;
pub mod delta;
pub mod error;
pub mod fault;
pub mod govern;
pub mod grid;
pub mod ops;
pub mod par;
pub mod persist;
pub mod relation;
pub mod schema;
pub mod stream;
pub mod tuple;
pub mod update;

pub use aggregate::{aggregate, distinct, limit, rename, AggFunc, AggSpec};
pub use catalog::Catalog;
pub use delta::{Delta, RowChange};
pub use error::RelError;
pub use fault::{FaultAction, FaultPlan, FaultSpec};
pub use govern::{Budget, BudgetMeter, CancelToken, GOVERN_CHECK_PERIOD};
pub use grid::GridIndex;
pub use relation::{Method, Relation, WindowProbe};
pub use schema::{Field, Schema};
pub use stream::{OpCell, ParPipeline, TupleStream};
pub use tuple::{Tuple, TupleContext};

/// The pseudo-attribute holding the 0-based tuple sequence number.
/// Paper §5.2 uses it for the default layout ("the y-location is the
/// sequence number of the tuple").
pub const SEQ_ATTR: &str = "__seq";
