//! # tioga2-viewer
//!
//! The viewer runtime of Tioga-2 (paper §2, §3, §6, §7).
//!
//! A viewer translates a displayable into screen output.  For an
//! n-dimensional input it holds an (n+1)-dimensional position: pan in the
//! two screen dimensions, a slider range per remaining dimension, and an
//! **elevation** controlled by zooming.  This crate implements:
//!
//! * [`render_pass`] — lowering a composite to a render `Scene` with
//!   elevation-range culling, visible-region culling and slider
//!   filtering (the invariance rule for layers lacking a dimension,
//!   §6.1); its [`render_composite`] is the one recorded compose → draw
//!   pass behind canvases, magnifying glasses and the rear view mirror,
//! * [`Viewer`] — one canvas window with pan/zoom/slider state,
//! * [`slaving`] — §7.1: viewers constrained to move together,
//! * [`magnifier`] — §7.2: viewers within viewers,
//! * [`group`] — rendering stitched/replicated groups with per-member
//!   focus and window-operation propagation (§7.3).
//!
//! Wormhole travel and the rear view mirror (§6.2, §6.3) need several
//! canvases at once, so they live with the canvases in `tioga2-core`'s
//! `Session`; the mirror draws through [`render_composite`] like any
//! other view.

pub mod error;
pub mod group;
pub mod magnifier;
pub mod render_pass;
pub mod slaving;
pub mod viewer;
pub mod widgets;
pub mod window;

pub use error::ViewError;
pub use render_pass::{compose_scene, data_bounds, render_composite, CullOptions, Slider};
pub use viewer::{Viewer, ViewerPosition};
pub use window::window_predicate;
