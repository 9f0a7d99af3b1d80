//! Box kinds: the primitive procedures of Tioga-2 programs.
//!
//! Relation-level operations (`RelOpKind`) are *shape-polymorphic*: the
//! paper's operator overloading (§2) lets a Restrict apply to a composite
//! or group input, with the user's point-and-click component selection
//! recorded in the box.  The node's port types are fixed to the shape at
//! insertion time, so edge type checking stays exact.

use crate::encapsulate::EncapsulatedDef;
use crate::error::FlowError;
use crate::port::PortType;
use std::sync::Arc;
use tioga2_display::attr_ops::AttrRole;
use tioga2_display::compose::PartitionSpec;
use tioga2_display::{Layout, Selection};
use tioga2_expr::{Expr, ScalarType};

/// A relation-level operation (`R -> R` in Figure 3 / Figure 5 / Figure 6
/// terms), applicable to C and G shapes through a selection.
#[derive(Debug, Clone, PartialEq)]
pub enum RelOpKind {
    /// Figure 3 **Restrict**: filter to tuples satisfying the predicate.
    Restrict(Expr),
    /// Figure 3 **Project**: keep the named stored fields.
    Project(Vec<String>),
    /// Figure 3 **Sample**: keep tuples with probability `p` (seeded).
    Sample { p: f64, seed: u64 },
    /// Sort by attributes (asc flag per key).
    Sort(Vec<(String, bool)>),
    /// GROUP BY + aggregate columns (big-programmer query surface).
    Aggregate { keys: Vec<String>, aggs: Vec<tioga2_relational::AggSpec> },
    /// DISTINCT on the given attributes (all stored fields if empty).
    Distinct(Vec<String>),
    /// LIMIT/OFFSET in current tuple order.
    Limit { offset: usize, count: usize },
    /// Rename a stored field (method references are rewritten).
    Rename { from: String, to: String },
    /// Figure 5 **Add Attribute**.
    AddAttribute { name: String, ty: ScalarType, def: Expr, role: AttrRole },
    /// Figure 5 **Remove Attribute**.
    RemoveAttribute(String),
    /// Figure 5 **Set Attribute**.
    SetAttribute { name: String, ty: ScalarType, def: Expr },
    /// Figure 5 **Swap Attributes**.
    SwapAttributes(String, String),
    /// Figure 5 **Scale Attribute**.
    ScaleAttribute(String, f64),
    /// Figure 5 **Translate Attribute**.
    TranslateAttribute(String, f64),
    /// Figure 5 **Combine Displays**.
    CombineDisplays { first: String, second: String, dx: f64, dy: f64, new_name: String },
    /// Make an alternative display the active one.
    SetActiveDisplay(String),
    /// Figure 6 **Set Range**: elevation range of the layer.
    SetRange { min: f64, max: f64 },
    /// Rename the layer (shown in elevation maps).
    SetLayerName(String),
}

impl RelOpKind {
    /// Menu name of the operation.
    pub fn name(&self) -> &'static str {
        match self {
            RelOpKind::Restrict(_) => "Restrict",
            RelOpKind::Project(_) => "Project",
            RelOpKind::Sample { .. } => "Sample",
            RelOpKind::Sort(_) => "Sort",
            RelOpKind::Aggregate { .. } => "Aggregate",
            RelOpKind::Distinct(_) => "Distinct",
            RelOpKind::Limit { .. } => "Limit",
            RelOpKind::Rename { .. } => "Rename",
            RelOpKind::AddAttribute { .. } => "Add Attribute",
            RelOpKind::RemoveAttribute(_) => "Remove Attribute",
            RelOpKind::SetAttribute { .. } => "Set Attribute",
            RelOpKind::SwapAttributes(_, _) => "Swap Attributes",
            RelOpKind::ScaleAttribute(_, _) => "Scale Attribute",
            RelOpKind::TranslateAttribute(_, _) => "Translate Attribute",
            RelOpKind::CombineDisplays { .. } => "Combine Displays",
            RelOpKind::SetActiveDisplay(_) => "Set Active Display",
            RelOpKind::SetRange { .. } => "Set Range",
            RelOpKind::SetLayerName(_) => "Set Layer Name",
        }
    }
}

/// A composite-level operation (`C -> C`), applicable to G through a
/// member selection.
#[derive(Debug, Clone, PartialEq)]
pub enum CompOpKind {
    /// Figure 6 **Shuffle**: move a layer to the top of the drawing order.
    Shuffle(usize),
    /// Elevation-map reordering (generalizes Shuffle).
    Reorder { from: usize, to: usize },
}

impl CompOpKind {
    pub fn name(&self) -> &'static str {
        match self {
            CompOpKind::Shuffle(_) => "Shuffle",
            CompOpKind::Reorder { .. } => "Reorder",
        }
    }
}

/// A big-programmer box: an opaque function registered with the system
/// (paper §1.2 principle 5 — the big programmer / little programmer
/// model is retained).
pub struct CustomBox {
    pub name: String,
    pub in_types: Vec<PortType>,
    pub out_types: Vec<PortType>,
    #[allow(clippy::type_complexity)]
    pub f: Box<
        dyn Fn(&[crate::port::Data]) -> Result<Vec<crate::port::Data>, FlowError> + Send + Sync,
    >,
}

impl std::fmt::Debug for CustomBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CustomBox")
            .field("name", &self.name)
            .field("in_types", &self.in_types)
            .field("out_types", &self.out_types)
            .finish_non_exhaustive()
    }
}

impl PartialEq for CustomBox {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.in_types == other.in_types
            && self.out_types == other.out_types
    }
}

/// The kind (and parameters) of one box.
#[derive(Debug, Clone, PartialEq)]
pub enum BoxKind {
    /// Figure 3 **Add Table**: "for every relation known to the Tioga-2
    /// system there is a box of the same name that takes no inputs and
    /// produces as output the tuples of the relation."
    Table(String),
    /// Figure 3 **Join** (theta join; predicate over the combined naming).
    Join(Expr),
    /// A shape-polymorphic relation-level op at a component selection.
    RelOp { op: RelOpKind, shape: PortType, sel: Selection },
    /// A shape-polymorphic composite-level op.
    CompOp { op: CompOpKind, shape: PortType, sel: Selection },
    /// Figure 6 **Overlay** of two composites.  `invariant` records the
    /// user's answer to the dimension-mismatch warning.
    Overlay { offset: Vec<f64>, invariant: bool },
    /// §7.3 **Stitch** of `arity` composites into a group.
    Stitch { arity: usize, layout: Layout },
    /// §7.4 **Replicate** at a component selection.
    Replicate {
        horizontal: PartitionSpec,
        vertical: Option<PartitionSpec>,
        shape: PortType,
        sel: Selection,
    },
    /// Control-flow routing via multiple outputs: tuples satisfying the
    /// predicate exit output 0, the rest exit output 1.
    Switch(Expr),
    /// A scalar constant source — "a runtime parameter supplied by the
    /// user" (§2).  Editing its value in place re-fires only the cone
    /// that consumes it.
    Const(tioga2_expr::Value),
    /// Restrict with named scalar parameters: input 0 is the displayable,
    /// inputs 1.. are scalars bound to `params[i].0` inside the
    /// predicate.
    ParamRestrict { pred: Expr, params: Vec<(String, ScalarType)>, shape: PortType, sel: Selection },
    /// Figure 2 **T**: "passes its input unchanged to both outputs".
    Tee(PortType),
    /// A viewer attached to an edge; passes its input through so viewers
    /// can be installed "on any arc in a diagram" (§10).  `canvas` names
    /// the canvas window that renders this box's input.
    Viewer { canvas: String, ty: PortType },
    /// Input binding inside an encapsulated definition.
    Param { idx: usize, ty: PortType },
    /// A hole inside an encapsulated definition (§4.1): unbound until the
    /// encapsulated box is instantiated with a plug.
    Hole { idx: usize, in_types: Vec<PortType>, out_types: Vec<PortType> },
    /// An instantiated encapsulated box with one plug kind per hole.
    Encapsulated { def: Arc<EncapsulatedDef>, plugs: Vec<BoxKind> },
    /// A registered big-programmer function.
    Custom(Arc<CustomBox>),
}

impl BoxKind {
    /// Input and output port types.
    pub fn signature(&self) -> (Vec<PortType>, Vec<PortType>) {
        match self {
            BoxKind::Table(_) => (vec![], vec![PortType::R]),
            BoxKind::Join(_) => (vec![PortType::R, PortType::R], vec![PortType::R]),
            BoxKind::RelOp { shape, .. } => (vec![shape.clone()], vec![shape.clone()]),
            BoxKind::CompOp { shape, .. } => (vec![shape.clone()], vec![shape.clone()]),
            BoxKind::Overlay { .. } => (vec![PortType::C, PortType::C], vec![PortType::C]),
            BoxKind::Stitch { arity, .. } => {
                (vec![PortType::C; (*arity).max(1)], vec![PortType::G])
            }
            BoxKind::Replicate { shape, .. } => (vec![shape.clone()], vec![PortType::G]),
            BoxKind::Switch(_) => (vec![PortType::R], vec![PortType::R, PortType::R]),
            BoxKind::Const(v) => (
                vec![],
                vec![PortType::Scalar(v.scalar_type().unwrap_or(tioga2_expr::ScalarType::Text))],
            ),
            BoxKind::ParamRestrict { params, shape, .. } => {
                let mut ins = vec![shape.clone()];
                ins.extend(params.iter().map(|(_, t)| PortType::Scalar(t.clone())));
                (ins, vec![shape.clone()])
            }
            BoxKind::Tee(t) => (vec![t.clone()], vec![t.clone(), t.clone()]),
            BoxKind::Viewer { ty, .. } => (vec![ty.clone()], vec![ty.clone()]),
            BoxKind::Param { ty, .. } => (vec![], vec![ty.clone()]),
            BoxKind::Hole { in_types, out_types, .. } => (in_types.clone(), out_types.clone()),
            BoxKind::Encapsulated { def, .. } => (def.in_types.clone(), def.out_types.clone()),
            BoxKind::Custom(c) => (c.in_types.clone(), c.out_types.clone()),
        }
    }

    /// Display name for diagrams and menus.
    pub fn name(&self) -> String {
        match self {
            BoxKind::Table(t) => t.clone(),
            BoxKind::Join(_) => "Join".into(),
            BoxKind::RelOp { op, .. } => op.name().into(),
            BoxKind::CompOp { op, .. } => op.name().into(),
            BoxKind::Overlay { .. } => "Overlay".into(),
            BoxKind::Stitch { .. } => "Stitch".into(),
            BoxKind::Replicate { .. } => "Replicate".into(),
            BoxKind::Switch(_) => "Switch".into(),
            BoxKind::Const(v) => format!("Const({})", v.display_text()),
            BoxKind::ParamRestrict { .. } => "Restrict(params)".into(),
            BoxKind::Tee(_) => "T".into(),
            BoxKind::Viewer { canvas, .. } => format!("Viewer[{canvas}]"),
            BoxKind::Param { idx, .. } => format!("Param{idx}"),
            BoxKind::Hole { idx, .. } => format!("Hole{idx}"),
            BoxKind::Encapsulated { def, .. } => def.name.clone(),
            BoxKind::Custom(c) => c.name.clone(),
        }
    }

    /// Convenience constructor for the common R-shaped relation op.
    pub fn rel(op: RelOpKind) -> BoxKind {
        BoxKind::RelOp { op, shape: PortType::R, sel: Selection::default() }
    }
}

/// A named, instantiable box template — the "menu of all boxes available"
/// (§3).  Templates with `None` kinds are parameterized primitives that
/// prompt for arguments; concrete templates (encapsulated, custom) carry
/// a kind.
#[derive(Debug, Clone)]
pub struct BoxTemplate {
    pub name: String,
    pub in_types: Vec<PortType>,
    pub out_types: Vec<PortType>,
    pub kind: Option<BoxKind>,
}

/// Registry of instantiable boxes: primitives, encapsulated definitions,
/// and big-programmer custom boxes.
#[derive(Debug, Clone, Default)]
pub struct BoxRegistry {
    templates: Vec<BoxTemplate>,
}

impl BoxRegistry {
    /// A registry pre-populated with the parameterized primitives.
    pub fn with_primitives() -> Self {
        let r2r = (vec![PortType::R], vec![PortType::R]);
        let mut reg = BoxRegistry::default();
        for name in [
            "Restrict",
            "Project",
            "Sample",
            "Sort",
            "Aggregate",
            "Distinct",
            "Limit",
            "Rename",
            "Add Attribute",
            "Remove Attribute",
            "Set Attribute",
            "Swap Attributes",
            "Scale Attribute",
            "Translate Attribute",
            "Combine Displays",
            "Set Active Display",
            "Set Range",
            "Set Layer Name",
        ] {
            reg.templates.push(BoxTemplate {
                name: name.into(),
                in_types: r2r.0.clone(),
                out_types: r2r.1.clone(),
                kind: None,
            });
        }
        reg.templates.push(BoxTemplate {
            name: "Join".into(),
            in_types: vec![PortType::R, PortType::R],
            out_types: vec![PortType::R],
            kind: None,
        });
        reg.templates.push(BoxTemplate {
            name: "Overlay".into(),
            in_types: vec![PortType::C, PortType::C],
            out_types: vec![PortType::C],
            kind: None,
        });
        reg.templates.push(BoxTemplate {
            name: "Shuffle".into(),
            in_types: vec![PortType::C],
            out_types: vec![PortType::C],
            kind: None,
        });
        reg.templates.push(BoxTemplate {
            name: "Stitch".into(),
            in_types: vec![PortType::C, PortType::C],
            out_types: vec![PortType::G],
            kind: None,
        });
        reg.templates.push(BoxTemplate {
            name: "Replicate".into(),
            in_types: vec![PortType::R],
            out_types: vec![PortType::G],
            kind: None,
        });
        reg.templates.push(BoxTemplate {
            name: "Switch".into(),
            in_types: vec![PortType::R],
            out_types: vec![PortType::R, PortType::R],
            kind: None,
        });
        reg
    }

    pub fn register(&mut self, template: BoxTemplate) {
        self.templates.retain(|t| t.name != template.name);
        self.templates.push(template);
    }

    /// Register an encapsulated definition as an instantiable box.
    pub fn register_encapsulated(&mut self, def: Arc<EncapsulatedDef>) {
        // Holes must be plugged at instantiation; the template advertises
        // the box's own signature.
        self.register(BoxTemplate {
            name: def.name.clone(),
            in_types: def.in_types.clone(),
            out_types: def.out_types.clone(),
            kind: if def.holes.is_empty() {
                Some(BoxKind::Encapsulated { def: def.clone(), plugs: vec![] })
            } else {
                None
            },
        });
    }

    pub fn register_custom(&mut self, custom: Arc<CustomBox>) {
        self.register(BoxTemplate {
            name: custom.name.clone(),
            in_types: custom.in_types.clone(),
            out_types: custom.out_types.clone(),
            kind: Some(BoxKind::Custom(custom.clone())),
        });
    }

    pub fn templates(&self) -> &[BoxTemplate] {
        &self.templates
    }

    pub fn get(&self, name: &str) -> Option<&BoxTemplate> {
        self.templates.iter().find(|t| t.name == name)
    }

    /// **Apply Box** matching (§4.1): "a menu of all boxes whose inputs
    /// match the types of the selected edges."
    pub fn matching(&self, edge_types: &[PortType]) -> Vec<&BoxTemplate> {
        self.templates
            .iter()
            .filter(|t| {
                t.in_types.len() == edge_types.len()
                    && t.in_types.iter().zip(edge_types).all(|(need, have)| need.accepts(have))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tioga2_expr::parse;

    #[test]
    fn signatures() {
        assert_eq!(BoxKind::Table("Stations".into()).signature(), (vec![], vec![PortType::R]));
        let restrict = BoxKind::rel(RelOpKind::Restrict(parse("a = 1").unwrap()));
        assert_eq!(restrict.signature(), (vec![PortType::R], vec![PortType::R]));
        let switch = BoxKind::Switch(parse("a = 1").unwrap());
        assert_eq!(switch.signature().1.len(), 2, "multiple outputs");
        let stitch = BoxKind::Stitch { arity: 3, layout: Layout::Horizontal };
        assert_eq!(stitch.signature().0.len(), 3);
        let tee = BoxKind::Tee(PortType::C);
        assert_eq!(tee.signature(), (vec![PortType::C], vec![PortType::C, PortType::C]));
    }

    #[test]
    fn shape_polymorphic_relop() {
        let op = RelOpKind::Restrict(parse("a = 1").unwrap());
        let on_group = BoxKind::RelOp { op, shape: PortType::G, sel: Selection::at(0, 1) };
        assert_eq!(on_group.signature(), (vec![PortType::G], vec![PortType::G]));
    }

    #[test]
    fn registry_matching_by_edge_types() {
        let reg = BoxRegistry::with_primitives();
        let r_matches = reg.matching(&[PortType::R]);
        assert!(r_matches.iter().any(|t| t.name == "Restrict"));
        assert!(r_matches.iter().any(|t| t.name == "Shuffle"), "R coerces to C");
        assert!(!r_matches.iter().any(|t| t.name == "Join"), "Join wants two edges");
        let rr = reg.matching(&[PortType::R, PortType::R]);
        assert!(rr.iter().any(|t| t.name == "Join"));
        assert!(rr.iter().any(|t| t.name == "Stitch"));
        let g = reg.matching(&[PortType::G]);
        assert!(!g.iter().any(|t| t.name == "Shuffle"), "G does not coerce down to C");
    }

    #[test]
    fn registry_register_replaces_by_name() {
        let mut reg = BoxRegistry::default();
        reg.register(BoxTemplate {
            name: "X".into(),
            in_types: vec![],
            out_types: vec![PortType::R],
            kind: Some(BoxKind::Table("t".into())),
        });
        reg.register(BoxTemplate {
            name: "X".into(),
            in_types: vec![],
            out_types: vec![PortType::R],
            kind: Some(BoxKind::Table("u".into())),
        });
        assert_eq!(reg.templates().len(), 1);
        assert_eq!(reg.get("X").unwrap().kind, Some(BoxKind::Table("u".into())));
    }

    #[test]
    fn custom_box_registration() {
        let mut reg = BoxRegistry::default();
        let custom = Arc::new(CustomBox {
            name: "Identity".into(),
            in_types: vec![PortType::R],
            out_types: vec![PortType::R],
            f: Box::new(|ins| Ok(ins.to_vec())),
        });
        reg.register_custom(custom);
        assert!(reg.get("Identity").is_some());
        assert_eq!(reg.matching(&[PortType::R]).len(), 1);
    }

    #[test]
    fn box_names() {
        assert_eq!(BoxKind::Table("Stations".into()).name(), "Stations");
        assert_eq!(BoxKind::Tee(PortType::R).name(), "T");
        assert_eq!(
            BoxKind::Viewer { canvas: "main".into(), ty: PortType::R }.name(),
            "Viewer[main]"
        );
    }
}
