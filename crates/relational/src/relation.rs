//! Relations with stored and computed attributes.

use crate::error::RelError;
use crate::grid::GridIndex;
use crate::schema::{Field, Schema};
use crate::tuple::{Tuple, TupleContext};
use crate::SEQ_ATTR;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::ops::Deref;
use std::sync::Arc;
use tioga2_expr::{eval, typecheck, Expr, ScalarType, TypeEnv, Value};

/// A relation's tuple storage together with the grid indexes built over
/// it.  The indexes live and die with the tuples they describe: clones of
/// a relation share both through one `Arc`, the two mutation funnels
/// ([`Relation::tuples_mut`], [`Relation::push_row`]) drop them, and a
/// copy-on-write clone of the store starts without any.
#[derive(Default)]
pub(crate) struct Store {
    tuples: Vec<Tuple>,
    grids: Mutex<Vec<Arc<GridIndex>>>,
}

impl Store {
    fn new(tuples: Vec<Tuple>) -> Store {
        Store { tuples, grids: Mutex::new(Vec::new()) }
    }
}

impl Clone for Store {
    fn clone(&self) -> Store {
        Store::new(self.tuples.clone())
    }
}

impl PartialEq for Store {
    fn eq(&self, other: &Store) -> bool {
        self.tuples == other.tuples
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.tuples.fmt(f)
    }
}

impl Deref for Store {
    type Target = Vec<Tuple>;

    fn deref(&self) -> &Vec<Tuple> {
        &self.tuples
    }
}

/// What [`Relation::window_candidates`] found.
#[derive(Debug)]
pub struct WindowProbe {
    /// Candidate positions in ascending order, or `None` when more than
    /// the probe's limit of rows would be candidates.
    pub rows: Option<Vec<u32>>,
    /// True when this probe built the grid.
    pub built: bool,
}

/// A computed ("method") attribute: a name, a declared type, and a
/// defining expression over the relation's other attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Method {
    pub name: String,
    pub ty: ScalarType,
    pub def: Expr,
}

/// An in-memory relation: stored tuples plus computed-attribute methods.
///
/// A `Relation` is a *value*: relational operators produce new relations,
/// sharing tuples via `Arc`.  Mutation happens only on base tables through
/// the [`crate::Catalog`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Relation {
    schema: Schema,
    methods: Vec<Method>,
    /// Tuple storage is shared copy-on-write: cloning a relation (every
    /// functional operator and the engine's memo cache do this) is O(1);
    /// the first mutation of a shared store pays one copy.
    tuples: Arc<Store>,
    /// Name of the catalog base table this relation's tuples come from,
    /// if the lineage is update-traceable (None after joins).
    source: Option<String>,
    /// Next row id for appends (meaningful on base tables only).
    next_row_id: u64,
}

impl Relation {
    /// Create an empty relation with the given stored schema.
    pub fn new(schema: Schema) -> Self {
        Relation { schema, ..Default::default() }
    }

    /// Internal constructor used by operators: same provenance rules as
    /// the operator's semantics dictate.
    pub(crate) fn from_parts(
        schema: Schema,
        methods: Vec<Method>,
        tuples: Vec<Tuple>,
        source: Option<String>,
    ) -> Self {
        let next_row_id = tuples.iter().map(|t| t.row_id + 1).max().unwrap_or(0);
        Relation { schema, methods, tuples: Arc::new(Store::new(tuples)), source, next_row_id }
    }

    /// Internal constructor that adopts an already-shared tuple store
    /// without copying it — the zero-cost path for operators that change
    /// only schema-level state (rename) or keep everything (identity
    /// stream collects).
    pub(crate) fn from_shared(
        schema: Schema,
        methods: Vec<Method>,
        tuples: Arc<Store>,
        source: Option<String>,
    ) -> Self {
        let next_row_id = tuples.iter().map(|t| t.row_id + 1).max().unwrap_or(0);
        Relation { schema, methods, tuples, source, next_row_id }
    }

    /// The shared tuple store itself (O(1) clone).
    pub(crate) fn tuples_arc(&self) -> Arc<Store> {
        Arc::clone(&self.tuples)
    }

    /// Identity of the shared tuple allocation.  Two relations with the
    /// same storage id share one in-memory tuple store (clones, catalog
    /// forks, and memoized results all alias until a copy-on-write
    /// mutation diverges them).
    pub fn storage_id(&self) -> usize {
        Arc::as_ptr(&self.tuples) as *const () as usize
    }

    /// Number of live references to the shared tuple allocation
    /// (`Arc::strong_count`) — the multi-session memory proof: N forked
    /// sessions hosting the same unmodified base table report N+1 here
    /// while occupying a single allocation.
    pub fn storage_refs(&self) -> usize {
        Arc::strong_count(&self.tuples)
    }

    /// A relation with this one's schema, methods and provenance but the
    /// given tuples.  Used by the plan executor to install streamed
    /// results under a schema-replayed header.
    pub fn with_tuples(&self, tuples: Vec<Tuple>) -> Relation {
        Relation::from_parts(self.schema.clone(), self.methods.clone(), tuples, self.source.clone())
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    pub(crate) fn set_source(&mut self, source: Option<String>) {
        self.source = source;
    }

    /// Mutable access to the tuple store.  Exposed for the update
    /// machinery and big-programmer custom boxes; ordinary operators never
    /// mutate relations in place.  If the store is shared (snapshots,
    /// memoized engine results), this clones it first (copy-on-write).
    pub fn tuples_mut(&mut self) -> &mut Vec<Tuple> {
        let store = Arc::make_mut(&mut self.tuples);
        store.grids.get_mut().clear();
        &mut store.tuples
    }

    /// Append a row of stored values, assigning it a fresh `row_id`.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<u64, RelError> {
        if values.len() != self.schema.len() {
            return Err(RelError::Schema(format!(
                "arity mismatch: {} values for {} fields",
                values.len(),
                self.schema.len()
            )));
        }
        for (v, f) in values.iter().zip(self.schema.fields()) {
            if !v.conforms_to(&f.ty) {
                return Err(RelError::Schema(format!(
                    "value {v} does not conform to field '{}' of type {}",
                    f.name, f.ty
                )));
            }
        }
        let id = self.next_row_id;
        self.next_row_id += 1;
        self.tuples_mut().push(Tuple::new(id, values));
        Ok(id)
    }

    /// The grid index over stored columns `a` × `b`, built on first use
    /// and shared by every relation aliasing this tuple store.  `None`
    /// unless both are distinct stored `Float` fields and there are at
    /// most `u32::MAX` rows.
    pub fn grid_index(&self, a: &str, b: &str) -> Option<Arc<GridIndex>> {
        self.grid(self.grid_cols(a, b)?, || false).map(|(g, _)| g)
    }

    /// The positions of the rows whose columns `a` × `b` may lie in
    /// `ranges` — a superset, from this store's grid index — or `rows:
    /// None` once more than `limit` would be returned; `None` on the
    /// same terms as [`Relation::grid_index`].  Until the grid exists, a
    /// window that a sample of the rows says exceeds `limit` is declined
    /// without building it, so a window covering most rows never pays
    /// for an index it would not use.
    pub fn window_candidates(
        &self,
        a: &str,
        b: &str,
        ranges: [(f64, f64); 2],
        limit: usize,
    ) -> Option<WindowProbe> {
        let cols = self.grid_cols(a, b)?;
        let wide = || GridIndex::estimate(&self.tuples, cols, ranges) > limit as f64;
        let Some((g, built)) = self.grid(cols, wide) else {
            return Some(WindowProbe { rows: None, built: false });
        };
        Some(WindowProbe { rows: g.candidates(ranges, limit), built })
    }

    /// The positions of `a` and `b` if a grid can index them.
    fn grid_cols(&self, a: &str, b: &str) -> Option<[usize; 2]> {
        u32::try_from(self.tuples.len()).ok()?;
        let col = |name: &str| {
            let i = self.schema.index_of(name)?;
            (self.schema.fields()[i].ty == ScalarType::Float).then_some(i)
        };
        let cols = [col(a)?, col(b)?];
        (cols[0] != cols[1]).then_some(cols)
    }

    /// This store's grid over `cols`, built now unless `decline` says
    /// not to (then `None`); the flag is true when this call built it.
    fn grid(
        &self,
        cols: [usize; 2],
        decline: impl FnOnce() -> bool,
    ) -> Option<(Arc<GridIndex>, bool)> {
        let mut grids = self.tuples.grids.lock();
        if let Some(g) = grids.iter().find(|g| g.cols() == cols) {
            return Some((Arc::clone(g), false));
        }
        if decline() {
            return None;
        }
        let g = Arc::new(GridIndex::build(&self.tuples, cols));
        grids.push(Arc::clone(&g));
        Some((g, true))
    }

    /// The type environment seen by expressions over this relation:
    /// stored fields, computed attributes, and the `__seq` pseudo-column.
    pub fn type_env(&self) -> TypeEnv {
        let mut env = TypeEnv::new();
        for f in self.schema.fields() {
            env.insert(f.name.clone(), f.ty.clone());
        }
        for m in &self.methods {
            env.insert(m.name.clone(), m.ty.clone());
        }
        env.insert(SEQ_ATTR.to_string(), ScalarType::Int);
        env
    }

    /// Does `name` resolve to a stored field or method?
    pub fn has_attr(&self, name: &str) -> bool {
        name == SEQ_ATTR || self.schema.index_of(name).is_some() || self.method(name).is_some()
    }

    /// The declared type of attribute `name`.
    pub fn attr_type(&self, name: &str) -> Option<ScalarType> {
        if name == SEQ_ATTR {
            return Some(ScalarType::Int);
        }
        if let Some(f) = self.schema.field(name) {
            return Some(f.ty.clone());
        }
        self.method(name).map(|m| m.ty.clone())
    }

    /// All attribute names: stored fields then methods, in order.
    pub fn attr_names(&self) -> Vec<String> {
        self.schema
            .names()
            .map(str::to_string)
            .chain(self.methods.iter().map(|m| m.name.clone()))
            .collect()
    }

    pub fn method(&self, name: &str) -> Option<&Method> {
        self.methods.iter().find(|m| m.name == name)
    }

    fn method_index(&self, name: &str) -> Option<usize> {
        self.methods.iter().position(|m| m.name == name)
    }

    /// Define a computed attribute (paper Figure 5, **Add Attribute**).
    ///
    /// The definition is type-checked against the current attributes and
    /// must not create a dependency cycle among methods.  The declared
    /// type must match the inferred type (with Int→Float widening).
    pub fn add_method(
        &mut self,
        name: impl Into<String>,
        ty: ScalarType,
        def: Expr,
    ) -> Result<(), RelError> {
        let name = name.into();
        if name == SEQ_ATTR || name.starts_with("__") {
            return Err(RelError::Schema(format!("attribute name '{name}' is reserved")));
        }
        if self.has_attr(&name) {
            return Err(RelError::Schema(format!("attribute '{name}' already exists")));
        }
        self.check_method_def(&name, &ty, &def)?;
        self.methods.push(Method { name, ty, def });
        Ok(())
    }

    /// Change the type and definition of an existing computed attribute
    /// (paper Figure 5, **Set Attribute**).
    pub fn set_method(&mut self, name: &str, ty: ScalarType, def: Expr) -> Result<(), RelError> {
        let idx =
            self.method_index(name).ok_or_else(|| RelError::UnknownAttribute(name.to_string()))?;
        // Validate against a view of the relation without this method, so
        // self-reference is caught, then check no *other* method cycles in.
        let mut probe = self.clone();
        probe.methods.remove(idx);
        probe.check_method_def(name, &ty, &def)?;
        self.methods[idx] = Method { name: name.to_string(), ty, def };
        self.check_all_cycles()
    }

    /// Remove a computed attribute.  Fails if another method references it.
    pub fn remove_method(&mut self, name: &str) -> Result<(), RelError> {
        let idx =
            self.method_index(name).ok_or_else(|| RelError::UnknownAttribute(name.to_string()))?;
        if let Some(user) = self
            .methods
            .iter()
            .find(|m| m.name != name && m.def.referenced_attrs().iter().any(|a| a == name))
        {
            return Err(RelError::Schema(format!(
                "cannot remove '{name}': referenced by '{}'",
                user.name
            )));
        }
        self.methods.remove(idx);
        Ok(())
    }

    fn check_method_def(&self, name: &str, ty: &ScalarType, def: &Expr) -> Result<(), RelError> {
        // Every referenced attribute must already exist (no forward refs,
        // which also rules out cycles for add_method).
        for a in def.referenced_attrs() {
            if a != name && !self.has_attr(&a) {
                return Err(RelError::UnknownAttribute(a));
            }
            if a == name {
                return Err(RelError::Schema(format!("attribute '{name}' references itself")));
            }
        }
        let env = self.type_env();
        let inferred = typecheck(def, &env)?;
        let ok = inferred == *ty
            || (inferred == ScalarType::Int && *ty == ScalarType::Float)
            || (inferred == ScalarType::Drawable && *ty == ScalarType::DrawList);
        if !ok {
            return Err(RelError::Schema(format!(
                "attribute '{name}' declared {ty} but defined as {inferred}"
            )));
        }
        Ok(())
    }

    fn check_all_cycles(&self) -> Result<(), RelError> {
        // DFS over method→method references.
        fn visit(
            rel: &Relation,
            name: &str,
            visiting: &mut HashSet<String>,
            done: &mut HashSet<String>,
        ) -> Result<(), RelError> {
            if done.contains(name) {
                return Ok(());
            }
            if !visiting.insert(name.to_string()) {
                return Err(RelError::Schema(format!(
                    "cyclic computed-attribute definition involving '{name}'"
                )));
            }
            if let Some(m) = rel.method(name) {
                for dep in m.def.referenced_attrs() {
                    if rel.method(&dep).is_some() {
                        visit(rel, &dep, visiting, done)?;
                    }
                }
            }
            visiting.remove(name);
            done.insert(name.to_string());
            Ok(())
        }
        let mut done = HashSet::new();
        for m in &self.methods {
            visit(self, &m.name, &mut HashSet::new(), &mut done)?;
        }
        Ok(())
    }

    /// Evaluate attribute `name` of the tuple at position `seq`.
    pub fn attr_value(&self, seq: usize, name: &str) -> Result<Value, RelError> {
        let tuple = self
            .tuples
            .get(seq)
            .ok_or_else(|| RelError::Update(format!("no tuple at position {seq}")))?;
        self.attr_value_of(tuple, seq, name)
    }

    /// Evaluate attribute `name` of the given tuple (at sequence `seq`).
    pub fn attr_value_of(&self, tuple: &Tuple, seq: usize, name: &str) -> Result<Value, RelError> {
        if name == SEQ_ATTR {
            return Ok(Value::Int(seq as i64));
        }
        if let Some(i) = self.schema.index_of(name) {
            return Ok(tuple.get(i).cloned().unwrap_or(Value::Null));
        }
        let m = self.method(name).ok_or_else(|| RelError::UnknownAttribute(name.to_string()))?;
        let ctx = TupleContext::new(self, tuple, seq);
        Ok(eval(&m.def, &ctx)?)
    }

    /// Rename references to `from` into `to` inside every method body.
    /// Used by **Swap Attributes**.
    pub fn rename_in_methods(&mut self, from: &str, to: &str) {
        for m in &mut self.methods {
            m.def.rename_attr(from, to);
        }
    }

    /// Render the relation as an ASCII table — the "terminal monitor"
    /// form the paper invokes for default displays (§5.2).  Used for
    /// debugging and by textual figure reproduction.
    pub fn to_ascii_table(&self, max_rows: usize) -> String {
        let names: Vec<String> = self.schema.names().map(str::to_string).collect();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let shown = self.tuples.iter().take(max_rows).collect::<Vec<_>>();
        let rows: Vec<Vec<String>> =
            shown.iter().map(|t| t.values().iter().map(|v| v.display_text()).collect()).collect();
        for r in &rows {
            for (i, cell) in r.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, n) in names.iter().enumerate() {
            out.push_str(&format!("{:w$} ", n, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in names.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push(' ');
        }
        out.push('\n');
        for r in &rows {
            for (i, cell) in r.iter().enumerate() {
                out.push_str(&format!("{:w$} ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        if self.tuples.len() > max_rows {
            out.push_str(&format!("... ({} more rows)\n", self.tuples.len() - max_rows));
        }
        out
    }
}

/// Builder for base tables: `RelationBuilder::new(...).field(...).row(...)`.
#[derive(Debug, Default)]
pub struct RelationBuilder {
    fields: Vec<Field>,
    rows: Vec<Vec<Value>>,
}

impl RelationBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn field(mut self, name: &str, ty: ScalarType) -> Self {
        self.fields.push(Field::new(name, ty));
        self
    }

    pub fn row(mut self, values: Vec<Value>) -> Self {
        self.rows.push(values);
        self
    }

    pub fn build(self) -> Result<Relation, RelError> {
        let mut rel = Relation::new(Schema::new(self.fields)?);
        for r in self.rows {
            rel.push_row(r)?;
        }
        Ok(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tioga2_expr::parse;
    use ScalarType as T;

    fn stations() -> Relation {
        RelationBuilder::new()
            .field("name", T::Text)
            .field("state", T::Text)
            .field("longitude", T::Float)
            .field("latitude", T::Float)
            .row(vec![
                Value::Text("Baton Rouge".into()),
                Value::Text("LA".into()),
                Value::Float(-91.1),
                Value::Float(30.4),
            ])
            .row(vec![
                Value::Text("Austin".into()),
                Value::Text("TX".into()),
                Value::Float(-97.7),
                Value::Float(30.3),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn push_row_checks_arity_and_types() {
        let mut r = Relation::new(Schema::of(&[("a", T::Int)]).unwrap());
        assert!(r.push_row(vec![Value::Int(1), Value::Int(2)]).is_err());
        assert!(r.push_row(vec![Value::Text("x".into())]).is_err());
        assert_eq!(r.push_row(vec![Value::Int(1)]).unwrap(), 0);
        assert_eq!(r.push_row(vec![Value::Null]).unwrap(), 1);
    }

    #[test]
    fn add_method_and_evaluate() {
        let mut r = stations();
        r.add_method("x", T::Float, parse("longitude").unwrap()).unwrap();
        r.add_method(
            "display",
            T::DrawList,
            parse("circle(2.0,'red') ++ text(name,'black')").unwrap(),
        )
        .unwrap();
        assert_eq!(r.attr_value(0, "x").unwrap(), Value::Float(-91.1));
        match r.attr_value(1, "display").unwrap() {
            Value::DrawList(ds) => assert_eq!(ds.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn methods_may_chain_but_not_cycle() {
        let mut r = stations();
        r.add_method("x", T::Float, parse("longitude * 2.0").unwrap()).unwrap();
        r.add_method("y", T::Float, parse("x + 1.0").unwrap()).unwrap();
        assert_eq!(r.attr_value(0, "y").unwrap(), Value::Float(-182.2 + 1.0));
        // Self reference rejected.
        assert!(r.add_method("z", T::Float, parse("z + 1.0").unwrap()).is_err());
        // set_method creating a cycle rejected: x -> y while y -> x.
        assert!(r.set_method("x", T::Float, parse("y + 1.0").unwrap()).is_err());
    }

    #[test]
    fn add_method_type_mismatch_rejected() {
        let mut r = stations();
        assert!(r.add_method("x", T::Int, parse("longitude").unwrap()).is_err());
        assert!(r.add_method("x", T::Float, parse("name").unwrap()).is_err());
        // Int widens to declared Float.
        r.add_method("k", T::Float, parse("1 + 2").unwrap()).unwrap();
    }

    #[test]
    fn remove_method_respects_dependents() {
        let mut r = stations();
        r.add_method("x", T::Float, parse("longitude").unwrap()).unwrap();
        r.add_method("y", T::Float, parse("x * 2.0").unwrap()).unwrap();
        assert!(r.remove_method("x").is_err());
        r.remove_method("y").unwrap();
        r.remove_method("x").unwrap();
        assert!(r.method("x").is_none());
    }

    #[test]
    fn seq_pseudo_attribute() {
        let r = stations();
        assert_eq!(r.attr_value(1, SEQ_ATTR).unwrap(), Value::Int(1));
        let mut r2 = r.clone();
        r2.add_method("ypos", T::Float, parse("to_float(__seq) * 10.0").unwrap()).unwrap();
        assert_eq!(r2.attr_value(1, "ypos").unwrap(), Value::Float(10.0));
    }

    #[test]
    fn ascii_table_renders() {
        let t = stations().to_ascii_table(10);
        assert!(t.contains("Baton Rouge"));
        assert!(t.contains("state"));
        let t1 = stations().to_ascii_table(1);
        assert!(t1.contains("(1 more rows)"));
    }

    #[test]
    fn grid_index_is_shared_and_dropped_on_mutation() {
        let mut r = stations();
        assert!(r.grid_index("longitude", "name").is_none(), "text columns are not indexed");
        assert!(r.grid_index("latitude", "latitude").is_none());
        let grid = |r: &Relation| r.grid_index("longitude", "latitude").unwrap();
        let g = grid(&r);
        let alias = r.clone();
        assert!(Arc::ptr_eq(&g, &grid(&alias)), "clones share the store's index");
        drop(alias);
        // Sole owner: the store mutates in place and must forget its index.
        r.tuples_mut()[0] = Tuple::new(0, r.tuples()[1].values().to_vec());
        let g2 = grid(&r);
        assert!(!Arc::ptr_eq(&g, &g2));
        r.push_row(r.tuples()[0].values().to_vec()).unwrap();
        assert!(!Arc::ptr_eq(&g2, &grid(&r)));
    }

    #[test]
    fn attr_names_and_types() {
        let mut r = stations();
        r.add_method("x", T::Float, parse("longitude").unwrap()).unwrap();
        assert!(r.attr_names().contains(&"x".to_string()));
        assert_eq!(r.attr_type("x"), Some(T::Float));
        assert_eq!(r.attr_type("state"), Some(T::Text));
        assert_eq!(r.attr_type(SEQ_ATTR), Some(T::Int));
        assert_eq!(r.attr_type("nope"), None);
    }
}
