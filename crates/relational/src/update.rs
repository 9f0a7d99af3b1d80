//! Tuple-level update machinery (paper §8).
//!
//! "When a user clicks on a screen object, the Tioga-2 run time system
//! activates a generic update procedure, passing it the tuple
//! corresponding to the screen object.  The function engages a dialog with
//! the user to construct a new tuple ... and then perform an SQL update to
//! install the new value in the database."
//!
//! The dialog itself lives in `tioga2-core` (it is part of the UI layer);
//! this module provides the database half: locating a base-table row by
//! its stable `row_id` and installing a new value with full type checking.

use crate::catalog::Catalog;
use crate::delta::Delta;
use crate::error::RelError;
use crate::relation::Relation;
use tioga2_expr::Value;

/// A single field change for one row.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldChange {
    pub field: String,
    pub value: Value,
}

/// Apply `changes` to the row with identity `row_id` in `rel`.
/// Only stored fields are updatable — computed attributes are derived, so
/// "updating" one is meaningless (the paper's update functions construct a
/// new *tuple*).
pub fn update_row(
    rel: &mut Relation,
    row_id: u64,
    changes: &[FieldChange],
) -> Result<(), RelError> {
    // Validate all changes before applying any (all-or-nothing).
    let (pos, idx_vals) = validate(rel, row_id, changes)?;
    let mut t = rel.tuples()[pos].clone();
    for (i, v) in idx_vals {
        t = t.with_value(i, v);
    }
    rel.tuples_mut()[pos] = t;
    Ok(())
}

/// The error [`update_row`] would return for these arguments, if any,
/// without changing `rel`.
pub fn check_update(rel: &Relation, row_id: u64, changes: &[FieldChange]) -> Result<(), RelError> {
    validate(rel, row_id, changes).map(|_| ())
}

/// The row's position and each change as a `(field index, value)` pair.
fn validate(
    rel: &Relation,
    row_id: u64,
    changes: &[FieldChange],
) -> Result<(usize, Vec<(usize, Value)>), RelError> {
    let pos = rel
        .tuples()
        .iter()
        .position(|t| t.row_id == row_id)
        .ok_or_else(|| RelError::Update(format!("no row with id {row_id}")))?;
    let mut idx_vals = Vec::with_capacity(changes.len());
    for ch in changes {
        let i = rel.schema().index_of(&ch.field).ok_or_else(|| {
            if rel.method(&ch.field).is_some() {
                RelError::Update(format!(
                    "'{}' is a computed attribute and cannot be updated",
                    ch.field
                ))
            } else {
                RelError::UnknownAttribute(ch.field.clone())
            }
        })?;
        let f = &rel.schema().fields()[i];
        if !ch.value.conforms_to(&f.ty) {
            return Err(RelError::Update(format!(
                "value {} does not conform to field '{}' of type {}",
                ch.value, f.name, f.ty
            )));
        }
        idx_vals.push((i, ch.value.clone()));
    }
    Ok((pos, idx_vals))
}

/// Install changes against the base table `table` in `catalog` — the
/// "SQL update" of §8.  Returns the updated tuple's row id.
pub fn install_update(
    catalog: &Catalog,
    table: &str,
    row_id: u64,
    changes: &[FieldChange],
) -> Result<u64, RelError> {
    let handle = catalog.get(table)?;
    let mut rel = handle.write();
    update_row(&mut rel, row_id, changes)?;
    Ok(row_id)
}

/// Install changes like [`install_update`], but also capture the exact
/// before/after tuples as a [`Delta`] so callers can propagate the edit
/// through memoized dataflow results instead of invalidating them.
pub fn install_update_delta(
    catalog: &Catalog,
    table: &str,
    row_id: u64,
    changes: &[FieldChange],
) -> Result<Delta, RelError> {
    let handle = catalog.get(table)?;
    let mut rel = handle.write();
    let old = rel
        .tuples()
        .iter()
        .find(|t| t.row_id == row_id)
        .cloned()
        .ok_or_else(|| RelError::Update(format!("no row with id {row_id}")))?;
    update_row(&mut rel, row_id, changes)?;
    let new = rel
        .tuples()
        .iter()
        .find(|t| t.row_id == row_id)
        .cloned()
        .expect("updated row still present: update_row replaces in place");
    Ok(Delta::update(table, old, new))
}

/// Delete the row with identity `row_id` from base table `table`.
pub fn delete_row(catalog: &Catalog, table: &str, row_id: u64) -> Result<(), RelError> {
    let handle = catalog.get(table)?;
    let mut rel = handle.write();
    let pos = rel
        .tuples()
        .iter()
        .position(|t| t.row_id == row_id)
        .ok_or_else(|| RelError::Update(format!("no row with id {row_id}")))?;
    rel.tuples_mut().remove(pos);
    Ok(())
}

/// Insert a new row into base table `table`; returns its row id.
pub fn insert_row(catalog: &Catalog, table: &str, values: Vec<Value>) -> Result<u64, RelError> {
    let handle = catalog.get(table)?;
    let mut rel = handle.write();
    rel.push_row(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use tioga2_expr::{parse, ScalarType as T};

    fn setup() -> (Catalog, u64) {
        let c = Catalog::new();
        let rel = RelationBuilder::new()
            .field("item", T::Text)
            .field("qty", T::Int)
            .row(vec![Value::Text("bolts".into()), Value::Int(40)])
            .row(vec![Value::Text("nuts".into()), Value::Int(12)])
            .build()
            .unwrap();
        let id = rel.tuples()[1].row_id;
        c.register("inventory", rel);
        (c, id)
    }

    #[test]
    fn install_update_roundtrip() {
        let (c, id) = setup();
        install_update(
            &c,
            "inventory",
            id,
            &[FieldChange { field: "qty".into(), value: Value::Int(11) }],
        )
        .unwrap();
        let snap = c.snapshot("inventory").unwrap();
        assert_eq!(snap.tuples()[1].values()[1], Value::Int(11));
        assert_eq!(snap.tuples()[0].values()[1], Value::Int(40), "other row untouched");
    }

    #[test]
    fn update_type_checked_and_atomic() {
        let (c, id) = setup();
        let res = install_update(
            &c,
            "inventory",
            id,
            &[
                FieldChange { field: "item".into(), value: Value::Text("washers".into()) },
                FieldChange { field: "qty".into(), value: Value::Text("oops".into()) },
            ],
        );
        assert!(res.is_err());
        let snap = c.snapshot("inventory").unwrap();
        assert_eq!(
            snap.tuples()[1].values()[0],
            Value::Text("nuts".into()),
            "failed update must not partially apply"
        );
    }

    #[test]
    fn computed_attributes_not_updatable() {
        let (c, id) = setup();
        {
            let h = c.get("inventory").unwrap();
            let mut rel = h.write();
            rel.add_method("double", T::Int, parse("qty * 2").unwrap()).unwrap();
        }
        let res = install_update(
            &c,
            "inventory",
            id,
            &[FieldChange { field: "double".into(), value: Value::Int(1) }],
        );
        assert!(matches!(res, Err(RelError::Update(_))));
    }

    #[test]
    fn missing_row_and_table() {
        let (c, _) = setup();
        assert!(install_update(&c, "inventory", 999, &[]).is_err());
        assert!(install_update(&c, "nope", 0, &[]).is_err());
    }

    #[test]
    fn insert_and_delete() {
        let (c, _) = setup();
        let id =
            insert_row(&c, "inventory", vec![Value::Text("screws".into()), Value::Int(7)]).unwrap();
        assert_eq!(c.snapshot("inventory").unwrap().len(), 3);
        delete_row(&c, "inventory", id).unwrap();
        assert_eq!(c.snapshot("inventory").unwrap().len(), 2);
        assert!(delete_row(&c, "inventory", id).is_err());
    }

    #[test]
    fn updates_visible_through_restrict_lineage() {
        // An update made via a restricted view's row_id hits the base row.
        let (c, _) = setup();
        let snap = c.snapshot("inventory").unwrap();
        let view = crate::ops::restrict(&snap, &parse("qty < 20").unwrap()).unwrap();
        assert_eq!(view.len(), 1);
        let rid = view.tuples()[0].row_id;
        assert_eq!(view.source(), Some("inventory"));
        install_update(
            &c,
            view.source().unwrap(),
            rid,
            &[FieldChange { field: "qty".into(), value: Value::Int(100) }],
        )
        .unwrap();
        let after = c.snapshot("inventory").unwrap();
        assert_eq!(after.tuples()[1].values()[1], Value::Int(100));
    }
}
