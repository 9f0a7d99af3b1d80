//! Runtime values and scalar types.
//!
//! The paper assumes an object-relational DBMS: columns hold atomic values,
//! and computed ("method") attributes may additionally produce the special
//! visualization types — floating point *location* values and *display
//! lists* of primitive drawables (§2, §5.1).

use crate::drawable::Drawable;
use std::cmp::Ordering;
use std::fmt;

/// The type of a column, attribute, or expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarType {
    Bool,
    Int,
    Float,
    Text,
    /// Seconds since the Unix epoch.  The builtin library provides
    /// year/month/day/hour accessors.
    Timestamp,
    /// A single primitive drawable.
    Drawable,
    /// A display attribute: an ordered list of primitive drawables
    /// (paper §5.1 — "a display attribute is a list of primitive drawable
    /// objects"; the list order specifies the drawing order).
    DrawList,
}

impl ScalarType {
    /// True for types accepted where the paper requires "numeric" values
    /// (Scale Attribute / Translate Attribute, Figure 5).
    pub fn is_numeric(self: &ScalarType) -> bool {
        matches!(self, ScalarType::Int | ScalarType::Float | ScalarType::Timestamp)
    }

    /// Parse a type name as written in programs and persisted schemas.
    pub fn parse(s: &str) -> Option<ScalarType> {
        match s.to_ascii_lowercase().as_str() {
            "bool" | "boolean" => Some(ScalarType::Bool),
            "int" | "integer" => Some(ScalarType::Int),
            "float" | "double" | "real" => Some(ScalarType::Float),
            "text" | "string" | "varchar" => Some(ScalarType::Text),
            "timestamp" | "time" | "date" => Some(ScalarType::Timestamp),
            "drawable" => Some(ScalarType::Drawable),
            "drawlist" | "display" => Some(ScalarType::DrawList),
            _ => None,
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarType::Bool => "bool",
            ScalarType::Int => "int",
            ScalarType::Float => "float",
            ScalarType::Text => "text",
            ScalarType::Timestamp => "timestamp",
            ScalarType::Drawable => "drawable",
            ScalarType::DrawList => "drawlist",
        };
        f.write_str(s)
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
    Timestamp(i64),
    Drawable(Box<Drawable>),
    DrawList(Vec<Drawable>),
}

impl Value {
    /// The type of this value, if it has one (`Null` is untyped).
    pub fn scalar_type(&self) -> Option<ScalarType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ScalarType::Bool),
            Value::Int(_) => Some(ScalarType::Int),
            Value::Float(_) => Some(ScalarType::Float),
            Value::Text(_) => Some(ScalarType::Text),
            Value::Timestamp(_) => Some(ScalarType::Timestamp),
            Value::Drawable(_) => Some(ScalarType::Drawable),
            Value::DrawList(_) => Some(ScalarType::DrawList),
        }
    }

    /// True if this value is a member of `ty` (Null belongs to every type,
    /// matching SQL semantics; Int widens to Float and Timestamp).
    pub fn conforms_to(&self, ty: &ScalarType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), ScalarType::Float) => true,
            (Value::Int(_), ScalarType::Timestamp) => true,
            _ => self.scalar_type().as_ref() == Some(ty),
        }
    }

    /// Numeric view (Int/Float/Timestamp), used by arithmetic and by
    /// location-attribute evaluation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            Value::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total ordering used for sorting and for comparison operators.
    /// Values of different types order by type tag; NaN sorts last among
    /// floats; Null sorts first (SQL NULLS FIRST).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 2,
                Value::Text(_) => 3,
                Value::Drawable(_) => 4,
                Value::DrawList(_) => 5,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) if tag(a) == 2 && tag(b) == 2 => {
                // Numeric family compares by f64 with integer fast path.
                if let (Value::Int(x), Value::Int(y)) = (a, b) {
                    x.cmp(y)
                } else {
                    let x = a.as_f64().unwrap();
                    let y = b.as_f64().unwrap();
                    x.total_cmp(&y)
                }
            }
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }

    /// Render a value to the text used by default displays (§5.2: "the
    /// default display for a relation renders each field in the tuple ...
    /// a sequence of tuples in ASCII").
    pub fn display_text(&self) -> String {
        match self {
            Value::Null => "∅".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    format!("{x:.1}")
                } else {
                    format!("{x:.3}")
                }
            }
            Value::Text(s) => s.clone(),
            Value::Timestamp(t) => format_timestamp(*t),
            Value::Drawable(d) => format!("<{}>", d.kind()),
            Value::DrawList(ds) => {
                let kinds: Vec<&str> = ds.iter().map(|d| d.kind()).collect();
                format!("<[{}]>", kinds.join(","))
            }
        }
    }
}

/// Days in each month of a non-leap year.
const MONTH_DAYS: [i64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(year: i64) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Civil date components of a Unix timestamp (proleptic Gregorian, UTC).
pub fn timestamp_parts(t: i64) -> (i64, u32, u32, u32, u32, u32) {
    let days = t.div_euclid(86_400);
    let mut secs = t.rem_euclid(86_400);
    let hour = secs / 3600;
    secs %= 3600;
    let minute = secs / 60;
    let second = secs % 60;

    let mut year = 1970;
    let mut d = days;
    loop {
        let len = if is_leap(year) { 366 } else { 365 };
        if d >= len {
            d -= len;
            year += 1;
        } else if d < 0 {
            year -= 1;
            d += if is_leap(year) { 366 } else { 365 };
        } else {
            break;
        }
    }
    let mut month = 0usize;
    loop {
        let mut len = MONTH_DAYS[month];
        if month == 1 && is_leap(year) {
            len += 1;
        }
        if d >= len {
            d -= len;
            month += 1;
        } else {
            break;
        }
    }
    (year, month as u32 + 1, d as u32 + 1, hour as u32, minute as u32, second as u32)
}

/// Build a Unix timestamp from civil date components (UTC).
pub fn timestamp_from_parts(year: i64, month: u32, day: u32, hour: u32, minute: u32) -> i64 {
    let mut days: i64 = 0;
    if year >= 1970 {
        for y in 1970..year {
            days += if is_leap(y) { 366 } else { 365 };
        }
    } else {
        for y in year..1970 {
            days -= if is_leap(y) { 366 } else { 365 };
        }
    }
    for (m, len) in MONTH_DAYS.iter().enumerate().take((month.saturating_sub(1) as usize).min(11)) {
        days += len;
        if m == 1 && is_leap(year) {
            days += 1;
        }
    }
    days += day.saturating_sub(1) as i64;
    days * 86_400 + hour as i64 * 3600 + minute as i64 * 60
}

/// `YYYY-MM-DD HH:MM` rendering of a timestamp.
pub fn format_timestamp(t: i64) -> String {
    let (y, mo, d, h, mi, _s) = timestamp_parts(t);
    format!("{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}")
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drawable::{Color, Drawable};

    #[test]
    fn conformance_and_widening() {
        assert!(Value::Int(3).conforms_to(&ScalarType::Int));
        assert!(Value::Int(3).conforms_to(&ScalarType::Float));
        assert!(Value::Null.conforms_to(&ScalarType::Text));
        assert!(!Value::Float(1.0).conforms_to(&ScalarType::Int));
    }

    #[test]
    fn total_cmp_numeric_family() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(2.0).total_cmp(&Value::Int(2)), Ordering::Equal);
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Ordering::Less);
    }

    #[test]
    fn timestamp_roundtrip() {
        for &(y, mo, d, h, mi) in
            &[(1970, 1, 1, 0, 0), (1989, 12, 31, 23, 59), (1996, 2, 29, 12, 30), (2024, 7, 4, 6, 0)]
        {
            let t = timestamp_from_parts(y, mo, d, h, mi);
            let (y2, mo2, d2, h2, mi2, s2) = timestamp_parts(t);
            assert_eq!((y2, mo2, d2, h2, mi2, s2), (y, mo, d, h, mi, 0));
        }
    }

    #[test]
    fn timestamp_before_epoch() {
        let t = timestamp_from_parts(1960, 6, 15, 8, 0);
        assert!(t < 0);
        let (y, mo, d, h, _, _) = timestamp_parts(t);
        assert_eq!((y, mo, d, h), (1960, 6, 15, 8));
    }

    #[test]
    fn display_text_forms() {
        assert_eq!(Value::Float(2.0).display_text(), "2.0");
        assert_eq!(Value::Text("abc".into()).display_text(), "abc");
        let dl = Value::DrawList(vec![
            Drawable::circle(1.0, Color::RED),
            Drawable::text("x", Color::BLACK),
        ]);
        assert_eq!(dl.display_text(), "<[circle,text]>");
    }

    #[test]
    fn format_timestamp_text() {
        let t = timestamp_from_parts(1996, 3, 1, 9, 5);
        assert_eq!(format_timestamp(t), "1996-03-01 09:05");
    }
}
