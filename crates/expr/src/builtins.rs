//! The builtin function library.
//!
//! Functions fall into four groups:
//!
//! * numeric/string/temporal scalar helpers,
//! * type conversions (`to_int`, `to_float`, `to_text`),
//! * drawable constructors (`point`, `line`, `rect`, `circle`, `polygon`,
//!   `text`, `viewer`) — the primitive drawables of paper §5.1, and
//! * drawable modifiers/combinators (`offset`, `filled`, `outlined`,
//!   `stroke`, `textscale`, `recolor`, `nodraw`).
//!
//! Each builtin has a static type signature checked by
//! [`builtin_type`] and a runtime implementation in [`builtin_eval`].

use crate::drawable::{Color, Drawable, ViewerSpec};
use crate::error::ExprError;
use crate::value::{timestamp_from_parts, timestamp_parts, ScalarType, Value};

use ScalarType as T;

fn num(t: &T) -> bool {
    t.is_numeric()
}

fn type_err(name: &str, args: &[T]) -> ExprError {
    let shown: Vec<String> = args.iter().map(|t| t.to_string()).collect();
    ExprError::Type(format!("{name}({}) is not defined", shown.join(", ")))
}

/// Static result type of `name` applied to `args`, or a type error.
pub fn builtin_type(name: &str, args: &[T]) -> Result<T, ExprError> {
    let a = args;
    match name {
        "abs" | "sign" => match a {
            [t] if num(t) => Ok(t.clone()),
            _ => Err(type_err(name, a)),
        },
        "sqrt" | "ln" | "exp" | "sin" | "cos" | "tan" | "log10" | "degrees" | "radians" => {
            match a {
                [t] if num(t) => Ok(T::Float),
                _ => Err(type_err(name, a)),
            }
        }
        "atan2" | "hypot" => match a {
            [x, y] if num(x) && num(y) => Ok(T::Float),
            _ => Err(type_err(name, a)),
        },
        "pi" => {
            if a.is_empty() {
                Ok(T::Float)
            } else {
                Err(type_err(name, a))
            }
        }
        "floor" | "ceil" | "round" => match a {
            [t] if num(t) => Ok(T::Int),
            _ => Err(type_err(name, a)),
        },
        "pow" => match a {
            [x, y] if num(x) && num(y) => Ok(T::Float),
            _ => Err(type_err(name, a)),
        },
        "min" | "max" => match a {
            [T::Int, T::Int] => Ok(T::Int),
            [x, y] if num(x) && num(y) => Ok(T::Float),
            [T::Text, T::Text] => Ok(T::Text),
            _ => Err(type_err(name, a)),
        },
        "clamp" => match a {
            [x, lo, hi] if num(x) && num(lo) && num(hi) => Ok(T::Float),
            _ => Err(type_err(name, a)),
        },
        "to_int" => match a {
            [t] if num(t) || *t == T::Text || *t == T::Bool => Ok(T::Int),
            _ => Err(type_err(name, a)),
        },
        "to_float" => match a {
            [t] if num(t) || *t == T::Text => Ok(T::Float),
            _ => Err(type_err(name, a)),
        },
        "to_text" => match a {
            [_] => Ok(T::Text),
            _ => Err(type_err(name, a)),
        },
        "len" => match a {
            [T::Text] => Ok(T::Int),
            _ => Err(type_err(name, a)),
        },
        "lower" | "upper" => match a {
            [T::Text] => Ok(T::Text),
            _ => Err(type_err(name, a)),
        },
        "substr" => match a {
            [T::Text, T::Int, T::Int] => Ok(T::Text),
            _ => Err(type_err(name, a)),
        },
        "contains" | "starts_with" => match a {
            [T::Text, T::Text] => Ok(T::Bool),
            _ => Err(type_err(name, a)),
        },
        "timestamp" => match a {
            [t] if num(t) => Ok(T::Timestamp),
            _ => Err(type_err(name, a)),
        },
        "epoch" => match a {
            [T::Timestamp] => Ok(T::Int),
            _ => Err(type_err(name, a)),
        },
        "year" | "month" | "day" | "hour" | "minute" => match a {
            [T::Timestamp] => Ok(T::Int),
            _ => Err(type_err(name, a)),
        },
        "make_time" => match a {
            [y, mo, d, h, mi] if num(y) && num(mo) && num(d) && num(h) && num(mi) => {
                Ok(T::Timestamp)
            }
            _ => Err(type_err(name, a)),
        },
        "point" => match a {
            [T::Text] => Ok(T::Drawable),
            _ => Err(type_err(name, a)),
        },
        "line" => match a {
            [dx, dy, T::Text] if num(dx) && num(dy) => Ok(T::Drawable),
            _ => Err(type_err(name, a)),
        },
        "rect" => match a {
            [w, h, T::Text] if num(w) && num(h) => Ok(T::Drawable),
            _ => Err(type_err(name, a)),
        },
        "circle" => match a {
            [r, T::Text] if num(r) => Ok(T::Drawable),
            _ => Err(type_err(name, a)),
        },
        "polygon" => {
            // polygon(color, x1, y1, x2, y2, x3, y3, ...)
            if a.len() >= 7 && a.len() % 2 == 1 && a[0] == T::Text && a[1..].iter().all(num) {
                Ok(T::Drawable)
            } else {
                Err(type_err(name, a))
            }
        }
        "text" => match a {
            [_, T::Text] => Ok(T::Drawable),
            _ => Err(type_err(name, a)),
        },
        "viewer" => match a {
            [T::Text, e, x, y, w, h] if num(e) && num(x) && num(y) && num(w) && num(h) => {
                Ok(T::Drawable)
            }
            _ => Err(type_err(name, a)),
        },
        "offset" => match a {
            [T::Drawable, dx, dy] if num(dx) && num(dy) => Ok(T::Drawable),
            [T::DrawList, dx, dy] if num(dx) && num(dy) => Ok(T::DrawList),
            _ => Err(type_err(name, a)),
        },
        "filled" | "outlined" => match a {
            [T::Drawable] => Ok(T::Drawable),
            _ => Err(type_err(name, a)),
        },
        "stroke" => match a {
            [T::Drawable, w] if num(w) => Ok(T::Drawable),
            _ => Err(type_err(name, a)),
        },
        "textscale" => match a {
            [T::Drawable, k] if num(k) => Ok(T::Drawable),
            _ => Err(type_err(name, a)),
        },
        "recolor" => match a {
            [T::Drawable, T::Text] => Ok(T::Drawable),
            [T::DrawList, T::Text] => Ok(T::DrawList),
            _ => Err(type_err(name, a)),
        },
        "nodraw" => {
            if a.is_empty() {
                Ok(T::DrawList)
            } else {
                Err(type_err(name, a))
            }
        }
        _ => Err(ExprError::UnknownFunction(name.to_string())),
    }
}

fn f(v: &Value) -> Result<f64, ExprError> {
    v.as_f64().ok_or_else(|| ExprError::Eval(format!("expected number, got {v}")))
}

fn txt(v: &Value) -> Result<&str, ExprError> {
    v.as_text().ok_or_else(|| ExprError::Eval(format!("expected text, got {v}")))
}

fn color(v: &Value) -> Result<Color, ExprError> {
    let s = txt(v)?;
    Color::parse(s).ok_or_else(|| ExprError::Eval(format!("unknown color '{s}'")))
}

fn drawable(v: Value) -> Result<Drawable, ExprError> {
    match v {
        Value::Drawable(d) => Ok(*d),
        other => Err(ExprError::Eval(format!("expected drawable, got {other}"))),
    }
}

/// Evaluate builtin `name` on already-evaluated arguments.
///
/// Null handling: if any argument is Null the result is Null (except
/// `to_text`, which renders Null, and `nodraw`, which is nullary).
pub fn builtin_eval(name: &str, args: Vec<Value>) -> Result<Value, ExprError> {
    if name != "to_text" && args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    match (name, args.as_slice()) {
        ("abs", [Value::Int(i)]) => Ok(Value::Int(i.wrapping_abs())),
        ("abs", [v]) => Ok(Value::Float(f(v)?.abs())),
        ("sign", [Value::Int(i)]) => Ok(Value::Int(i.signum())),
        ("sign", [v]) => Ok(Value::Float(f(v)?.signum())),
        ("sqrt", [v]) => Ok(Value::Float(f(v)?.sqrt())),
        ("sin", [v]) => Ok(Value::Float(f(v)?.sin())),
        ("cos", [v]) => Ok(Value::Float(f(v)?.cos())),
        ("tan", [v]) => Ok(Value::Float(f(v)?.tan())),
        ("log10", [v]) => Ok(Value::Float(f(v)?.log10())),
        ("degrees", [v]) => Ok(Value::Float(f(v)?.to_degrees())),
        ("radians", [v]) => Ok(Value::Float(f(v)?.to_radians())),
        ("atan2", [y, x]) => Ok(Value::Float(f(y)?.atan2(f(x)?))),
        ("hypot", [x, y]) => Ok(Value::Float(f(x)?.hypot(f(y)?))),
        ("pi", []) => Ok(Value::Float(std::f64::consts::PI)),
        ("ln", [v]) => Ok(Value::Float(f(v)?.ln())),
        ("exp", [v]) => Ok(Value::Float(f(v)?.exp())),
        ("floor", [v]) => Ok(Value::Int(f(v)?.floor() as i64)),
        ("ceil", [v]) => Ok(Value::Int(f(v)?.ceil() as i64)),
        ("round", [v]) => Ok(Value::Int(f(v)?.round() as i64)),
        ("pow", [x, y]) => Ok(Value::Float(f(x)?.powf(f(y)?))),
        ("min", [Value::Int(a), Value::Int(b)]) => Ok(Value::Int(*a.min(b))),
        ("max", [Value::Int(a), Value::Int(b)]) => Ok(Value::Int(*a.max(b))),
        ("min", [Value::Text(a), Value::Text(b)]) => {
            Ok(Value::Text(if a <= b { a.clone() } else { b.clone() }))
        }
        ("max", [Value::Text(a), Value::Text(b)]) => {
            Ok(Value::Text(if a >= b { a.clone() } else { b.clone() }))
        }
        ("min", [x, y]) => Ok(Value::Float(f(x)?.min(f(y)?))),
        ("max", [x, y]) => Ok(Value::Float(f(x)?.max(f(y)?))),
        ("clamp", [x, lo, hi]) => Ok(Value::Float(f(x)?.clamp(f(lo)?, f(hi)?))),
        ("to_int", [Value::Bool(b)]) => Ok(Value::Int(*b as i64)),
        ("to_int", [Value::Text(s)]) => s
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| ExprError::Eval(format!("cannot parse '{s}' as int"))),
        ("to_int", [v]) => Ok(Value::Int(f(v)? as i64)),
        ("to_float", [Value::Text(s)]) => s
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| ExprError::Eval(format!("cannot parse '{s}' as float"))),
        ("to_float", [v]) => Ok(Value::Float(f(v)?)),
        ("to_text", [v]) => Ok(Value::Text(v.display_text())),
        ("len", [Value::Text(s)]) => Ok(Value::Int(s.chars().count() as i64)),
        ("lower", [Value::Text(s)]) => Ok(Value::Text(s.to_lowercase())),
        ("upper", [Value::Text(s)]) => Ok(Value::Text(s.to_uppercase())),
        ("substr", [Value::Text(s), Value::Int(start), Value::Int(n)]) => {
            let start = (*start).max(0) as usize;
            let n = (*n).max(0) as usize;
            Ok(Value::Text(s.chars().skip(start).take(n).collect()))
        }
        ("contains", [Value::Text(s), Value::Text(sub)]) => Ok(Value::Bool(s.contains(sub))),
        ("starts_with", [Value::Text(s), Value::Text(p)]) => Ok(Value::Bool(s.starts_with(p))),
        ("timestamp", [v]) => Ok(Value::Timestamp(f(v)? as i64)),
        ("epoch", [Value::Timestamp(t)]) => Ok(Value::Int(*t)),
        ("year", [Value::Timestamp(t)]) => Ok(Value::Int(timestamp_parts(*t).0)),
        ("month", [Value::Timestamp(t)]) => Ok(Value::Int(timestamp_parts(*t).1 as i64)),
        ("day", [Value::Timestamp(t)]) => Ok(Value::Int(timestamp_parts(*t).2 as i64)),
        ("hour", [Value::Timestamp(t)]) => Ok(Value::Int(timestamp_parts(*t).3 as i64)),
        ("minute", [Value::Timestamp(t)]) => Ok(Value::Int(timestamp_parts(*t).4 as i64)),
        ("make_time", [y, mo, d, h, mi]) => Ok(Value::Timestamp(timestamp_from_parts(
            f(y)? as i64,
            f(mo)? as u32,
            f(d)? as u32,
            f(h)? as u32,
            f(mi)? as u32,
        ))),
        ("point", [c]) => Ok(Value::Drawable(Box::new(Drawable::point(color(c)?)))),
        ("line", [dx, dy, c]) => {
            Ok(Value::Drawable(Box::new(Drawable::line(f(dx)?, f(dy)?, color(c)?))))
        }
        ("rect", [w, h, c]) => {
            Ok(Value::Drawable(Box::new(Drawable::rect(f(w)?, f(h)?, color(c)?))))
        }
        ("circle", [r, c]) => Ok(Value::Drawable(Box::new(Drawable::circle(f(r)?, color(c)?)))),
        ("text", [content, c]) => {
            Ok(Value::Drawable(Box::new(Drawable::text(content.display_text(), color(c)?))))
        }
        ("viewer", [dest, e, x, y, w, h]) => {
            Ok(Value::Drawable(Box::new(Drawable::viewer(ViewerSpec {
                destination: txt(dest)?.to_string(),
                elevation: f(e)?,
                at: (f(x)?, f(y)?),
                size: (f(w)?, f(h)?),
            }))))
        }
        ("nodraw", []) => Ok(Value::DrawList(vec![])),
        _ => {
            // Variadic and value-moving cases handled below.
            let mut args = args;
            match name {
                "polygon" => {
                    if args.len() < 7 || args.len().is_multiple_of(2) {
                        return Err(ExprError::Eval("polygon needs color + >=3 points".into()));
                    }
                    let c = color(&args[0])?;
                    let mut pts = Vec::with_capacity((args.len() - 1) / 2);
                    let mut it = args[1..].iter();
                    while let (Some(x), Some(y)) = (it.next(), it.next()) {
                        pts.push((f(x)?, f(y)?));
                    }
                    Ok(Value::Drawable(Box::new(Drawable::polygon(pts, c))))
                }
                "offset" => {
                    let dy = f(&args.pop().unwrap())?;
                    let dx = f(&args.pop().unwrap())?;
                    match args.pop().unwrap() {
                        Value::Drawable(mut d) => {
                            d.offset.0 += dx;
                            d.offset.1 += dy;
                            Ok(Value::Drawable(d))
                        }
                        Value::DrawList(mut ds) => {
                            for d in &mut ds {
                                d.offset.0 += dx;
                                d.offset.1 += dy;
                            }
                            Ok(Value::DrawList(ds))
                        }
                        other => {
                            Err(ExprError::Eval(format!("offset: expected drawable, got {other}")))
                        }
                    }
                }
                "filled" | "outlined" => {
                    let mut d = drawable(args.pop().unwrap())?;
                    d.style.filled = name == "filled";
                    Ok(Value::Drawable(Box::new(d)))
                }
                "stroke" => {
                    let w = f(&args.pop().unwrap())?;
                    let mut d = drawable(args.pop().unwrap())?;
                    d.style.stroke_width = w.max(1.0) as u32;
                    Ok(Value::Drawable(Box::new(d)))
                }
                "textscale" => {
                    let k = f(&args.pop().unwrap())?;
                    let mut d = drawable(args.pop().unwrap())?;
                    d.style.text_scale = k.max(1.0) as u32;
                    Ok(Value::Drawable(Box::new(d)))
                }
                "recolor" => {
                    let c = color(&args.pop().unwrap())?;
                    match args.pop().unwrap() {
                        Value::Drawable(mut d) => {
                            d.color = c;
                            Ok(Value::Drawable(d))
                        }
                        Value::DrawList(mut ds) => {
                            for d in &mut ds {
                                d.color = c;
                            }
                            Ok(Value::DrawList(ds))
                        }
                        other => {
                            Err(ExprError::Eval(format!("recolor: expected drawable, got {other}")))
                        }
                    }
                }
                _ => Err(ExprError::UnknownFunction(name.to_string())),
            }
        }
    }
}

/// `++` — combine drawables / draw lists into a draw list, preserving
/// order (list order = drawing order, §5.1).
pub fn combine_values(l: Value, r: Value) -> Result<Value, ExprError> {
    fn into_list(v: Value) -> Result<Vec<Drawable>, ExprError> {
        match v {
            Value::Drawable(d) => Ok(vec![*d]),
            Value::DrawList(ds) => Ok(ds),
            other => Err(ExprError::Eval(format!("'++' expects drawables, got {other}"))),
        }
    }
    let mut a = into_list(l)?;
    a.extend(into_list(r)?);
    Ok(Value::DrawList(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drawable::{Shape, Style};

    #[test]
    fn type_signatures() {
        assert_eq!(builtin_type("abs", &[T::Int]).unwrap(), T::Int);
        assert_eq!(builtin_type("abs", &[T::Float]).unwrap(), T::Float);
        assert!(builtin_type("abs", &[T::Text]).is_err());
        assert_eq!(builtin_type("circle", &[T::Float, T::Text]).unwrap(), T::Drawable);
        assert_eq!(
            builtin_type("offset", &[T::DrawList, T::Float, T::Float]).unwrap(),
            T::DrawList
        );
        assert_eq!(
            builtin_type(
                "polygon",
                &[T::Text, T::Float, T::Float, T::Float, T::Float, T::Float, T::Float]
            )
            .unwrap(),
            T::Drawable
        );
        assert!(builtin_type("polygon", &[T::Text, T::Float, T::Float]).is_err());
        assert!(builtin_type("no_such_fn", &[]).is_err());
    }

    #[test]
    fn eval_numeric() {
        assert_eq!(builtin_eval("abs", vec![Value::Int(-3)]).unwrap(), Value::Int(3));
        assert_eq!(builtin_eval("floor", vec![Value::Float(2.9)]).unwrap(), Value::Int(2));
        assert_eq!(
            builtin_eval("clamp", vec![Value::Float(5.0), Value::Float(0.0), Value::Float(2.0)])
                .unwrap(),
            Value::Float(2.0)
        );
        assert_eq!(builtin_eval("min", vec![Value::Int(3), Value::Int(5)]).unwrap(), Value::Int(3));
    }

    #[test]
    fn eval_trig_and_friends() {
        let v = builtin_eval("pi", vec![]).unwrap();
        assert_eq!(v, Value::Float(std::f64::consts::PI));
        assert_eq!(builtin_eval("sin", vec![Value::Float(0.0)]).unwrap(), Value::Float(0.0));
        match builtin_eval("cos", vec![Value::Float(0.0)]).unwrap() {
            Value::Float(x) => assert!((x - 1.0).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        match builtin_eval("atan2", vec![Value::Float(1.0), Value::Float(1.0)]).unwrap() {
            Value::Float(x) => assert!((x - std::f64::consts::FRAC_PI_4).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            builtin_eval("hypot", vec![Value::Float(3.0), Value::Float(4.0)]).unwrap(),
            Value::Float(5.0)
        );
        assert_eq!(
            builtin_eval("degrees", vec![Value::Float(std::f64::consts::PI)]).unwrap(),
            Value::Float(180.0)
        );
        assert_eq!(builtin_type("pi", &[]).unwrap(), T::Float);
        assert!(builtin_type("pi", &[T::Int]).is_err());
        assert!(builtin_type("atan2", &[T::Float]).is_err());
    }

    #[test]
    fn eval_null_propagates() {
        assert_eq!(builtin_eval("abs", vec![Value::Null]).unwrap(), Value::Null);
        assert_eq!(builtin_eval("to_text", vec![Value::Null]).unwrap(), Value::Text("∅".into()));
    }

    #[test]
    fn eval_strings() {
        assert_eq!(
            builtin_eval(
                "substr",
                vec![Value::Text("Baton Rouge".into()), Value::Int(6), Value::Int(5)]
            )
            .unwrap(),
            Value::Text("Rouge".into())
        );
        assert_eq!(
            builtin_eval("contains", vec![Value::Text("abc".into()), Value::Text("b".into())])
                .unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn eval_temporal() {
        let t = builtin_eval(
            "make_time",
            vec![Value::Int(1992), Value::Int(7), Value::Int(14), Value::Int(12), Value::Int(0)],
        )
        .unwrap();
        assert_eq!(builtin_eval("year", vec![t.clone()]).unwrap(), Value::Int(1992));
        assert_eq!(builtin_eval("month", vec![t.clone()]).unwrap(), Value::Int(7));
        assert_eq!(builtin_eval("day", vec![t]).unwrap(), Value::Int(14));
    }

    #[test]
    fn eval_drawables() {
        let v = builtin_eval("circle", vec![Value::Float(3.0), Value::Text("red".into())]).unwrap();
        match v {
            Value::Drawable(d) => {
                assert_eq!(d.shape, Shape::Circle { radius: 3.0 });
                assert_eq!(d.color, Color::RED);
            }
            other => panic!("expected drawable, got {other:?}"),
        }
        assert!(
            builtin_eval("circle", vec![Value::Float(3.0), Value::Text("puce".into())]).is_err()
        );
    }

    #[test]
    fn eval_offset_accumulates() {
        let d = builtin_eval("point", vec![Value::Text("black".into())]).unwrap();
        let d = builtin_eval("offset", vec![d, Value::Float(1.0), Value::Float(2.0)]).unwrap();
        let d = builtin_eval("offset", vec![d, Value::Float(0.5), Value::Float(-1.0)]).unwrap();
        match d {
            Value::Drawable(d) => assert_eq!(d.offset, (1.5, 1.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eval_style_modifiers() {
        let d = builtin_eval(
            "rect",
            vec![Value::Float(2.0), Value::Float(2.0), Value::Text("blue".into())],
        )
        .unwrap();
        let d = builtin_eval("outlined", vec![d]).unwrap();
        let d = builtin_eval("stroke", vec![d, Value::Int(3)]).unwrap();
        match d {
            Value::Drawable(d) => {
                assert!(!d.style.filled);
                assert_eq!(d.style.stroke_width, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn combine_flattens() {
        let a = builtin_eval("point", vec![Value::Text("black".into())]).unwrap();
        let b = builtin_eval("nodraw", vec![]).unwrap();
        let c = combine_values(a, b).unwrap();
        match &c {
            Value::DrawList(ds) => assert_eq!(ds.len(), 1),
            other => panic!("{other:?}"),
        }
        let d = builtin_eval("point", vec![Value::Text("red".into())]).unwrap();
        let e = combine_values(c, d).unwrap();
        match e {
            Value::DrawList(ds) => assert_eq!(ds.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn viewer_builtin() {
        let v = builtin_eval(
            "viewer",
            vec![
                Value::Text("temps".into()),
                Value::Float(50.0),
                Value::Float(1.0),
                Value::Float(2.0),
                Value::Float(10.0),
                Value::Float(8.0),
            ],
        )
        .unwrap();
        match v {
            Value::Drawable(d) => match d.shape {
                Shape::Viewer(spec) => {
                    assert_eq!(spec.destination, "temps");
                    assert_eq!(spec.at, (1.0, 2.0));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn style_default() {
        let s = Style::default();
        assert!(s.filled);
        assert_eq!(s.stroke_width, 1);
    }
}
