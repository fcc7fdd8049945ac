//! Attribute registry, expression evaluation and the paper's "special
//! operators related to angular distances and complex similarity tests".
//!
//! Every record type implements [`AttrSource`]; the planner uses
//! [`TAG_ATTRS`] to decide whether a query can run on the 64-byte tag
//! partition instead of the ~1.2 KB full objects.

use crate::ast::{BinOp, Expr, UnOp, Value};
use crate::QueryError;
use sdss_catalog::photoobj::offset;
use sdss_catalog::{PhotoObj, PhotoRecord, TagObject};
use sdss_skycoords::{Frame, SkyPos, UnitVec3};

/// Attributes available on the tag (vertical) partition: the 10 popular
/// attributes of the paper plus the object-id pointer and derived colors.
pub const TAG_ATTRS: [&str; 17] = [
    "objid", "ra", "dec", "cx", "cy", "cz", "u", "g", "r", "i", "z", "ug", "gr", "ri", "iz",
    "size", "class",
];

/// All attributes of the full photometric object exposed to queries.
pub const FULL_ATTRS: [&str; 29] = [
    "objid",
    "ra",
    "dec",
    "cx",
    "cy",
    "cz",
    "u",
    "g",
    "r",
    "i",
    "z",
    "ug",
    "gr",
    "ri",
    "iz",
    "size",
    "class",
    "run",
    "camcol",
    "field",
    "mjd",
    "ra_err",
    "dec_err",
    "psf_r",
    "petro_r50_r",
    "sb_r",
    "extinction_r",
    "spectro_target",
    "parent",
];

/// The scalar function table: canonical (upper-case) name and arity.
/// Lookups compare case-insensitively without allocating, and the
/// planner rewrites every call to the canonical name at plan time so
/// per-row evaluation never pays `to_ascii_uppercase`.
const FUNCTIONS: &[(&str, usize)] = &[
    ("DIST", 2),     // DIST(ra, dec) → degrees to that point
    ("FRAMELAT", 1), // FRAMELAT('GALACTIC') → latitude in frame
    ("FRAMELON", 1),
    ("COLORDIST", 4), // COLORDIST(ug, gr, ri, iz) → color-space distance
    ("ABS", 1),
    ("SQRT", 1),
    ("LOG10", 1),
];

/// Canonical (upper-case, `'static`) spelling of a function name.
pub fn canonical_function_name(name: &str) -> Option<&'static str> {
    FUNCTIONS
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|&(n, _)| n)
}

/// Does a scalar function implicitly read *any* unqualified attribute
/// of its row (position or colors)? Such functions cannot bind to one
/// side of a MATCH pair and are rejected over pair sources.
pub fn function_reads_implicit_attrs(name: &str) -> bool {
    matches!(
        canonical_function_name(name),
        Some("DIST" | "FRAMELAT" | "FRAMELON" | "COLORDIST")
    )
}

/// Does a scalar function read the object position implicitly?
pub fn function_uses_position(name: &str) -> bool {
    matches!(
        canonical_function_name(name),
        Some("DIST" | "FRAMELAT" | "FRAMELON")
    )
}

/// Is `name` a known scalar function, and its expected arity?
pub fn function_arity(name: &str) -> Option<usize> {
    FUNCTIONS
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|&(_, a)| a)
}

/// Anything queries can read attributes from.
pub trait AttrSource {
    /// Attribute by (lower-case) name; `None` if this record type lacks it.
    fn attr(&self, name: &str) -> Option<Value>;

    /// Position for the implicit-position functions.
    fn position(&self) -> UnitVec3;
}

impl AttrSource for TagObject {
    fn attr(&self, name: &str) -> Option<Value> {
        let v = match name {
            "objid" => Value::Id(self.obj_id),
            "ra" => Value::Num(self.pos().ra_deg()),
            "dec" => Value::Num(self.pos().dec_deg()),
            "cx" => Value::Num(self.x),
            "cy" => Value::Num(self.y),
            "cz" => Value::Num(self.z),
            "u" => Value::Num(self.mags[0] as f64),
            "g" => Value::Num(self.mags[1] as f64),
            "r" => Value::Num(self.mags[2] as f64),
            "i" => Value::Num(self.mags[3] as f64),
            "z" => Value::Num(self.mags[4] as f64),
            "ug" => Value::Num(self.color_ug() as f64),
            "gr" => Value::Num(self.color_gr() as f64),
            "ri" => Value::Num(self.color_ri() as f64),
            "iz" => Value::Num(self.color_iz() as f64),
            "size" => Value::Num(self.size as f64),
            "class" => Value::Str(self.class.as_str().to_string()),
            _ => return None,
        };
        Some(v)
    }

    fn position(&self) -> UnitVec3 {
        self.unit_vec()
    }
}

/// `ra`/`dec` derive from the stored unit vector, exactly as the tag
/// record's do, so a query answers the same bits on either store.
impl AttrSource for PhotoObj {
    fn attr(&self, name: &str) -> Option<Value> {
        let v = match name {
            "objid" => Value::Id(self.obj_id),
            "ra" => Value::Num(SkyPos::from_unit_vec(self.unit_vec()).ra_deg()),
            "dec" => Value::Num(SkyPos::from_unit_vec(self.unit_vec()).dec_deg()),
            "cx" => Value::Num(self.x),
            "cy" => Value::Num(self.y),
            "cz" => Value::Num(self.z),
            "u" => Value::Num(self.mag(0) as f64),
            "g" => Value::Num(self.mag(1) as f64),
            "r" => Value::Num(self.mag(2) as f64),
            "i" => Value::Num(self.mag(3) as f64),
            "z" => Value::Num(self.mag(4) as f64),
            "ug" => Value::Num(self.color_ug() as f64),
            "gr" => Value::Num(self.color_gr() as f64),
            "ri" => Value::Num(self.color_ri() as f64),
            "iz" => Value::Num(self.color_iz() as f64),
            "size" => Value::Num(self.size_arcsec() as f64),
            "class" => Value::Str(self.class.as_str().to_string()),
            "run" => Value::Num(self.run as f64),
            "camcol" => Value::Num(self.camcol as f64),
            "field" => Value::Num(self.field as f64),
            "mjd" => Value::Num(self.mjd),
            "ra_err" => Value::Num(self.ra_err_arcsec as f64),
            "dec_err" => Value::Num(self.dec_err_arcsec as f64),
            "psf_r" => Value::Num(self.bands[2].psf_mag as f64),
            "petro_r50_r" => Value::Num(self.bands[2].petro_r50 as f64),
            "sb_r" => Value::Num(self.bands[2].surface_brightness as f64),
            "extinction_r" => Value::Num(self.bands[2].extinction as f64),
            "spectro_target" => Value::Bool(self.spectro_target),
            "parent" => Value::Id(self.parent_id),
            _ => return None,
        };
        Some(v)
    }

    fn position(&self) -> UnitVec3 {
        self.unit_vec()
    }
}

/// The full store's records read in place: each name reads its field at
/// the record's fixed offset, bitwise what [`PhotoObj`]'s impl returns.
impl AttrSource for PhotoRecord<'_> {
    fn attr(&self, name: &str) -> Option<Value> {
        let r = |field| Value::Num(self.band_f32(2, field) as f64);
        let color = |b: usize| Value::Num((self.mag(b) - self.mag(b + 1)) as f64);
        let v = match name {
            "objid" => Value::Id(self.obj_id()),
            "ra" => Value::Num(SkyPos::from_unit_vec(self.unit_vec()).ra_deg()),
            "dec" => Value::Num(SkyPos::from_unit_vec(self.unit_vec()).dec_deg()),
            "cx" => Value::Num(self.x()),
            "cy" => Value::Num(self.y()),
            "cz" => Value::Num(self.z()),
            "u" => Value::Num(self.mag(0) as f64),
            "g" => Value::Num(self.mag(1) as f64),
            "r" => Value::Num(self.mag(2) as f64),
            "i" => Value::Num(self.mag(3) as f64),
            "z" => Value::Num(self.mag(4) as f64),
            "ug" => color(0),
            "gr" => color(1),
            "ri" => color(2),
            "iz" => color(3),
            "size" => Value::Num(self.size_arcsec() as f64),
            "class" => Value::Str(self.class().as_str().to_string()),
            "run" => Value::Num(self.run() as f64),
            "camcol" => Value::Num(self.camcol() as f64),
            "field" => Value::Num(self.field() as f64),
            "mjd" => Value::Num(self.mjd()),
            "ra_err" => Value::Num(self.ra_err_arcsec() as f64),
            "dec_err" => Value::Num(self.dec_err_arcsec() as f64),
            "psf_r" => r(offset::PSF_MAG),
            "petro_r50_r" => r(offset::PETRO_R50),
            "sb_r" => r(offset::SURFACE_BRIGHTNESS),
            "extinction_r" => r(offset::EXTINCTION),
            "spectro_target" => Value::Bool(self.spectro_target()),
            "parent" => Value::Id(self.parent_id()),
            _ => return None,
        };
        Some(v)
    }

    fn position(&self) -> UnitVec3 {
        self.unit_vec()
    }
}

/// Evaluate an expression against a record.
///
/// Spatial factors evaluate geometrically (they are normally handled by
/// the cover and only reach here inside OR branches or boundary trixels).
pub fn eval<S: AttrSource>(expr: &Expr, src: &S) -> Result<Value, QueryError> {
    match expr {
        Expr::Attr(name) => src
            .attr(name)
            .ok_or_else(|| QueryError::Unknown(name.clone())),
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Unary(UnOp::Neg, e) => {
            let v = num(eval(e, src)?)?;
            Ok(Value::Num(-v))
        }
        Expr::Unary(UnOp::Not, e) => {
            let v = boolean(eval(e, src)?)?;
            Ok(Value::Bool(!v))
        }
        Expr::Bin(op, a, b) => eval_bin(*op, a, b, src),
        Expr::Between(x, lo, hi) => {
            let xv = num(eval(x, src)?)?;
            let lov = num(eval(lo, src)?)?;
            let hiv = num(eval(hi, src)?)?;
            Ok(Value::Bool(xv >= lov && xv <= hiv))
        }
        Expr::Call(name, args) => eval_call(name, args, src),
        Expr::Spatial(sp) => {
            let domain = crate::plan::spatial_to_domain(sp)?;
            Ok(Value::Bool(domain.contains(src.position())))
        }
        // Parameters are substituted at bind time; reaching one here
        // means the query ran without its parameters.
        Expr::Param(i) => Err(QueryError::Exec(format!("unbound parameter ${i}"))),
    }
}

fn eval_bin<S: AttrSource>(op: BinOp, a: &Expr, b: &Expr, src: &S) -> Result<Value, QueryError> {
    match op {
        BinOp::And => {
            // Short-circuit.
            if !boolean(eval(a, src)?)? {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(boolean(eval(b, src)?)?))
        }
        BinOp::Or => {
            if boolean(eval(a, src)?)? {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(boolean(eval(b, src)?)?))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            let x = num(eval(a, src)?)?;
            let y = num(eval(b, src)?)?;
            let v = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y, // IEEE semantics; NULL-free engine
                _ => unreachable!(),
            };
            Ok(Value::Num(v))
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
            let av = eval(a, src)?;
            let bv = eval(b, src)?;
            let result = match (&av, &bv) {
                (Value::Num(x), Value::Num(y)) => compare_ord(op, x.partial_cmp(y)),
                (Value::Id(x), Value::Id(y)) => compare_ord(op, Some(x.cmp(y))),
                (Value::Id(x), Value::Num(y)) => compare_ord(op, (*x as f64).partial_cmp(y)),
                (Value::Num(x), Value::Id(y)) => compare_ord(op, x.partial_cmp(&(*y as f64))),
                (Value::Str(x), Value::Str(y)) => match op {
                    BinOp::Eq => Some(x.eq_ignore_ascii_case(y)),
                    BinOp::Ne => Some(!x.eq_ignore_ascii_case(y)),
                    _ => compare_ord(op, Some(x.cmp(y))),
                },
                (Value::Bool(x), Value::Bool(y)) => match op {
                    BinOp::Eq => Some(x == y),
                    BinOp::Ne => Some(x != y),
                    _ => None,
                },
                _ => None,
            };
            result
                .map(Value::Bool)
                .ok_or_else(|| QueryError::Type(format!("cannot compare {av:?} with {bv:?}")))
        }
    }
}

fn compare_ord(op: BinOp, ord: Option<std::cmp::Ordering>) -> Option<bool> {
    use std::cmp::Ordering::*;
    let ord = ord?;
    Some(match op {
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        _ => return None,
    })
}

fn eval_call<S: AttrSource>(name: &str, args: &[Expr], src: &S) -> Result<Value, QueryError> {
    // Resolve to the canonical static spelling (planned queries arrive
    // pre-normalized; direct `eval` callers may pass any case) — no
    // per-row string allocation either way.
    let name =
        canonical_function_name(name).ok_or_else(|| QueryError::Unknown(name.to_string()))?;
    let arity = function_arity(name).expect("canonical names have arities");
    if args.len() != arity {
        return Err(QueryError::Type(format!(
            "{name} takes {arity} arguments, got {}",
            args.len()
        )));
    }
    match name {
        // Angular distance (degrees) from the object to a fixed point —
        // the flagship special operator.
        "DIST" => {
            let ra = num(eval(&args[0], src)?)?;
            let dec = num(eval(&args[1], src)?)?;
            let target = SkyPos::new(ra, dec)
                .map_err(|e| QueryError::Type(format!("DIST target: {e}")))?
                .unit_vec();
            Ok(Value::Num(src.position().separation_deg(target)))
        }
        // Latitude / longitude of the object in a named frame: the
        // "linear combinations of the three Cartesian coordinates".
        "FRAMELAT" | "FRAMELON" => {
            let frame_name = match eval(&args[0], src)? {
                Value::Str(s) => s,
                other => return Err(QueryError::Type(format!("frame name, got {other:?}"))),
            };
            let frame = parse_frame(&frame_name)?;
            let pos = SkyPos::from_unit_vec(frame.from_equatorial().apply(src.position()));
            Ok(Value::Num(if name == "FRAMELAT" {
                pos.dec_deg()
            } else {
                pos.ra_deg()
            }))
        }
        // Euclidean distance in 4-color space to a reference color — the
        // "complex similarity tests of object properties like colors".
        "COLORDIST" => {
            let refs = [
                num(eval(&args[0], src)?)?,
                num(eval(&args[1], src)?)?,
                num(eval(&args[2], src)?)?,
                num(eval(&args[3], src)?)?,
            ];
            let mine = [
                num(src
                    .attr("ug")
                    .ok_or_else(|| QueryError::Unknown("ug".into()))?)?,
                num(src
                    .attr("gr")
                    .ok_or_else(|| QueryError::Unknown("gr".into()))?)?,
                num(src
                    .attr("ri")
                    .ok_or_else(|| QueryError::Unknown("ri".into()))?)?,
                num(src
                    .attr("iz")
                    .ok_or_else(|| QueryError::Unknown("iz".into()))?)?,
            ];
            let d2: f64 = refs
                .iter()
                .zip(mine.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            Ok(Value::Num(d2.sqrt()))
        }
        "ABS" => Ok(Value::Num(num(eval(&args[0], src)?)?.abs())),
        "SQRT" => Ok(Value::Num(num(eval(&args[0], src)?)?.sqrt())),
        "LOG10" => Ok(Value::Num(num(eval(&args[0], src)?)?.log10())),
        _ => Err(QueryError::Unknown(name.to_string())),
    }
}

/// Parse a frame name used in BAND(...) / FRAMELAT(...). Alias matching
/// is case-insensitive without allocating (this runs per row for
/// interpreted FRAMELAT/FRAMELON calls).
pub fn parse_frame(name: &str) -> Result<Frame, QueryError> {
    const ALIASES: &[(&str, Frame)] = &[
        ("EQ", Frame::Equatorial),
        ("EQUATORIAL", Frame::Equatorial),
        ("J2000", Frame::Equatorial),
        ("GAL", Frame::Galactic),
        ("GALACTIC", Frame::Galactic),
        ("SGAL", Frame::Supergalactic),
        ("SUPERGALACTIC", Frame::Supergalactic),
        ("ECL", Frame::Ecliptic),
        ("ECLIPTIC", Frame::Ecliptic),
    ];
    ALIASES
        .iter()
        .find(|(alias, _)| alias.eq_ignore_ascii_case(name))
        .map(|&(_, frame)| frame)
        .ok_or_else(|| QueryError::Unknown(format!("frame {name}")))
}

fn num(v: Value) -> Result<f64, QueryError> {
    v.as_num()
        .ok_or_else(|| QueryError::Type(format!("expected number, got {v:?}")))
}

fn boolean(v: Value) -> Result<bool, QueryError> {
    v.as_bool()
        .ok_or_else(|| QueryError::Type(format!("expected boolean, got {v:?}")))
}

/// Pair predicate helpers shared with the hash machine: the gravitational
/// lens condition from the paper — "objects within 10 arcsec of each other
/// which have identical colors, but may have a different brightness".
pub fn lens_pair_condition(
    a: &TagObject,
    b: &TagObject,
    max_sep_arcsec: f64,
    color_tol: f64,
    min_mag_diff: f64,
) -> bool {
    let sep = a.unit_vec().separation_deg(b.unit_vec()) * 3600.0;
    if sep > max_sep_arcsec || a.obj_id == b.obj_id {
        return false;
    }
    let dc = [
        (a.color_ug() - b.color_ug()).abs(),
        (a.color_gr() - b.color_gr()).abs(),
        (a.color_ri() - b.color_ri()).abs(),
        (a.color_iz() - b.color_iz()).abs(),
    ];
    let colors_match = dc.iter().all(|&d| (d as f64) <= color_tol);
    let mag_differs = ((a.mag(2) - b.mag(2)).abs() as f64) >= min_mag_diff;
    colors_match && mag_differs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Query, SelectItem};
    use crate::parser::parse;
    use sdss_catalog::ObjClass;

    fn tag_at(ra: f64, dec: f64, mags: [f32; 5]) -> TagObject {
        let v = SkyPos::new(ra, dec).unwrap().unit_vec();
        TagObject {
            obj_id: 1,
            x: v.x(),
            y: v.y(),
            z: v.z(),
            mags,
            size: 2.0,
            class: ObjClass::Galaxy,
        }
    }

    fn eval_str(expr_sql: &str, src: &impl AttrSource) -> Value {
        // Parse "SELECT <expr> FROM photoobj" and evaluate the item.
        let q = parse(&format!("SELECT {expr_sql} FROM photoobj")).unwrap();
        let Query::Select(s) = q else { panic!() };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        eval(expr, src).unwrap()
    }

    #[test]
    fn arithmetic_and_colors() {
        let t = tag_at(10.0, 0.0, [20.0, 19.0, 18.5, 18.2, 18.0]);
        assert_eq!(eval_str("g - r", &t), Value::Num(0.5));
        assert_eq!(eval_str("gr", &t).as_num().unwrap(), 0.5);
        assert_eq!(eval_str("2 * r + 1", &t), Value::Num(38.0));
        assert_eq!(eval_str("ABS(0 - 3)", &t), Value::Num(3.0));
        assert_eq!(eval_str("SQRT(16)", &t), Value::Num(4.0));
        assert_eq!(eval_str("LOG10(100)", &t), Value::Num(2.0));
    }

    #[test]
    fn comparisons_and_boolean_logic() {
        let t = tag_at(10.0, 0.0, [20.0, 19.0, 18.5, 18.2, 18.0]);
        assert_eq!(eval_str("r < 19", &t), Value::Bool(true));
        assert_eq!(eval_str("r >= 19", &t), Value::Bool(false));
        assert_eq!(eval_str("r BETWEEN 18 AND 19", &t), Value::Bool(true));
        assert_eq!(
            eval_str("class = 'GALAXY' AND r < 19", &t),
            Value::Bool(true)
        );
        assert_eq!(eval_str("class = 'galaxy'", &t), Value::Bool(true));
        assert_eq!(eval_str("NOT (r < 19)", &t), Value::Bool(false));
        assert_eq!(eval_str("r < 10 OR g < 20", &t), Value::Bool(true));
    }

    #[test]
    fn dist_operator() {
        let t = tag_at(10.0, 0.0, [20.0; 5]);
        let d = eval_str("DIST(10, 0)", &t).as_num().unwrap();
        assert!(d.abs() < 1e-9);
        let d = eval_str("DIST(11, 0)", &t).as_num().unwrap();
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn framelat_matches_frames_crate() {
        let t = tag_at(192.85948, 27.12825, [20.0; 5]); // galactic pole
        let b = eval_str("FRAMELAT('GALACTIC')", &t).as_num().unwrap();
        assert!((b - 90.0).abs() < 1e-6, "b = {b}");
        // Unknown frame names error at evaluation time.
        let q = parse("SELECT FRAMELAT('NOPE') FROM photoobj").unwrap();
        let Query::Select(s) = q else { panic!() };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        assert!(matches!(eval(expr, &t), Err(QueryError::Unknown(_))));
    }

    #[test]
    fn colordist_zero_for_own_colors() {
        let t = tag_at(10.0, 5.0, [21.0, 19.8, 19.1, 18.8, 18.6]);
        let expr = format!(
            "COLORDIST({}, {}, {}, {})",
            t.color_ug(),
            t.color_gr(),
            t.color_ri(),
            t.color_iz()
        );
        let d = eval_str(&expr, &t).as_num().unwrap();
        assert!(d < 1e-6, "d = {d}");
    }

    #[test]
    fn type_errors_are_reported() {
        let t = tag_at(10.0, 0.0, [20.0; 5]);
        let q = parse("SELECT r FROM photoobj WHERE class + 1 > 0").unwrap();
        let Query::Select(s) = q else { panic!() };
        assert!(matches!(
            eval(s.predicate.as_ref().unwrap(), &t),
            Err(QueryError::Type(_))
        ));
        // Unknown attribute.
        let q = parse("SELECT r FROM photoobj WHERE nonsense < 1").unwrap();
        let Query::Select(s) = q else { panic!() };
        assert!(matches!(
            eval(s.predicate.as_ref().unwrap(), &t),
            Err(QueryError::Unknown(_))
        ));
    }

    #[test]
    fn full_photoobj_attrs() {
        let objs = sdss_catalog::SkyModel::small(3).generate().unwrap();
        let o = &objs[0];
        for name in FULL_ATTRS {
            assert!(o.attr(name).is_some(), "missing attr {name}");
        }
        // Tag lacks full-only attributes.
        let t = TagObject::from_photo(o);
        assert!(t.attr("psf_r").is_none());
        assert!(t.attr("mjd").is_none());
        for name in TAG_ATTRS {
            assert!(t.attr(name).is_some(), "tag missing {name}");
            // Values agree bitwise between representations.
            let (a, b) = (o.attr(name).unwrap(), t.attr(name).unwrap());
            match (&a, &b) {
                (Value::Num(a), Value::Num(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{name}"),
                _ => assert_eq!(a, b, "{name}"),
            }
        }
    }

    proptest::proptest! {
        /// Every attribute name reads bitwise the same through the
        /// in-place record view as through the decoded object, over
        /// random objects with every field the names read set.
        #[test]
        fn prop_record_view_attrs_match_decoded_objects(
            obj_id in proptest::prelude::any::<u64>(),
            ra in 0.0f64..360.0, dec in -90.0f64..90.0,
            mags in proptest::array::uniform5(10.0f32..25.0),
            band_vals in proptest::array::uniform5(proptest::prelude::any::<f32>()),
            seed in proptest::prelude::any::<u64>(),
            class_byte in 0u8..4,
            spectro_target in proptest::prelude::any::<bool>(),
        ) {
            let mut o = PhotoObj {
                obj_id,
                run: seed as u16,
                camcol: (seed >> 16) as u8 % 7,
                field: (seed >> 24) as u16,
                mjd: 51000.0 + (seed >> 40) as f64 / 7.0,
                ra_err_arcsec: band_vals[0] * 1e-6,
                dec_err_arcsec: band_vals[1] * 1e-6,
                class: ObjClass::from_u8(class_byte).unwrap(),
                spectro_target,
                parent_id: seed.rotate_left(29),
                ..PhotoObj::default()
            };
            o.set_position(SkyPos::new(ra, dec).unwrap());
            for (b, band) in o.bands.iter_mut().enumerate() {
                band.model_mag = mags[b];
                band.psf_mag = mags[b] + band_vals[b] * 1e-7;
                band.petro_rad = band_vals[(b + 1) % 5];
                band.petro_r50 = band_vals[(b + 2) % 5];
                band.surface_brightness = band_vals[(b + 3) % 5];
                band.extinction = band_vals[(b + 4) % 5];
            }
            let mut buf = Vec::new();
            o.write_to(&mut buf);
            let rec = PhotoRecord::new(&buf).unwrap();
            for name in FULL_ATTRS {
                let (got, want) = (rec.attr(name).unwrap(), o.attr(name).unwrap());
                match (&got, &want) {
                    (Value::Num(a), Value::Num(b)) => {
                        proptest::prop_assert_eq!(a.to_bits(), b.to_bits(), "{}", name)
                    }
                    _ => proptest::prop_assert_eq!(got, want, "{}", name),
                }
            }
            proptest::prop_assert!(rec.attr("nonsense").is_none());
            proptest::prop_assert_eq!(rec.position(), o.position());
        }
    }

    #[test]
    fn lens_condition() {
        let a = tag_at(10.0, 0.0, [21.0, 20.0, 19.5, 19.2, 19.0]);
        let mut b = tag_at(10.0 + 5.0 / 3600.0, 0.0, [22.0, 21.0, 20.5, 20.2, 20.0]);
        b.obj_id = 2;
        // Same colors (all differences equal), 1 mag fainter, 5 arcsec away.
        assert!(lens_pair_condition(&a, &b, 10.0, 0.1, 0.5));
        // Too far.
        assert!(!lens_pair_condition(&a, &b, 2.0, 0.1, 0.5));
        // Colors must match.
        let mut c = b;
        c.mags[0] += 1.0; // breaks u-g
        assert!(!lens_pair_condition(&a, &c, 10.0, 0.1, 0.5));
        // Brightness must differ.
        let mut d = a;
        d.obj_id = 3;
        assert!(!lens_pair_condition(&a, &d, 10.0, 0.1, 0.5));
    }
}
