//! Predicate/projection compilation to register bytecode over column
//! batches.
//!
//! The interpreter in [`crate::ops`] re-walks the `Expr` AST for every
//! row and materializes a `TagObject` first — fine for the general case,
//! but the paper's dominant workload is popular-attribute predicate scans
//! over the tag partition (E5: "searched more than 10 times faster").
//! This module lowers a planned expression once into a small register
//! program whose instructions each process a whole [`ColumnBatch`]
//! (~1024 rows) of struct-of-arrays tag columns, producing a
//! [`SelectionMask`]; projections evaluate the same way and only touch
//! rows the mask kept.
//!
//! Compilation is *best-effort*: anything outside the tag-column value
//! domain (string ordering, non-literal `DIST` targets, full-object
//! attributes) returns `None` and the scan falls back to the row
//! interpreter. Compiled semantics match the interpreter bit-for-bit:
//! f32 colors subtract in f32 before widening, `ra`/`dec` load the
//! chunk lanes derived through the same `SkyPos` code path as the
//! interpreter, and boolean lanes are **three-valued**
//! (true / false / error) because the interpreter turns a NaN comparison
//! into a row-level error that short-circuits through AND/OR exactly
//! like an exception — `NOT (NaN != x)` keeps no rows even though a
//! naive "NaN compares false" vectorization would keep all of them.
//!
//! The kernel runs at lane speed, with no per-row branch, clear or call:
//! - **Lanes are never cleared.** Registers keep their capacity and the
//!   previous batch's values across runs; every instruction writes its
//!   whole lane, except the hinted sources (`DIST` and frame
//!   coordinates), whose unhinted rows are unspecified anyway.
//! - **Masks are written a word at a time.** Comparisons, `BETWEEN` and
//!   class tests pack 64 row flags into one word and store it once; a
//!   NaN comparison sets the row's error bit, and bits past the batch
//!   stay clear.
//! - **Folds are lane-wise, in row order.** An in-scan aggregate gets
//!   each argument's whole lane plus the selection
//!   ([`CompiledAggInputs::fold`]); the sink counts by popcount and folds
//!   values over the set bits in ascending row order, so partials round
//!   exactly as one row-at-a-time update per row would.
//!
//! Paper mapping: the tag partition is the vertical slice of the 10
//! popular attributes; this is the execution engine that makes scanning
//! that slice run at memory bandwidth instead of deserialization speed.

use crate::ast::{BinOp, Expr, UnOp, Value};
use crate::plan::spatial_to_domain;
use sdss_catalog::ObjClass;
use sdss_htm::Domain;
use sdss_skycoords::{Rotation, SkyPos, UnitVec3};
use sdss_storage::{ColumnBatch, SelectionMask, BATCH_ROWS};

/// Where a numeric lane loads from.
#[derive(Debug, Clone, Copy)]
enum NumSrc {
    Const(f64),
    /// `objid` as f64 — matches the interpreter's mixed Id/Num compares.
    ObjId,
    X,
    Y,
    Z,
    /// Band magnitude, widened f32 → f64.
    Mag(u8),
    /// Color `mags[a] - mags[b]`, subtracted in f32 *then* widened
    /// (identical rounding to `TagObject::color_*() as f64`).
    Color(u8, u8),
    Size,
    /// The chunk's derived `ra`/`dec` lanes (filled once per row at
    /// push time through `SkyPos::from_unit_vec`), copied like `X`.
    Ra,
    Dec,
}

/// One bytecode instruction. `u8` operands index the numeric or mask
/// register files of [`BatchScratch`].
#[derive(Debug, Clone)]
enum Inst {
    Load {
        src: NumSrc,
        dst: u8,
    },
    Arith {
        op: BinOp,
        a: u8,
        b: u8,
        dst: u8,
    },
    Neg {
        a: u8,
        dst: u8,
    },
    Abs {
        a: u8,
        dst: u8,
    },
    Sqrt {
        a: u8,
        dst: u8,
    },
    Log10 {
        a: u8,
        dst: u8,
    },
    /// Angular distance (degrees) to a fixed target direction.
    Dist {
        target: UnitVec3,
        dst: u8,
    },
    /// Latitude/longitude in a fixed rotated frame.
    FrameCoord {
        rot: Rotation,
        lat: bool,
        dst: u8,
    },
    /// Numeric comparison producing a tri-state mask: NaN on either side
    /// marks the row *errored* (the interpreter's comparison error).
    Cmp {
        op: BinOp,
        a: u8,
        b: u8,
        dst: u8,
    },
    /// `x BETWEEN lo AND hi` (inclusive).
    Between {
        x: u8,
        lo: u8,
        hi: u8,
        dst: u8,
    },
    /// `class = <literal>` as a byte compare (no string materialized).
    ClassCmp {
        byte: u8,
        ne: bool,
        dst: u8,
    },
    ConstMask {
        value: bool,
        dst: u8,
    },
    AndMask {
        a: u8,
        b: u8,
        dst: u8,
    },
    OrMask {
        a: u8,
        b: u8,
        dst: u8,
    },
    NotMask {
        a: u8,
        dst: u8,
    },
    /// Row-wise geometric containment (spatial factors inside OR trees).
    SpatialMask {
        domain: Domain,
        dst: u8,
    },
}

/// A three-valued boolean lane: per row exactly one of
/// `val` (true), `err` (interpreter would have errored), or neither
/// (false). Invariant: `val & err == 0`.
#[derive(Debug, Clone)]
struct TriMask {
    val: SelectionMask,
    err: SelectionMask,
}

impl Default for TriMask {
    fn default() -> TriMask {
        TriMask::false_all(0)
    }
}

impl TriMask {
    fn false_all(rows: usize) -> TriMask {
        TriMask {
            val: SelectionMask::none_set(rows),
            err: SelectionMask::none_set(rows),
        }
    }

    /// Reset in place to all-false for `rows` rows (no allocation when
    /// capacity suffices).
    fn reset(&mut self, rows: usize) {
        self.val.reset_false(rows);
        self.err.reset_false(rows);
    }
}

/// Register files reused across batches (one per scan thread).
#[derive(Debug, Default)]
pub struct BatchScratch {
    num: Vec<Vec<f64>>,
    mask: Vec<TriMask>,
}

impl BatchScratch {
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    fn prepare(&mut self, n_num: usize, n_mask: usize, rows: usize) {
        self.num
            .resize_with(n_num.max(self.num.len()), || Vec::with_capacity(BATCH_ROWS));
        // No clear: see `Program::run`.
        for lane in self.num.iter_mut().take(n_num) {
            lane.resize(rows, 0.0);
        }
        // Mask registers reset in place: each is written exactly once
        // per program run (SSA), so stale capacity is safe to reuse, and
        // `ConstMask { false }` relies on the clear.
        self.mask
            .resize_with(n_mask.max(self.mask.len()), || TriMask::false_all(0));
        for m in self.mask.iter_mut().take(n_mask) {
            m.reset(rows);
        }
    }
}

/// A compiled program: straight-line instructions plus the output
/// register. Predicates output a mask; projections output a numeric lane.
#[derive(Debug, Clone)]
struct Program {
    insts: Vec<Inst>,
    n_num: usize,
    n_mask: usize,
    out: u8,
}

impl Program {
    /// Run every instruction over one batch. Numeric lanes are resized,
    /// never cleared: each instruction overwrites its whole lane, so a
    /// register may hold an earlier batch's values only where nothing
    /// reads them. Mask registers are reset, then built a word at a time.
    ///
    /// `hint`: rows already known to be dropped (cover-rejected,
    /// predicate-failed) may produce garbage lanes — the per-row
    /// geometric sources (DIST, frame rotations, spatial containment)
    /// compute only hinted rows and leave the rest as the last run left
    /// them. Callers must never read results for unhinted rows.
    fn run(
        &self,
        batch: &ColumnBatch<'_>,
        scratch: &mut BatchScratch,
        hint: Option<&SelectionMask>,
    ) {
        let rows = batch.len();
        scratch.prepare(self.n_num, self.n_mask, rows);
        for inst in &self.insts {
            exec_inst(inst, batch, scratch, rows, hint);
        }
    }
}

/// Iterate either every row or only the hinted rows.
#[inline]
fn each_row(rows: usize, hint: Option<&SelectionMask>, mut f: impl FnMut(usize)) {
    match hint {
        Some(mask) => mask.iter_set().for_each(&mut f),
        None => (0..rows).for_each(&mut f),
    }
}

fn exec_inst(
    inst: &Inst,
    batch: &ColumnBatch<'_>,
    scratch: &mut BatchScratch,
    rows: usize,
    hint: Option<&SelectionMask>,
) {
    match inst {
        Inst::Load { src, dst } => {
            let lane = &mut scratch.num[*dst as usize];
            match src {
                NumSrc::Const(v) => lane.iter_mut().for_each(|x| *x = *v),
                NumSrc::ObjId => {
                    for (x, &id) in lane.iter_mut().zip(batch.obj_id) {
                        *x = id as f64;
                    }
                }
                NumSrc::X => lane.copy_from_slice(batch.x),
                NumSrc::Y => lane.copy_from_slice(batch.y),
                NumSrc::Z => lane.copy_from_slice(batch.z),
                NumSrc::Mag(b) => {
                    for (x, &m) in lane.iter_mut().zip(batch.mags[*b as usize]) {
                        *x = m as f64;
                    }
                }
                NumSrc::Color(a, b) => {
                    let (ca, cb) = (batch.mags[*a as usize], batch.mags[*b as usize]);
                    for (x, (&ma, &mb)) in lane.iter_mut().zip(ca.iter().zip(cb)) {
                        *x = (ma - mb) as f64;
                    }
                }
                NumSrc::Size => {
                    for (x, &s) in lane.iter_mut().zip(batch.size) {
                        *x = s as f64;
                    }
                }
                NumSrc::Ra => lane.copy_from_slice(batch.ra),
                NumSrc::Dec => lane.copy_from_slice(batch.dec),
            }
        }
        Inst::Arith { op, a, b, dst } => {
            // `dst` is always a fresh SSA register, but `a` and `b` may
            // alias each other (e.g. `diff * diff` from COLORDIST).
            let av = std::mem::take(&mut scratch.num[*a as usize]);
            let bv = if a == b {
                None
            } else {
                Some(std::mem::take(&mut scratch.num[*b as usize]))
            };
            {
                let bs: &[f64] = bv.as_deref().unwrap_or(&av);
                let lane = &mut scratch.num[*dst as usize];
                let terms = av.iter().zip(bs).take(rows);
                match op {
                    BinOp::Add => {
                        for (out, (x, y)) in lane.iter_mut().zip(terms) {
                            *out = x + y;
                        }
                    }
                    BinOp::Sub => {
                        for (out, (x, y)) in lane.iter_mut().zip(terms) {
                            *out = x - y;
                        }
                    }
                    BinOp::Mul => {
                        for (out, (x, y)) in lane.iter_mut().zip(terms) {
                            *out = x * y;
                        }
                    }
                    BinOp::Div => {
                        for (out, (x, y)) in lane.iter_mut().zip(terms) {
                            *out = x / y;
                        }
                    }
                    _ => unreachable!("non-arithmetic op in Arith"),
                }
            }
            scratch.num[*a as usize] = av;
            if let Some(bv) = bv {
                scratch.num[*b as usize] = bv;
            }
        }
        Inst::Neg { a, dst }
        | Inst::Abs { a, dst }
        | Inst::Sqrt { a, dst }
        | Inst::Log10 { a, dst } => {
            let av = std::mem::take(&mut scratch.num[*a as usize]);
            let lane = &mut scratch.num[*dst as usize];
            let pairs = lane.iter_mut().zip(av.iter().take(rows));
            match inst {
                Inst::Neg { .. } => pairs.for_each(|(out, x)| *out = -x),
                Inst::Abs { .. } => pairs.for_each(|(out, x)| *out = x.abs()),
                Inst::Sqrt { .. } => pairs.for_each(|(out, x)| *out = x.sqrt()),
                _ => pairs.for_each(|(out, x)| *out = x.log10()),
            }
            scratch.num[*a as usize] = av;
        }
        Inst::Dist { target, dst } => {
            let lane = &mut scratch.num[*dst as usize];
            each_row(rows, hint, |i| {
                lane[i] = batch.unit_vec(i).separation_deg(*target);
            });
        }
        Inst::FrameCoord { rot, lat, dst } => {
            let lane = &mut scratch.num[*dst as usize];
            each_row(rows, hint, |i| {
                let pos = SkyPos::from_unit_vec(rot.apply(batch.unit_vec(i)));
                lane[i] = if *lat { pos.dec_deg() } else { pos.ra_deg() };
            });
        }
        Inst::Cmp { op, a, b, dst } => {
            let m = &mut scratch.mask[*dst as usize];
            let (av, bv) = (
                &scratch.num[*a as usize][..rows],
                &scratch.num[*b as usize][..rows],
            );
            match op {
                BinOp::Lt => cmp_words(av, bv, m, |x, y| x < y),
                BinOp::Le => cmp_words(av, bv, m, |x, y| x <= y),
                BinOp::Gt => cmp_words(av, bv, m, |x, y| x > y),
                BinOp::Ge => cmp_words(av, bv, m, |x, y| x >= y),
                BinOp::Eq => cmp_words(av, bv, m, |x, y| x == y),
                BinOp::Ne => cmp_words(av, bv, m, |x, y| x != y),
                _ => unreachable!("non-comparison op in Cmp"),
            }
        }
        Inst::Between { x, lo, hi, dst } => {
            // The interpreter computes `x >= lo && x <= hi` with plain
            // float comparisons: NaN is false here, never an error.
            let (xv, lov, hiv) = (
                &scratch.num[*x as usize][..rows],
                &scratch.num[*lo as usize][..rows],
                &scratch.num[*hi as usize][..rows],
            );
            let words = scratch.mask[*dst as usize].val.words_mut();
            let lanes = xv.chunks(64).zip(lov.chunks(64)).zip(hiv.chunks(64));
            for (w, ((xs, los), his)) in words.iter_mut().zip(lanes) {
                let rows = xs.iter().zip(los).zip(his);
                *w = pack(rows.map(|((x, lo), hi)| (x >= lo) & (x <= hi)));
            }
        }
        Inst::ClassCmp { byte, ne, dst } => {
            let words = scratch.mask[*dst as usize].val.words_mut();
            for (w, cs) in words.iter_mut().zip(batch.class.chunks(64)) {
                *w = pack(cs.iter().map(|c| (c == byte) != *ne));
            }
        }
        Inst::ConstMask { value, dst } => {
            if *value {
                let m = &mut scratch.mask[*dst as usize];
                m.val.words_mut().fill(u64::MAX);
                m.val.normalize();
            }
            // false: the register was prepared all-clear.
        }
        // AND/OR mirror the interpreter's short-circuit error flow:
        //   AND: False wins over Error on the left; a left Error poisons;
        //        a left True exposes the right (value or error).
        //   OR:  True wins over Error on the left; a left Error poisons;
        //        a left False exposes the right.
        // `dst` is fresh (SSA) and distinct from `a`/`b`; take it out to
        // read the operands by shared reference — no mask clones.
        Inst::AndMask { a, b, dst } => {
            let mut out = std::mem::take(&mut scratch.mask[*dst as usize]);
            let (am, bm) = (&scratch.mask[*a as usize], &scratch.mask[*b as usize]);
            for i in 0..out.val.words().len() {
                let (av, ae) = (am.val.words()[i], am.err.words()[i]);
                let (bv, be) = (bm.val.words()[i], bm.err.words()[i]);
                out.val.words_mut()[i] = av & bv;
                out.err.words_mut()[i] = ae | (av & be);
            }
            out.val.normalize();
            out.err.normalize();
            scratch.mask[*dst as usize] = out;
        }
        Inst::OrMask { a, b, dst } => {
            let mut out = std::mem::take(&mut scratch.mask[*dst as usize]);
            let (am, bm) = (&scratch.mask[*a as usize], &scratch.mask[*b as usize]);
            for i in 0..out.val.words().len() {
                let (av, ae) = (am.val.words()[i], am.err.words()[i]);
                let (bv, be) = (bm.val.words()[i], bm.err.words()[i]);
                out.val.words_mut()[i] = av | (!ae & bv);
                out.err.words_mut()[i] = ae | (!av & be);
            }
            out.val.normalize();
            out.err.normalize();
            scratch.mask[*dst as usize] = out;
        }
        Inst::NotMask { a, dst } => {
            let mut out = std::mem::take(&mut scratch.mask[*dst as usize]);
            let am = &scratch.mask[*a as usize];
            for i in 0..out.val.words().len() {
                let (av, ae) = (am.val.words()[i], am.err.words()[i]);
                out.val.words_mut()[i] = !av & !ae;
                out.err.words_mut()[i] = ae;
            }
            out.val.normalize();
            out.err.normalize();
            scratch.mask[*dst as usize] = out;
        }
        Inst::SpatialMask { domain, dst } => {
            let mut m = std::mem::take(&mut scratch.mask[*dst as usize]);
            each_row(rows, hint, |i| {
                if domain.contains(batch.unit_vec(i)) {
                    m.val.set(i);
                }
            });
            scratch.mask[*dst as usize] = m;
        }
    }
}

/// One mask word from up to 64 row flags: bit `j` is the `j`-th flag,
/// bits past the last flag stay clear. The flags land as 0/1 bytes (a
/// compare loop the compiler vectorizes), then each 8 bytes gather into
/// 8 bits with one multiply: byte `i` times `GATHER` puts its bit at
/// 56 + `i`, and no two partial products overlap. No per-row branch, and
/// the word is stored once.
#[inline(always)]
fn pack(flags: impl Iterator<Item = bool>) -> u64 {
    /// The sum over `i` in 0..8 of `1 << (56 - 7 * i)`.
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut bytes = [0u8; 64];
    for (b, f) in bytes.iter_mut().zip(flags) {
        *b = u8::from(f);
    }
    bytes.chunks_exact(8).enumerate().fold(0, |w, (k, c)| {
        let c = c.try_into().expect("chunks_exact(8) yields 8 bytes");
        w | (u64::from_le_bytes(c).wrapping_mul(GATHER) >> 56) << (8 * k)
    })
}

/// Fill a [`TriMask`] with `keep(a[i], b[i])`, a word at a time. A
/// NaN on either side sets the row's `err` bit instead (`partial_cmp` on
/// a NaN is `None`, which the interpreter surfaces as a row-level error),
/// so `val & err == 0` even for `!=`, which NaN would satisfy.
#[inline(always)]
fn cmp_words(a: &[f64], b: &[f64], m: &mut TriMask, keep: impl Fn(f64, f64) -> bool) {
    let (val, err) = (m.val.words_mut(), m.err.words_mut());
    let lanes = a.chunks(64).zip(b.chunks(64));
    for ((v, e), (xs, ys)) in val.iter_mut().zip(err.iter_mut()).zip(lanes) {
        let rows = || xs.iter().zip(ys);
        let nan = pack(rows().map(|(x, y)| x.is_nan() | y.is_nan()));
        *v = pack(rows().map(|(&x, &y)| keep(x, y))) & !nan;
        *e = nan;
    }
}

/// A compiled boolean predicate over tag column batches.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    program: Program,
}

impl CompiledPredicate {
    /// Evaluate over one batch; the returned mask has bit `i` set iff
    /// the predicate held on row `i` (errored rows are not set — the
    /// interpreter drops them the same way).
    pub fn eval<'m>(
        &self,
        batch: &ColumnBatch<'_>,
        scratch: &'m mut BatchScratch,
    ) -> &'m SelectionMask {
        self.eval_hinted(batch, scratch, None)
    }

    /// Like [`CompiledPredicate::eval`] but rows outside `hint` are
    /// *unspecified* in the result — callers that AND the result with
    /// `hint` anyway (the scan path: hint is the cover mask) use this to
    /// skip per-row geometry for rows the cover already rejected.
    pub fn eval_hinted<'m>(
        &self,
        batch: &ColumnBatch<'_>,
        scratch: &'m mut BatchScratch,
        hint: Option<&SelectionMask>,
    ) -> &'m SelectionMask {
        self.program.run(batch, scratch, hint);
        &scratch.mask[self.program.out as usize].val
    }

    /// Instruction count (EXPLAIN / tests).
    pub fn len(&self) -> usize {
        self.program.insts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.program.insts.is_empty()
    }
}

/// How one projected column materializes values.
#[derive(Debug, Clone)]
enum ProjColumn {
    /// Numeric program → `Value::Num` per selected row.
    Num(Program),
    /// `objid` passthrough → exact `Value::Id`.
    ObjId,
    /// `class` byte → `Value::Str` of the class name.
    Class,
}

/// A compiled projection: one column plan per output column.
#[derive(Debug, Clone)]
pub struct CompiledProjection {
    columns: Vec<ProjColumn>,
}

impl CompiledProjection {
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Project the selected rows of one batch into an owned
    /// [`ColumnarBatch`](crate::exec::ColumnarBatch): typed column
    /// vectors, no per-row `Vec<Value>` and no string materialization —
    /// the batch-native form the channel fabric ships. Rows materialize
    /// only at the consumer edge, one row-major `RowBlock` per batch via
    /// `ResultBatch::rows`.
    pub fn eval_batch(
        &self,
        batch: &ColumnBatch<'_>,
        sel: &SelectionMask,
        scratch: &mut BatchScratch,
    ) -> crate::exec::ColumnarBatch {
        use crate::exec::ColumnData;
        // `iter_set` has no size hint; pre-size every gather from the
        // mask popcount so no column reallocates mid-fill.
        let n = sel.count();
        let columns = self
            .columns
            .iter()
            .map(|col| match col {
                ProjColumn::Num(prog) => {
                    prog.run(batch, scratch, Some(sel));
                    let lane = &scratch.num[prog.out as usize];
                    let mut v = Vec::with_capacity(n);
                    v.extend(sel.iter_set().map(|i| lane[i]));
                    ColumnData::Num(v)
                }
                ProjColumn::ObjId => {
                    let mut v = Vec::with_capacity(n);
                    v.extend(sel.iter_set().map(|i| batch.obj_id[i]));
                    ColumnData::Id(v)
                }
                ProjColumn::Class => {
                    let mut v = Vec::with_capacity(n);
                    v.extend(sel.iter_set().map(|i| batch.class[i]));
                    ColumnData::Class(v)
                }
            })
            .collect();
        crate::exec::ColumnarBatch::new(columns, n)
    }
}

/// Compiled aggregate argument lanes for **in-scan folding**: one
/// numeric program per aggregate (or none for `COUNT(*)`), evaluated
/// batch-at-a-time so scan workers fold `COUNT`/`SUM`/`MIN`/`MAX`
/// partials straight off the lanes.
#[derive(Debug, Clone)]
pub struct CompiledAggInputs {
    programs: Vec<Option<Program>>,
}

/// Compile the aggregate argument expressions; `None` falls back to the
/// row interpreter's in-scan fold.
pub fn compile_agg_inputs(args: &[Option<&Expr>]) -> Option<CompiledAggInputs> {
    let programs = args
        .iter()
        .map(|arg| match arg {
            None => Some(None),
            Some(e) => {
                let mut c = Compiler::default();
                let out = c.compile_num(e)?;
                Some(Some(c.finish(out)))
            }
        })
        .collect::<Option<Vec<_>>>()?;
    Some(CompiledAggInputs { programs })
}

impl CompiledAggInputs {
    pub fn width(&self) -> usize {
        self.programs.len()
    }

    /// Hand each aggregate's argument lane for one batch to
    /// `f(agg_index, lane)`, once per aggregate: `Some(lane)` holds, at
    /// every row `sel` keeps, exactly the value the row interpreter would
    /// fold (other rows are unspecified); `None` stands for the
    /// argument-less `COUNT(*)`. Lanes compute hinted by the selection,
    /// so unselected rows cost no per-row geometry; the caller folds the
    /// kept rows of each lane in ascending row order.
    pub fn fold(
        &self,
        batch: &ColumnBatch<'_>,
        sel: &SelectionMask,
        scratch: &mut BatchScratch,
        mut f: impl FnMut(usize, Option<&[f64]>),
    ) {
        for (i, prog) in self.programs.iter().enumerate() {
            match prog {
                Some(prog) => {
                    prog.run(batch, scratch, Some(sel));
                    f(i, Some(&scratch.num[prog.out as usize]));
                }
                None => f(i, None),
            }
        }
    }
}

/// Compile a residual predicate; `None` falls back to the interpreter.
pub fn compile_predicate(expr: &Expr) -> Option<CompiledPredicate> {
    let mut c = Compiler::default();
    let out = c.compile_mask(expr)?;
    Some(CompiledPredicate {
        program: c.finish(out),
    })
}

/// Compile a projection list; `None` falls back to the interpreter.
pub fn compile_projection(columns: &[(String, Expr)]) -> Option<CompiledProjection> {
    let cols = columns
        .iter()
        .map(|(_, e)| {
            Some(match e {
                Expr::Attr(a) if a == "objid" => ProjColumn::ObjId,
                Expr::Attr(a) if a == "class" => ProjColumn::Class,
                _ => {
                    let mut c = Compiler::default();
                    let out = c.compile_num(e)?;
                    ProjColumn::Num(c.finish(out))
                }
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(CompiledProjection { columns: cols })
}

#[derive(Default)]
struct Compiler {
    insts: Vec<Inst>,
    next_num: u16,
    next_mask: u16,
}

impl Compiler {
    fn finish(self, out: u8) -> Program {
        Program {
            insts: self.insts,
            n_num: self.next_num as usize,
            n_mask: self.next_mask as usize,
            out,
        }
    }

    fn alloc_num(&mut self) -> Option<u8> {
        if self.next_num >= 256 {
            return None; // absurdly deep expression: fall back
        }
        let r = self.next_num as u8;
        self.next_num += 1;
        Some(r)
    }

    fn alloc_mask(&mut self) -> Option<u8> {
        if self.next_mask >= 256 {
            return None;
        }
        let r = self.next_mask as u8;
        self.next_mask += 1;
        Some(r)
    }

    fn load(&mut self, src: NumSrc) -> Option<u8> {
        let dst = self.alloc_num()?;
        self.insts.push(Inst::Load { src, dst });
        Some(dst)
    }

    /// Lower a numeric-valued expression; `None` = not compilable.
    fn compile_num(&mut self, e: &Expr) -> Option<u8> {
        match e {
            Expr::Attr(name) => self.load(attr_src(name)?),
            Expr::Lit(Value::Num(v)) => self.load(NumSrc::Const(*v)),
            // Unbound parameters compile as constant placeholders so the
            // columnar gate can judge a prepared plan's shape; execution
            // always compiles the *bound* plan, where `$N` is already a
            // literal. (Parameters in literal-only positions — DIST
            // targets, frame names — still fall back conservatively.)
            Expr::Param(_) => self.load(NumSrc::Const(f64::NAN)),
            Expr::Unary(UnOp::Neg, a) => {
                let a = self.compile_num(a)?;
                let dst = self.alloc_num()?;
                self.insts.push(Inst::Neg { a, dst });
                Some(dst)
            }
            Expr::Bin(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div), a, b) => {
                let a = self.compile_num(a)?;
                let b = self.compile_num(b)?;
                let dst = self.alloc_num()?;
                self.insts.push(Inst::Arith { op: *op, a, b, dst });
                Some(dst)
            }
            Expr::Call(name, args) => self.compile_call(name, args),
            _ => None,
        }
    }

    fn compile_call(&mut self, name: &str, args: &[Expr]) -> Option<u8> {
        match name.to_ascii_uppercase().as_str() {
            "ABS" | "SQRT" | "LOG10" if args.len() == 1 => {
                let a = self.compile_num(&args[0])?;
                let dst = self.alloc_num()?;
                self.insts.push(match name.to_ascii_uppercase().as_str() {
                    "ABS" => Inst::Abs { a, dst },
                    "SQRT" => Inst::Sqrt { a, dst },
                    _ => Inst::Log10 { a, dst },
                });
                Some(dst)
            }
            "DIST" if args.len() == 2 => {
                // Only fixed targets compile; the interpreter handles the
                // (unusual) per-row target case.
                let (ra, dec) = (lit_num(&args[0])?, lit_num(&args[1])?);
                let target = SkyPos::new(ra, dec).ok()?.unit_vec();
                let dst = self.alloc_num()?;
                self.insts.push(Inst::Dist { target, dst });
                Some(dst)
            }
            fname @ ("FRAMELAT" | "FRAMELON") if args.len() == 1 => {
                let frame_name = lit_str(&args[0])?;
                let frame = crate::ops::parse_frame(frame_name).ok()?;
                let dst = self.alloc_num()?;
                self.insts.push(Inst::FrameCoord {
                    rot: frame.from_equatorial(),
                    lat: fname == "FRAMELAT",
                    dst,
                });
                Some(dst)
            }
            "COLORDIST" if args.len() == 4 => {
                // d = sqrt(Σ (ref_i − color_i)²), term order exactly as
                // the interpreter sums it.
                let refs: Vec<u8> = args
                    .iter()
                    .map(|a| self.compile_num(a))
                    .collect::<Option<Vec<_>>>()?;
                let colors = [
                    NumSrc::Color(0, 1),
                    NumSrc::Color(1, 2),
                    NumSrc::Color(2, 3),
                    NumSrc::Color(3, 4),
                ];
                let mut acc: Option<u8> = None;
                for (r, c) in refs.into_iter().zip(colors) {
                    let mine = self.load(c)?;
                    let diff = self.alloc_num()?;
                    self.insts.push(Inst::Arith {
                        op: BinOp::Sub,
                        a: r,
                        b: mine,
                        dst: diff,
                    });
                    let sq = self.alloc_num()?;
                    self.insts.push(Inst::Arith {
                        op: BinOp::Mul,
                        a: diff,
                        b: diff,
                        dst: sq,
                    });
                    acc = Some(match acc {
                        None => sq,
                        Some(prev) => {
                            let dst = self.alloc_num()?;
                            self.insts.push(Inst::Arith {
                                op: BinOp::Add,
                                a: prev,
                                b: sq,
                                dst,
                            });
                            dst
                        }
                    });
                }
                let a = acc.expect("four color terms");
                let dst = self.alloc_num()?;
                self.insts.push(Inst::Sqrt { a, dst });
                Some(dst)
            }
            _ => None,
        }
    }

    /// Lower a boolean-valued expression; `None` = not compilable.
    fn compile_mask(&mut self, e: &Expr) -> Option<u8> {
        match e {
            Expr::Lit(Value::Bool(b)) => {
                let dst = self.alloc_mask()?;
                self.insts.push(Inst::ConstMask { value: *b, dst });
                Some(dst)
            }
            Expr::Unary(UnOp::Not, a) => {
                let a = self.compile_mask(a)?;
                let dst = self.alloc_mask()?;
                self.insts.push(Inst::NotMask { a, dst });
                Some(dst)
            }
            Expr::Bin(BinOp::And, a, b) => {
                let a = self.compile_mask(a)?;
                let b = self.compile_mask(b)?;
                let dst = self.alloc_mask()?;
                self.insts.push(Inst::AndMask { a, b, dst });
                Some(dst)
            }
            Expr::Bin(BinOp::Or, a, b) => {
                let a = self.compile_mask(a)?;
                let b = self.compile_mask(b)?;
                let dst = self.alloc_mask()?;
                self.insts.push(Inst::OrMask { a, b, dst });
                Some(dst)
            }
            Expr::Bin(
                op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne),
                a,
                b,
            ) => {
                if let Some(mask) = self.try_class_cmp(*op, a, b) {
                    return mask;
                }
                let a = self.compile_num(a)?;
                let b = self.compile_num(b)?;
                let dst = self.alloc_mask()?;
                self.insts.push(Inst::Cmp { op: *op, a, b, dst });
                Some(dst)
            }
            Expr::Between(x, lo, hi) => {
                let x = self.compile_num(x)?;
                let lo = self.compile_num(lo)?;
                let hi = self.compile_num(hi)?;
                let dst = self.alloc_mask()?;
                self.insts.push(Inst::Between { x, lo, hi, dst });
                Some(dst)
            }
            Expr::Spatial(sp) => {
                let domain = spatial_to_domain(sp).ok()?;
                let dst = self.alloc_mask()?;
                self.insts.push(Inst::SpatialMask { domain, dst });
                Some(dst)
            }
            _ => None,
        }
    }

    /// `class = 'GALAXY'` (either side) → byte compare. Returns
    /// `Some(result)` when the shape matches, `None` to try numeric.
    fn try_class_cmp(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Option<Option<u8>> {
        let (attr, lit) = match (a, b) {
            (Expr::Attr(n), Expr::Lit(Value::Str(s))) if n == "class" => (n, s),
            (Expr::Lit(Value::Str(s)), Expr::Attr(n)) if n == "class" => (n, s),
            _ => return None,
        };
        let _ = attr;
        let ne = match op {
            BinOp::Eq => false,
            BinOp::Ne => true,
            // String ordering comparisons stay on the interpreter.
            _ => return Some(None),
        };
        // Match the interpreter's case-insensitive compare against the
        // class *display* names (`QSO`, not `QUASAR`).
        let byte = [
            ObjClass::Unknown,
            ObjClass::Star,
            ObjClass::Galaxy,
            ObjClass::Quasar,
        ]
        .into_iter()
        .find(|c| c.as_str().eq_ignore_ascii_case(lit))
        .map(|c| c as u8);
        Some(Some(match byte {
            Some(byte) => {
                let dst = self.alloc_mask()?;
                self.insts.push(Inst::ClassCmp { byte, ne, dst });
                dst
            }
            None => {
                // Unknown class name: `=` never matches, `!=` always does.
                let dst = self.alloc_mask()?;
                self.insts.push(Inst::ConstMask { value: ne, dst });
                dst
            }
        }))
    }
}

fn attr_src(name: &str) -> Option<NumSrc> {
    Some(match name {
        "objid" => NumSrc::ObjId,
        "cx" => NumSrc::X,
        "cy" => NumSrc::Y,
        "cz" => NumSrc::Z,
        "ra" => NumSrc::Ra,
        "dec" => NumSrc::Dec,
        "u" => NumSrc::Mag(0),
        "g" => NumSrc::Mag(1),
        "r" => NumSrc::Mag(2),
        "i" => NumSrc::Mag(3),
        "z" => NumSrc::Mag(4),
        "ug" => NumSrc::Color(0, 1),
        "gr" => NumSrc::Color(1, 2),
        "ri" => NumSrc::Color(2, 3),
        "iz" => NumSrc::Color(3, 4),
        "size" => NumSrc::Size,
        _ => return None,
    })
}

fn lit_num(e: &Expr) -> Option<f64> {
    match e {
        Expr::Lit(Value::Num(v)) => Some(*v),
        Expr::Unary(UnOp::Neg, inner) => match inner.as_ref() {
            Expr::Lit(Value::Num(v)) => Some(-v),
            _ => None,
        },
        _ => None,
    }
}

fn lit_str(e: &Expr) -> Option<&str> {
    match e {
        Expr::Lit(Value::Str(s)) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ast::{Query, SelectItem};
    use crate::ops::eval;
    use crate::parser::parse;
    use sdss_catalog::{SkyModel, TagObject};
    use sdss_storage::ColumnChunk;

    fn predicate_of(sql: &str) -> Expr {
        let q = parse(sql).unwrap();
        let Query::Select(s) = q else { panic!() };
        s.predicate.unwrap()
    }

    fn chunk_and_tags(n: usize, seed: u64) -> (ColumnChunk, Vec<TagObject>) {
        let objs = SkyModel::small(seed).generate().unwrap();
        let mut chunk = ColumnChunk::new();
        let tags: Vec<TagObject> = objs
            .iter()
            .take(n)
            .map(|o| {
                let t = TagObject::from_photo(o);
                chunk.push(&t, o.htm20);
                t
            })
            .collect();
        (chunk, tags)
    }

    /// The compiled mask must agree row-for-row with the interpreter.
    fn assert_matches_interpreter(sql_where: &str) {
        let pred = predicate_of(&format!("SELECT r FROM photoobj WHERE {sql_where}"));
        let compiled = compile_predicate(&pred)
            .unwrap_or_else(|| panic!("predicate should compile: {sql_where}"));
        let (chunk, tags) = chunk_and_tags(3000, 21);
        let mut scratch = BatchScratch::new();
        let mut row = 0usize;
        for batch in chunk.batches(1024) {
            let mask = compiled.eval(&batch, &mut scratch);
            for i in 0..batch.len() {
                let want = matches!(eval(&pred, &tags[row + i]), Ok(Value::Bool(true)));
                assert_eq!(mask.get(i), want, "{sql_where}: row {} disagrees", row + i);
            }
            row += batch.len();
        }
        assert_eq!(row, tags.len());
    }

    #[test]
    fn simple_comparisons_match() {
        assert_matches_interpreter("r < 20");
        assert_matches_interpreter("r >= 20.5");
        assert_matches_interpreter("g - r > 0.4");
        assert_matches_interpreter("gr > 0.4");
        assert_matches_interpreter("r BETWEEN 18 AND 20");
        assert_matches_interpreter("2 * r + 1 < 40");
        assert_matches_interpreter("size > 2.0");
        assert_matches_interpreter("u / g < 1.05");
    }

    #[test]
    fn boolean_logic_matches() {
        assert_matches_interpreter("r < 20 AND gr > 0.3");
        assert_matches_interpreter("r < 19 OR g < 19");
        assert_matches_interpreter("NOT (r < 20)");
        assert_matches_interpreter("r < 20 AND (gr > 0.3 OR ri > 0.2)");
    }

    #[test]
    fn class_compare_matches() {
        assert_matches_interpreter("class = 'GALAXY'");
        assert_matches_interpreter("class = 'galaxy'");
        assert_matches_interpreter("class != 'STAR'");
        assert_matches_interpreter("class = 'QSO'");
        assert_matches_interpreter("class = 'NOSUCH'");
        assert_matches_interpreter("class != 'NOSUCH'");
        assert_matches_interpreter("class = 'GALAXY' AND r < 20");
    }

    #[test]
    fn functions_match() {
        assert_matches_interpreter("DIST(185, 15) < 2.0");
        assert_matches_interpreter("ABS(gr) < 0.5");
        assert_matches_interpreter("SQRT(size) < 1.5");
        assert_matches_interpreter("LOG10(size) < 0.3");
        assert_matches_interpreter("FRAMELAT('GALACTIC') > 60");
        assert_matches_interpreter("FRAMELON('GAL') < 180");
        assert_matches_interpreter("COLORDIST(0.5, 0.4, 0.3, 0.2) < 0.6");
        assert_matches_interpreter("COLORDIST(ug, gr, ri, iz) < 0.001");
    }

    #[test]
    fn derived_positions_match() {
        assert_matches_interpreter("ra < 185");
        assert_matches_interpreter("dec BETWEEN 14 AND 16");
        assert_matches_interpreter("cx * cx + cy * cy > 0.9");
    }

    #[test]
    fn spatial_factor_in_or_matches() {
        assert_matches_interpreter("CIRCLE(185, 15, 1) OR r < 15");
    }

    #[test]
    fn nan_producing_predicates_match() {
        // SQRT of a negative and 0/0 produce NaN; the interpreter drops
        // those rows via comparison errors — so must the compiled path.
        assert_matches_interpreter("SQRT(0 - size) < 1");
        assert_matches_interpreter("(r - r) / (g - g) != 0");
        assert_matches_interpreter("LOG10(0 - 1) != LOG10(0 - 1)");
        // NaN under NOT/OR exposes the difference between "NaN compares
        // false" and the interpreter's error propagation: the errored
        // comparison must poison the row through boolean operators.
        assert_matches_interpreter("NOT (LOG10(0 - 1) != r)");
        assert_matches_interpreter("NOT (SQRT(0 - size) < 1)");
        assert_matches_interpreter("class = 'GALAXY' OR SQRT(0 - size) < 1");
        assert_matches_interpreter("SQRT(0 - size) < 1 OR class = 'GALAXY'");
        assert_matches_interpreter("NOT (NOT (SQRT(0 - size) < 1))");
        assert_matches_interpreter("r < 99 AND NOT (SQRT(0 - size) < 1)");
        // BETWEEN is plain float comparison in the interpreter: NaN is
        // false there, not an error — NOT must flip it back to true.
        assert_matches_interpreter("NOT (SQRT(0 - size) BETWEEN 0 AND 1)");
    }

    #[test]
    fn uncompilable_shapes_fall_back() {
        // Full-object attribute.
        assert!(
            compile_predicate(&predicate_of("SELECT ra FROM photoobj WHERE psf_r < 21")).is_none()
        );
        // Per-row DIST target.
        assert!(compile_predicate(&predicate_of(
            "SELECT ra FROM photoobj WHERE DIST(ra, 15) < 1"
        ))
        .is_none());
        // String ordering on class.
        assert!(compile_predicate(&predicate_of(
            "SELECT ra FROM photoobj WHERE class < 'STAR'"
        ))
        .is_none());
    }

    #[test]
    fn projection_matches_interpreter() {
        let q = parse("SELECT objid, ra, r, g - r, class FROM photoobj").unwrap();
        let Query::Select(s) = q else { panic!() };
        let cols: Vec<(String, Expr)> = s
            .items
            .iter()
            .map(|it| match it {
                SelectItem::Expr { expr, name } => (name.clone(), expr.clone()),
                _ => panic!(),
            })
            .collect();
        let proj = compile_projection(&cols).expect("projection compiles");
        assert_eq!(proj.width(), 5);

        let (chunk, tags) = chunk_and_tags(2000, 33);
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        for batch in chunk.batches(1024) {
            let sel = SelectionMask::all_set(batch.len());
            out.extend(
                proj.eval_batch(&batch, &sel, &mut scratch)
                    .rows()
                    .into_rows(),
            );
        }
        assert_eq!(out.len(), tags.len());
        for (row, tag) in out.iter().zip(tags.iter()) {
            for ((_, e), got) in cols.iter().zip(row.iter()) {
                let want = eval(e, tag).unwrap();
                assert_eq!(got, &want, "tag {}", tag.obj_id);
            }
        }
    }

    #[test]
    fn selective_projection_only_emits_selected() {
        let (chunk, tags) = chunk_and_tags(1000, 5);
        let proj =
            compile_projection(&[("objid".to_string(), Expr::Attr("objid".to_string()))]).unwrap();
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        for batch in chunk.batches(256) {
            let mut sel = SelectionMask::none_set(batch.len());
            for i in (0..batch.len()).step_by(3) {
                sel.set(i);
            }
            out.extend(
                proj.eval_batch(&batch, &sel, &mut scratch)
                    .rows()
                    .into_rows(),
            );
        }
        let want: Vec<u64> = tags
            .chunks(256)
            .flat_map(|c| c.iter().step_by(3))
            .map(|t| t.obj_id)
            .collect();
        let got: Vec<u64> = out
            .iter()
            .map(|r| match r[0] {
                Value::Id(id) => id,
                _ => panic!(),
            })
            .collect();
        assert_eq!(got, want);
    }

    /// The NaN an invalid operation yields on this platform. The catalog
    /// stores no NaN, so every NaN a query meets is this one; when two
    /// NaNs with different payloads meet in a sum, Rust leaves the result's
    /// payload to the compiler, which is why a NaN `SUM` or `AVG` finishes
    /// as `f64::NAN`.
    pub(crate) fn invalid_nan() -> f32 {
        std::hint::black_box(f32::INFINITY) - std::hint::black_box(f32::INFINITY)
    }

    /// Magnitudes that stress the kernel's edge cases: NaN, both zeros,
    /// both infinities (whose color differences are NaN), and the exact
    /// bounds the equivalence predicates compare against.
    fn specials() -> [f32; 14] {
        [
            invalid_nan(),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.5,
            20.0,
            0.25,
            -1.5,
            21.0,
            0.5,
            19.75,
            1e-30,
            -0.0,
        ]
    }

    /// A hand-built chunk of `len` rows cycling through [`specials`] at a
    /// different stride per band (so every pair of specials meets in some
    /// color), with sizes from the same list, every class, and positions
    /// spread over the sky.
    pub(crate) fn special_chunk(len: usize) -> ColumnChunk {
        let (specials, mut chunk) = (specials(), ColumnChunk::new());
        for k in 0..len {
            let pick = |stride: usize, off: usize| specials[(k * stride + off) % specials.len()];
            let pos = SkyPos::new((k as f64 * 7.3) % 360.0, (k as f64 * 3.1) % 180.0 - 90.0)
                .unwrap()
                .unit_vec();
            let tag = TagObject {
                obj_id: 1_000 + k as u64,
                x: pos.x(),
                y: pos.y(),
                z: pos.z(),
                mags: [pick(1, 0), pick(3, 1), pick(5, 2), pick(9, 3), pick(11, 4)],
                size: pick(13, 5),
                class: ObjClass::from_u8((k % 4) as u8).unwrap(),
            };
            chunk.push(&tag, 0);
        }
        chunk
    }

    /// The batch lengths around every word and batch edge.
    pub(crate) const EDGE_LENGTHS: [usize; 7] = [1025, 1, 64, 1023, 63, 1024, 65];

    #[test]
    fn kernel_masks_match_the_interpreter_at_every_edge() {
        let mut preds = Vec::new();
        for op in ["<", "<=", ">", ">=", "=", "!="] {
            preds.push(format!("r {op} 0.5"));
            preds.push(format!("gr {op} 0"));
            preds.push(format!("size {op} -0"));
            preds.push(format!("r {op} g"));
            preds.push(format!("NOT (ug {op} 20)"));
        }
        preds.extend(
            [
                "r BETWEEN 0.5 AND 20",
                "gr BETWEEN -0 AND 0.5",
                "r BETWEEN g AND i",
                "NOT (r BETWEEN 0.5 AND 20)",
                "class = 'GALAXY'",
                "class != 'STAR'",
                "class = 'QSO'",
                "NOT (class = 'UNKNOWN')",
                "NOT (r < 0.5) AND class = 'STAR'",
                "r < 0.5 OR NOT (gr >= 0)",
                "NOT (gr != gr) OR class = 'GALAXY'",
                "(r > 20 AND gr < 0.5) OR NOT (i = z)",
                "NOT (ri < 0 AND ri >= 0)",
                "size > 0 AND NOT (u <= 0.25 OR iz > 1)",
            ]
            .map(String::from),
        );
        // One scratch across every predicate and length, long batches
        // before short ones: registers start each run holding another
        // program's or a longer batch's values.
        let mut scratch = BatchScratch::new();
        for len in EDGE_LENGTHS {
            let chunk = special_chunk(len);
            let batch = chunk.batches(len).next().unwrap();
            assert_eq!(batch.len(), len);
            for sql in &preds {
                let pred = predicate_of(&format!("SELECT r FROM photoobj WHERE {sql}"));
                let compiled = compile_predicate(&pred).unwrap_or_else(|| panic!("{sql}"));
                let mask = compiled.eval(&batch, &mut scratch);
                assert_eq!(mask.len(), len);
                let mut want = 0;
                for i in 0..len {
                    let keep = matches!(eval(&pred, &batch.row(i)), Ok(Value::Bool(true)));
                    want += usize::from(keep);
                    assert_eq!(mask.get(i), keep, "{sql}: row {i} of {len}");
                }
                // The popcount sees bits past `len`: a set tail bit fails.
                assert_eq!(mask.count(), want, "{sql}: tail bits at length {len}");
                assert!(mask.iter_set().all(|i| i < len), "{sql} at {len}");
            }
        }
    }

    #[test]
    fn hinted_lanes_leave_hinted_rows_exact_after_any_batch() {
        // DIST and FRAMELAT compute only hinted rows and leave the rest
        // of the lane as the previous batch left it; the hinted rows must
        // still match the interpreter.
        let mut scratch = BatchScratch::new();
        for sql in ["DIST(120, -30) < 60", "NOT (FRAMELAT('GALACTIC') > 10)"] {
            let pred = predicate_of(&format!("SELECT r FROM photoobj WHERE {sql}"));
            let compiled = compile_predicate(&pred).unwrap();
            for len in EDGE_LENGTHS {
                let chunk = special_chunk(len);
                let batch = chunk.batches(len).next().unwrap();
                let mut hint = SelectionMask::none_set(len);
                (0..len).filter(|i| i % 3 != 1).for_each(|i| hint.set(i));
                let mut got = compiled
                    .eval_hinted(&batch, &mut scratch, Some(&hint))
                    .clone();
                got.and_with(&hint);
                for i in 0..len {
                    let keep =
                        hint.get(i) && matches!(eval(&pred, &batch.row(i)), Ok(Value::Bool(true)));
                    assert_eq!(got.get(i), keep, "{sql}: row {i} of {len}");
                }
            }
        }
    }
}
