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
        for lane in self.num.iter_mut().take(n_num) {
            lane.clear();
            lane.resize(rows, 0.0);
        }
        // Mask registers reset in place: each is written exactly once
        // per program run (SSA), so stale capacity is safe to reuse.
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
    /// `hint`: rows already known to be dropped (cover-rejected,
    /// predicate-failed) may produce garbage lanes — per-row
    /// transcendental sources (ra/dec/DIST/frame rotations/spatial
    /// containment) only compute hinted rows. Callers must never read
    /// results for unhinted rows.
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
                    for i in 0..rows {
                        lane[i] = (ca[i] - cb[i]) as f64;
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
            // dst is a fresh (all-false) register; fill it in place.
            let mut m = std::mem::take(&mut scratch.mask[*dst as usize]);
            let (av, bv) = (&scratch.num[*a as usize], &scratch.num[*b as usize]);
            for i in 0..rows {
                let (x, y) = (av[i], bv[i]);
                // `partial_cmp` on a NaN is `None`, which the interpreter
                // surfaces as a row-level error.
                if x.is_nan() || y.is_nan() {
                    m.err.set(i);
                    continue;
                }
                let keep = match op {
                    BinOp::Lt => x < y,
                    BinOp::Le => x <= y,
                    BinOp::Gt => x > y,
                    BinOp::Ge => x >= y,
                    BinOp::Eq => x == y,
                    BinOp::Ne => x != y,
                    _ => unreachable!("non-comparison op in Cmp"),
                };
                if keep {
                    m.val.set(i);
                }
            }
            scratch.mask[*dst as usize] = m;
        }
        Inst::Between { x, lo, hi, dst } => {
            // The interpreter computes `x >= lo && x <= hi` with plain
            // float comparisons: NaN is false here, never an error.
            let mut m = std::mem::take(&mut scratch.mask[*dst as usize]);
            let (xv, lov, hiv) = (
                &scratch.num[*x as usize],
                &scratch.num[*lo as usize],
                &scratch.num[*hi as usize],
            );
            for i in 0..rows {
                if xv[i] >= lov[i] && xv[i] <= hiv[i] {
                    m.val.set(i);
                }
            }
            scratch.mask[*dst as usize] = m;
        }
        Inst::ClassCmp { byte, ne, dst } => {
            let m = &mut scratch.mask[*dst as usize];
            for (i, &c) in batch.class.iter().enumerate() {
                if (c == *byte) != *ne {
                    m.val.set(i);
                }
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
    /// only at the consumer edge via `ResultBatch::rows`.
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

    /// Materialize the selected rows of one batch, appending to `out`.
    /// Columns evaluate lane-wise over the whole batch, then gather only
    /// the selected rows (column-major fill, so each program's scratch
    /// registers are free for the next).
    pub fn eval_into(
        &self,
        batch: &ColumnBatch<'_>,
        sel: &SelectionMask,
        scratch: &mut BatchScratch,
        out: &mut Vec<Vec<Value>>,
    ) {
        if !sel.any() {
            return;
        }
        let start = out.len();
        for _ in sel.iter_set() {
            out.push(Vec::with_capacity(self.columns.len()));
        }
        for col in &self.columns {
            match col {
                ProjColumn::Num(prog) => {
                    prog.run(batch, scratch, Some(sel));
                    let lane = &scratch.num[prog.out as usize];
                    for (k, i) in sel.iter_set().enumerate() {
                        out[start + k].push(Value::Num(lane[i]));
                    }
                }
                ProjColumn::ObjId => {
                    for (k, i) in sel.iter_set().enumerate() {
                        out[start + k].push(Value::Id(batch.obj_id[i]));
                    }
                }
                ProjColumn::Class => {
                    for (k, i) in sel.iter_set().enumerate() {
                        out[start + k].push(Value::Str(
                            ObjClass::from_u8(batch.class[i])
                                .expect("valid stored class")
                                .as_str()
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }
}

/// Compiled aggregate argument lanes for **in-scan folding**: one
/// numeric program per aggregate (or none for `COUNT(*)`), evaluated
/// batch-at-a-time so scan workers can fold `COUNT`/`SUM`/`MIN`/`MAX`
/// partials directly instead of shipping hidden `__agg_i` columns
/// through the channel fabric.
#[derive(Debug, Clone)]
pub struct CompiledAggInputs {
    programs: Vec<Option<Program>>,
}

/// Compile the aggregate argument expressions; `None` falls back to the
/// channel path (project `__agg_i` columns, fold in the Aggregate node).
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

    /// Fold the selected rows of one batch: calls `f(agg_index, value)`
    /// for every selected row of every aggregate, with exactly the value
    /// the channel path's `__agg_i` column would have carried (`None`
    /// only for argument-less `COUNT(*)`). Lanes compute hinted by the
    /// selection, so unselected rows cost nothing.
    pub fn fold(
        &self,
        batch: &ColumnBatch<'_>,
        sel: &SelectionMask,
        scratch: &mut BatchScratch,
        mut f: impl FnMut(usize, Option<f64>),
    ) {
        for (i, prog) in self.programs.iter().enumerate() {
            match prog {
                Some(prog) => {
                    prog.run(batch, scratch, Some(sel));
                    let lane = &scratch.num[prog.out as usize];
                    for r in sel.iter_set() {
                        f(i, Some(lane[r]));
                    }
                }
                None => {
                    for _ in sel.iter_set() {
                        f(i, None);
                    }
                }
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
mod tests {
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
            proj.eval_into(&batch, &sel, &mut scratch, &mut out);
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
            proj.eval_into(&batch, &sel, &mut scratch, &mut out);
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
}
