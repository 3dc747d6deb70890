//! One-pass lowering from the mini-C AST to register bytecode
//! ([`crate::bytecode`]).
//!
//! Mirrors the tree interpreter ([`crate::interp`]) construct by
//! construct — same fuel ticks, same charge order, same error points
//! (the rules are in the [`crate::bytecode`] module docs) — but
//! targets a virtual register frame. Scalars resolve to the low
//! registers (slots), expression temporaries are allocated above a
//! pre-scanned slot bound and reset per statement, and operands are
//! pre-decoded ([`Opnd`]) so the executor never touches a stack.
//! Global setup (constant initializers, global array allocation) is
//! evaluated at lowering time into the initial machine image, exactly
//! as `Interp::new` does — including its error cases, which surface as
//! lowering errors because the tree raises them before execution
//! starts.
//!
//! Fuel merging: pending ticks may only drift across instructions that
//! cannot raise a different error first and cannot be jumped over or
//! to, because the tree's fuel check can fire *between* any two
//! operations. Jumps, branches, throws, array checks, allocations,
//! dynamic scalar resolution and `/`/`%` (which can divide by zero)
//! therefore flush them first, and every jump target flushes too, so a
//! tick is never skipped or double-counted by a jump landing there.
//!
//! Scalar scoping: the tree keeps one map entry per name and scope, so
//! an unconditional redeclaration *replaces* the binding, while a bare
//! declaration in branch position (`if (c) int x;`) binds only when the
//! branch runs. Such conditional bindings get a flag slot and resolve
//! through a runtime [`Chain`]; leaving their scope clears the flags so
//! a re-executed region (the next loop iteration) starts unbound.
//!
//! Fusion happens here, at lowering time: whole subscript chains with
//! side-effect-free subscripts become one [`RInsn::Nav`]; a loop's
//! `i < N` condition becomes [`RInsn::CmpBr`] carrying the merged fuel
//! and the fall-through iteration charge; a loop's `i += 1` step plus
//! back edge becomes [`RInsn::StepJump`]. Cycle charges inside
//! lexically vectorized regions are pre-divided by the vector discount
//! (see [`Compiler2::eff`]) — the same `cost / w` division the tree
//! interpreter performs per charge, done once.
//!
//! Aliasing discipline: an operand may be a *slot* register, which a
//! later-evaluated subexpression could mutate through an assignment.
//! Whenever a slot operand is held across lowering of an expression
//! that contains any assignment, it is snapshotted into a temporary
//! first ([`Compiler2::shield`]), preserving the tree's left-to-right
//! evaluation of the original value. Temporaries are never mutated by
//! program effects, so they need no shielding.

use std::collections::{HashMap, HashSet};

use locus_srcir::ast::{BinOp, Expr, Item, Pragma, Program, Stmt, StmtKind, Type, UnOp};

use crate::bytecode::{
    AllocDesc, DimStep, Exe, HotLoopDesc, NavDesc, Opnd, RInsn, RTail, RegId, SubIdx, MAX_NAV_DIMS,
};
use crate::interp::{apply_bin, collect_auto_vectorizable, RuntimeError, Value};
use crate::runtime::{
    advance_base, array_init_data, ArrayCell, ArrayId, Builtin, CastKind, Chain, SlotId, ThrowKind,
};
use crate::MachineConfig;

/// Lowers `program` for running `entry`, mirroring the setup work and
/// setup-time errors of `Interp::new` + `Interp::run`.
pub(crate) fn compile(
    program: &Program,
    config: &MachineConfig,
    entry: &str,
) -> Result<Exe, RuntimeError> {
    let mut c = Compiler2::new(config);
    for item in &program.items {
        if let Item::Global(stmt) = item {
            c.compile_global(stmt)?;
        }
    }
    let f = program
        .function(entry)
        .ok_or_else(|| RuntimeError::UndefinedFunction(entry.to_string()))?;
    if !f.params.is_empty() {
        return Err(RuntimeError::Unsupported(format!(
            "entry `{entry}` must take no parameters"
        )));
    }
    if config.auto_vectorize {
        c.auto_vec = collect_auto_vectorizable(program);
    }
    let mut body_decls = 0;
    for stmt in &f.body {
        collect_local_array_decls(stmt, &mut c.local_array_decls);
        body_decls += count_scalar_decls(stmt);
    }
    // Temporaries live above every slot the body could ever allocate:
    // each scalar declaration binds at most a value slot plus a
    // conditional-flag slot. Overcounting only wastes frame entries.
    c.temp_base = c.n_slots + 2 * body_decls;
    c.next_temp = c.temp_base;
    c.high_water = c.temp_base;
    c.push_scope();
    for stmt in &f.body {
        c.compile_stmt(stmt, false);
    }
    c.pop_scope();
    c.emit(RInsn::Halt);
    Ok(c.finish())
}

/// Counts scalar (dimension-less) declarations inside `stmt`, nested
/// statements included — the pre-scan bounding the slot range.
fn count_scalar_decls(stmt: &Stmt) -> u32 {
    match &stmt.kind {
        StmtKind::Decl { dims, .. } => u32::from(dims.is_empty()),
        StmtKind::Block(stmts) => stmts.iter().map(count_scalar_decls).sum(),
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            count_scalar_decls(then_branch)
                + else_branch.as_ref().map_or(0, |e| count_scalar_decls(e))
        }
        StmtKind::For(f) => {
            f.init.as_ref().map_or(0, |i| count_scalar_decls(i)) + count_scalar_decls(&f.body)
        }
        StmtKind::While { body, .. } => count_scalar_decls(body),
        StmtKind::Expr(_) | StmtKind::Return(_) | StmtKind::Empty => 0,
    }
}

/// Collects every name declared with array dimensions inside `stmt`.
fn collect_local_array_decls(stmt: &Stmt, out: &mut HashSet<String>) {
    match &stmt.kind {
        StmtKind::Decl { name, dims, .. } => {
            if !dims.is_empty() {
                out.insert(name.clone());
            }
        }
        StmtKind::Block(stmts) => {
            for s in stmts {
                collect_local_array_decls(s, out);
            }
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_local_array_decls(then_branch, out);
            if let Some(e) = else_branch {
                collect_local_array_decls(e, out);
            }
        }
        StmtKind::For(f) => {
            if let Some(init) = &f.init {
                collect_local_array_decls(init, out);
            }
            collect_local_array_decls(&f.body, out);
        }
        StmtKind::While { body, .. } => collect_local_array_decls(body, out),
        StmtKind::Expr(_) | StmtKind::Return(_) | StmtKind::Empty => {}
    }
}

/// Whether `e` contains any assignment — the only expression form that
/// can mutate a scalar slot. Operands held across such expressions must
/// be shielded into temporaries.
fn expr_writes_scalars(e: &Expr) -> bool {
    match e {
        Expr::Assign { .. } => true,
        Expr::Unary { operand, .. } => expr_writes_scalars(operand),
        Expr::Binary { lhs, rhs, .. } => expr_writes_scalars(lhs) || expr_writes_scalars(rhs),
        Expr::Index { base, index } => expr_writes_scalars(base) || expr_writes_scalars(index),
        Expr::Call { args, .. } => args.iter().any(expr_writes_scalars),
        Expr::Cast { expr, .. } => expr_writes_scalars(expr),
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::StrLit(_) | Expr::Ident(_) => false,
    }
}

/// One statically resolved scalar binding.
#[derive(Debug, Clone, Copy)]
struct Binding {
    slot: SlotId,
    /// Set for conditional bare declarations (`if (c) int x;`).
    flag: Option<SlotId>,
}

/// Result of resolving a scalar name at a program point.
enum Resolution {
    Direct(SlotId),
    Chained(u32),
    Unbound,
}

/// The access a subscript chain feeds, before costs are discounted.
enum TailReq {
    Load,
    LoadBin { op: BinOp, cost_raw: f64, lhs: Opnd },
    Store { val: Opnd },
    Rmw { op: BinOp, cost_raw: f64, rhs: Opnd },
}

/// Cost constants snapshot (raw, undiscounted).
struct Costs {
    add: f64,
    mul: f64,
    div: f64,
    loop_iter: f64,
    loop_entry: f64,
}

struct Compiler2<'p> {
    config: &'p MachineConfig,
    k: Costs,
    /// Vector-discount divisor (pure function of config).
    w: f64,
    /// Lexical vectorized-loop nesting depth at the emission point.
    vec_depth: usize,
    code: Vec<RInsn>,
    /// Fuel ticks not yet materialized: adjacent ticks merge into one
    /// `RInsn::Fuel`, flushed before anything that can error or branch.
    fuel_pending: u32,
    scopes: Vec<HashMap<String, Vec<Binding>>>,
    n_slots: u32,
    /// First register usable as a temporary (>= every slot).
    temp_base: u32,
    /// Next free temporary; reset to `temp_base` at each statement.
    next_temp: u32,
    /// High-water mark of the register frame.
    high_water: u32,
    global_values: Vec<Value>,
    arrays: Vec<Option<ArrayCell>>,
    array_ids: HashMap<String, ArrayId>,
    array_names: Vec<String>,
    messages: Vec<String>,
    chains: Vec<Chain>,
    navs: Vec<NavDesc>,
    allocs: Vec<AllocDesc>,
    auto_vec: HashSet<usize>,
    local_array_decls: HashSet<String>,
    next_base: u64,
}

impl<'p> Compiler2<'p> {
    fn new(config: &'p MachineConfig) -> Compiler2<'p> {
        Compiler2 {
            config,
            k: Costs {
                add: config.cost.add,
                mul: config.cost.mul,
                div: config.cost.div,
                loop_iter: config.cost.loop_iter,
                loop_entry: config.cost.loop_entry,
            },
            w: config
                .cost
                .vector_discount
                .min(config.vector_width as f64)
                .max(1.0),
            vec_depth: 0,
            code: Vec::new(),
            fuel_pending: 0,
            scopes: vec![HashMap::new()],
            n_slots: 0,
            temp_base: 0,
            next_temp: 0,
            high_water: 0,
            global_values: Vec::new(),
            arrays: Vec::new(),
            array_ids: HashMap::new(),
            array_names: Vec::new(),
            messages: Vec::new(),
            chains: Vec::new(),
            navs: Vec::new(),
            allocs: Vec::new(),
            auto_vec: HashSet::new(),
            local_array_decls: HashSet::new(),
            next_base: 4096,
        }
    }

    fn finish(mut self) -> Exe {
        debug_assert_eq!(self.fuel_pending, 0, "Halt flushes pending fuel");
        let hotloops = fuse_hot_loops(&mut self.code);
        Exe {
            code: self.code,
            hotloops,
            n_regs: self.high_water as usize,
            global_values: self.global_values,
            arrays: self.arrays,
            array_names: self.array_names,
            messages: self.messages,
            chains: self.chains,
            navs: self.navs,
            allocs: self.allocs,
            next_base: self.next_base,
        }
    }

    /// The effective (possibly vector-discounted) form of a raw charge.
    /// The discount region is lexical, so this is a compile-time fold of
    /// the `vector_depth > 0` branch the tree takes per charge —
    /// the same single f64 division, so the accumulated cycles match
    /// bit for bit.
    fn eff(&self, cost: f64) -> f64 {
        if self.vec_depth > 0 {
            cost / self.w
        } else {
            cost
        }
    }

    // ---- emission -------------------------------------------------------

    /// Whether pending fuel must materialize before `insn` (see the
    /// module docs): a tick may only drift across instructions that
    /// cannot raise a different error first and cannot be jumped
    /// over/to. `CmpBr`/`StepJump`/`Nav` never appear here: they fold
    /// the pending ticks into their own leading `fuel` field.
    fn needs_fuel_flush(insn: &RInsn) -> bool {
        match insn {
            RInsn::Jump(_)
            | RInsn::BrFalsy { .. }
            | RInsn::AndSC { .. }
            | RInsn::OrSC { .. }
            | RInsn::Throw(..)
            | RInsn::Halt
            | RInsn::ArrayCheck { .. }
            | RInsn::IdxDim { .. }
            | RInsn::DimCheck { .. }
            | RInsn::AllocArray(_)
            | RInsn::LoadChain { .. }
            | RInsn::StoreChain { .. } => true,
            RInsn::Bin { op, .. }
            | RInsn::CompoundSet { op, .. }
            | RInsn::CompoundSetVal { op, .. }
            | RInsn::CompoundTmp { op, .. }
            | RInsn::RmwA { op, .. }
            | RInsn::LoadABin { op, .. } => matches!(op, BinOp::Div | BinOp::Rem),
            _ => false,
        }
    }

    fn emit(&mut self, insn: RInsn) {
        if Self::needs_fuel_flush(&insn) {
            self.flush_fuel();
        }
        self.code.push(insn);
    }

    fn fuel(&mut self, n: u32) {
        self.fuel_pending += n;
    }

    fn flush_fuel(&mut self) {
        if self.fuel_pending > 0 {
            self.code.push(RInsn::Fuel(self.fuel_pending));
            self.fuel_pending = 0;
        }
    }

    /// Drains the pending fuel for folding into a fused instruction's
    /// leading `fuel` field (equivalent to flushing right before it).
    fn take_fuel(&mut self) -> u32 {
        std::mem::take(&mut self.fuel_pending)
    }

    /// Current position as a jump target (flushes fuel: a tick must not
    /// be skipped or double-counted by a jump landing here).
    fn here(&mut self) -> u32 {
        self.flush_fuel();
        self.code.len() as u32
    }

    fn placeholder(&mut self, insn: RInsn) -> usize {
        self.emit(insn);
        self.code.len() - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            RInsn::Jump(t)
            | RInsn::BrFalsy { t, .. }
            | RInsn::CmpBr { t, .. }
            | RInsn::AndSC { t, .. }
            | RInsn::OrSC { t, .. } => *t = target,
            other => unreachable!("patching a non-jump instruction {other:?}"),
        }
    }

    fn intern_msg(&mut self, msg: String) -> u32 {
        if let Some(i) = self.messages.iter().position(|m| *m == msg) {
            return i as u32;
        }
        self.messages.push(msg);
        (self.messages.len() - 1) as u32
    }

    fn throw(&mut self, kind: ThrowKind, msg: String) {
        let m = self.intern_msg(msg);
        self.emit(RInsn::Throw(kind, m));
    }

    // ---- registers ------------------------------------------------------

    fn temp(&mut self) -> RegId {
        let r = self.next_temp;
        self.next_temp += 1;
        self.high_water = self.high_water.max(self.next_temp);
        r
    }

    /// Snapshots a slot operand into a temporary when `hazard` could
    /// mutate the slot before the operand is consumed. Temporaries and
    /// immediates are immune.
    fn shield(&mut self, opnd: Opnd, hazard: &Expr) -> Opnd {
        match opnd {
            Opnd::Reg(r) if r < self.temp_base && expr_writes_scalars(hazard) => {
                let t = self.temp();
                self.emit(RInsn::Mov { dst: t, src: opnd });
                Opnd::Reg(t)
            }
            _ => opnd,
        }
    }

    // ---- scopes and slots ----------------------------------------------

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    /// Pops a scope; conditional bindings that die with it get their
    /// flags cleared so a re-execution of the region starts unbound.
    fn pop_scope(&mut self) {
        let scope = self.scopes.pop().expect("scope stack is never empty");
        let mut flags: Vec<SlotId> = scope.values().flatten().filter_map(|b| b.flag).collect();
        flags.sort_unstable();
        for flag in flags {
            self.emit(RInsn::SetSlot {
                slot: flag,
                src: Opnd::ImmI(0),
            });
        }
    }

    fn new_slot(&mut self) -> SlotId {
        let s = self.n_slots;
        self.n_slots += 1;
        s
    }

    /// Binds a scalar declaration. `conditional` marks a bare decl in
    /// branch position (execution not guaranteed within its scope).
    /// Returns the value slot and, for fresh conditional bindings, the
    /// flag slot the declaration must set.
    fn bind_scalar(&mut self, name: &str, conditional: bool) -> (SlotId, Option<SlotId>) {
        if conditional {
            // A same-scope unconditional binding is *overwritten* by the
            // tree (one map entry per scope): reuse its slot, keeping
            // the redeclaration conditional for free.
            if let Some(vec) = self.scopes.last().expect("scope").get(name) {
                if let Some(last) = vec.last() {
                    if last.flag.is_none() {
                        return (last.slot, None);
                    }
                }
            }
            let slot = self.new_slot();
            let flag = self.new_slot();
            self.scopes
                .last_mut()
                .expect("scope")
                .entry(name.to_string())
                .or_default()
                .push(Binding {
                    slot,
                    flag: Some(flag),
                });
            (slot, Some(flag))
        } else {
            let slot = self.new_slot();
            let vec = self
                .scopes
                .last_mut()
                .expect("scope")
                .entry(name.to_string())
                .or_default();
            vec.clear();
            vec.push(Binding { slot, flag: None });
            (slot, None)
        }
    }

    fn resolve(&mut self, name: &str) -> Resolution {
        let mut guards: Vec<(SlotId, SlotId)> = Vec::new();
        let mut fallback = None;
        'walk: for scope in self.scopes.iter().rev() {
            if let Some(vec) = scope.get(name) {
                for b in vec.iter().rev() {
                    match b.flag {
                        None => {
                            fallback = Some(b.slot);
                            break 'walk;
                        }
                        Some(f) => guards.push((f, b.slot)),
                    }
                }
            }
        }
        match (guards.is_empty(), fallback) {
            (true, Some(slot)) => Resolution::Direct(slot),
            (true, None) => Resolution::Unbound,
            (false, _) => {
                let msg = self.intern_msg(name.to_string());
                self.chains.push(Chain {
                    guards,
                    fallback,
                    msg,
                });
                Resolution::Chained((self.chains.len() - 1) as u32)
            }
        }
    }

    fn array_id(&mut self, name: &str) -> ArrayId {
        if let Some(&id) = self.array_ids.get(name) {
            return id;
        }
        let id = self.array_names.len() as ArrayId;
        self.array_ids.insert(name.to_string(), id);
        self.array_names.push(name.to_string());
        self.arrays.push(None);
        id
    }

    // ---- global setup (compile-time evaluation) -------------------------

    fn compile_global(&mut self, stmt: &Stmt) -> Result<(), RuntimeError> {
        let StmtKind::Decl {
            ty,
            name,
            dims,
            init,
        } = &stmt.kind
        else {
            return Err(RuntimeError::Unsupported(
                "non-declaration at global scope".into(),
            ));
        };
        if dims.is_empty() {
            let value = match init {
                Some(e) => self.eval_const(e)?,
                None => match ty {
                    Type::Double | Type::Float => Value::Double(0.0),
                    _ => Value::Int(0),
                },
            };
            let (slot, _) = self.bind_scalar(name, false);
            debug_assert_eq!(slot as usize, self.global_values.len());
            self.global_values.push(value);
        } else {
            let mut dim_sizes = Vec::new();
            for d in dims {
                let v = self.eval_const(d)?.as_i64();
                if v <= 0 {
                    return Err(RuntimeError::BadArrayDim(name.clone()));
                }
                dim_sizes.push(v as usize);
            }
            let len = crate::runtime::checked_alloc_len(name, &dim_sizes)?;
            let id = self.array_id(name);
            let is_float = ty.is_float();
            let base = self.next_base;
            self.next_base = advance_base(self.next_base, len);
            self.arrays[id as usize] = Some(ArrayCell {
                is_float,
                data: array_init_data(len, is_float),
                base,
                dims: dim_sizes,
                local: false,
            });
        }
        Ok(())
    }

    fn eval_const(&self, e: &Expr) -> Result<Value, RuntimeError> {
        match e {
            Expr::IntLit(v) => Ok(Value::Int(*v)),
            Expr::FloatLit(v) => Ok(Value::Double(*v)),
            Expr::Unary {
                op: UnOp::Neg,
                operand,
            } => Ok(match self.eval_const(operand)? {
                Value::Int(v) => Value::Int(-v),
                Value::Double(v) => Value::Double(-v),
            }),
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval_const(lhs)?;
                let r = self.eval_const(rhs)?;
                apply_bin(*op, l, r)
            }
            Expr::Ident(name) => self.scopes[0]
                .get(name)
                .and_then(|vec| vec.last())
                .map(|b| self.global_values[b.slot as usize])
                .ok_or_else(|| RuntimeError::UndefinedVariable(name.clone())),
            _ => Err(RuntimeError::Unsupported(
                "non-constant global initializer".into(),
            )),
        }
    }

    // ---- statements -----------------------------------------------------

    fn compile_stmt(&mut self, stmt: &Stmt, in_branch: bool) {
        // Expression temporaries never outlive their statement; nested
        // statements only begin after every enclosing operand has been
        // consumed, so the reset is safe and keeps the frame small.
        self.next_temp = self.temp_base;
        self.fuel(1);
        match &stmt.kind {
            StmtKind::Empty => {}
            StmtKind::Expr(e) => self.lower_expr_drop(e),
            StmtKind::Decl {
                ty,
                name,
                dims,
                init,
            } => self.compile_decl(ty, name, dims, init.as_ref(), in_branch),
            StmtKind::Block(stmts) => {
                self.push_scope();
                for s in stmts {
                    self.compile_stmt(s, false);
                }
                self.pop_scope();
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let post = self.eff(self.k.add);
                let jf = self.lower_cond_branch(cond, post, 0.0);
                self.compile_stmt(then_branch, true);
                match else_branch {
                    Some(e) => {
                        let j = self.placeholder(RInsn::Jump(u32::MAX));
                        let t = self.here();
                        self.patch(jf, t);
                        self.compile_stmt(e, true);
                        let end = self.here();
                        self.patch(j, end);
                    }
                    None => {
                        let t = self.here();
                        self.patch(jf, t);
                    }
                }
            }
            StmtKind::While { cond, body } => {
                let entry = self.eff(self.k.loop_entry);
                self.emit(RInsn::Charge(entry));
                let top = self.here();
                self.fuel(1);
                let pcost = self.eff(self.k.loop_iter);
                let jf = self.lower_cond_branch(cond, 0.0, pcost);
                self.compile_stmt(body, true);
                self.emit(RInsn::Jump(top));
                let end = self.here();
                self.patch(jf, end);
            }
            StmtKind::For(_) => self.compile_for(stmt),
            StmtKind::Return(value) => {
                if let Some(e) = value {
                    self.lower_expr(e);
                }
                self.emit(RInsn::Halt);
            }
        }
    }

    /// Lowers a branch-on-false over `cond`. `post` is charged after
    /// the condition on both paths (an `if`'s trailing add); `pcost` is
    /// charged only on fall-through (a loop's per-iteration charge).
    /// Returns the placeholder index to patch with the false target.
    fn lower_cond_branch(&mut self, cond: &Expr, post: f64, pcost: f64) -> usize {
        // Fused path: a side-effect-free comparison of two simple
        // operands collapses into one CmpBr carrying the merged fuel.
        if let Expr::Binary { op, lhs, rhs } = cond {
            if !matches!(op, BinOp::And | BinOp::Or) {
                if let (Some((a, fa)), Some((b, fb))) =
                    (self.simple_opnd(lhs), self.simple_opnd(rhs))
                {
                    self.fuel(1 + fa + fb);
                    let fuel = self.take_fuel();
                    let cost = self.eff(self.bin_cost(*op));
                    return self.placeholder(RInsn::CmpBr {
                        fuel,
                        op: *op,
                        cost,
                        a,
                        b,
                        post,
                        t: u32::MAX,
                        pcost,
                    });
                }
            }
        }
        let v = self.lower_expr(cond);
        if post != 0.0 {
            self.emit(RInsn::Charge(post));
        }
        let p = self.placeholder(RInsn::BrFalsy {
            src: v,
            t: u32::MAX,
        });
        if pcost != 0.0 {
            self.emit(RInsn::Charge(pcost));
        }
        p
    }

    /// A side-effect-free operand evaluable inside a fused dispatch:
    /// a literal or a directly resolved scalar. Returns the operand and
    /// the fuel ticks its tree evaluation would cost.
    fn simple_opnd(&mut self, e: &Expr) -> Option<(Opnd, u32)> {
        match e {
            Expr::IntLit(v) => Some((Opnd::ImmI(*v), 1)),
            Expr::FloatLit(v) => Some((Opnd::ImmF(*v), 1)),
            Expr::Ident(name) => match self.resolve(name) {
                Resolution::Direct(slot) => Some((Opnd::Reg(slot), 1)),
                _ => None,
            },
            _ => None,
        }
    }

    fn compile_for(&mut self, stmt: &Stmt) {
        let StmtKind::For(f) = &stmt.kind else {
            unreachable!("compile_for called on a for loop")
        };
        let omp = stmt.pragmas.iter().find_map(|p| match p {
            Pragma::OmpParallelFor { schedule, .. } => Some(*schedule),
            _ => None,
        });
        let vectorized = stmt
            .pragmas
            .iter()
            .any(|p| matches!(p, Pragma::Ivdep | Pragma::VectorAlways))
            || self.auto_vec.contains(&(stmt as *const Stmt as usize));
        let par = omp.is_some() && self.config.cores > 1;

        self.push_scope();
        // Entry charge and init run at the *outer* vector depth (the
        // tree charges them before entering the vectorized region).
        let entry = self.eff(self.k.loop_entry);
        self.emit(RInsn::Charge(entry));
        if let Some(init) = &f.init {
            self.compile_stmt(init, false);
        }
        if vectorized {
            self.vec_depth += 1;
        }
        if par {
            self.emit(RInsn::ParEnter(omp.flatten()));
        }
        let top = self.here();
        self.fuel(1);
        // A parallel loop's iteration charge must land *after*
        // IterStart's timestamp, so it cannot ride the branch.
        let iter = self.eff(self.k.loop_iter);
        let jf = f
            .cond
            .as_ref()
            .map(|cond| self.lower_cond_branch(cond, 0.0, if par { 0.0 } else { iter }));
        if par {
            self.emit(RInsn::IterStart);
        }
        if par || jf.is_none() {
            self.emit(RInsn::Charge(iter));
        }
        self.compile_stmt(&f.body, true);
        match &f.step {
            Some(step) if !par => {
                if !self.try_fuse_step(step, top) {
                    self.lower_expr_drop(step);
                    self.emit(RInsn::Jump(top));
                }
            }
            Some(step) => {
                self.lower_expr_drop(step);
                self.emit(RInsn::IterEnd);
                self.emit(RInsn::Jump(top));
            }
            None => {
                if par {
                    self.emit(RInsn::IterEnd);
                }
                self.emit(RInsn::Jump(top));
            }
        }
        if let Some(jf) = jf {
            let end = self.here();
            self.patch(jf, end);
        }
        if par {
            self.emit(RInsn::ParExit);
        }
        if vectorized {
            self.vec_depth -= 1;
        }
        self.pop_scope();
    }

    /// Fuses a loop step of the form `slot ⊕= simple` plus the back
    /// edge into one [`RInsn::StepJump`]. Returns false (emitting
    /// nothing) when the step doesn't match.
    fn try_fuse_step(&mut self, step: &Expr, top: u32) -> bool {
        let Expr::Assign { op, lhs, rhs } = step else {
            return false;
        };
        let Some(bin) = op.to_bin_op() else {
            return false;
        };
        let Expr::Ident(name) = lhs.as_ref() else {
            return false;
        };
        let Some((rhs_opnd, fr)) = self.simple_opnd(rhs) else {
            return false;
        };
        let Resolution::Direct(slot) = self.resolve(name) else {
            return false;
        };
        let cost_raw = match bin {
            BinOp::Mul => self.k.mul,
            BinOp::Div => self.k.div,
            _ => self.k.add,
        };
        // Ticks: the statement-position assign (1) + the rhs (fr) + the
        // compound combine (1), all pending-merged into the dispatch.
        self.fuel(1 + fr + 1);
        let fuel = self.take_fuel();
        let cost = self.eff(cost_raw);
        self.code.push(RInsn::StepJump {
            fuel,
            op: bin,
            cost,
            slot,
            rhs: rhs_opnd,
            t: top,
        });
        true
    }

    fn compile_decl(
        &mut self,
        ty: &Type,
        name: &str,
        dims: &[Expr],
        init: Option<&Expr>,
        in_branch: bool,
    ) {
        if dims.is_empty() {
            // The initializer is evaluated *before* the name binds.
            let flag = match init {
                Some(e) => {
                    let v = self.lower_expr(e);
                    let (slot, flag) = self.bind_scalar(name, in_branch);
                    self.emit(RInsn::DeclSlot {
                        slot,
                        kind: cast_kind(ty),
                        src: v,
                    });
                    flag
                }
                None => {
                    let (slot, flag) = self.bind_scalar(name, in_branch);
                    self.emit(RInsn::DeclDefault {
                        slot,
                        is_float: ty.is_float(),
                    });
                    flag
                }
            };
            if let Some(flag) = flag {
                self.emit(RInsn::SetSlot {
                    slot: flag,
                    src: Opnd::ImmI(1),
                });
            }
        } else {
            let id = self.array_id(name);
            let mut dim_opnds = Vec::with_capacity(dims.len());
            for (i, d) in dims.iter().enumerate() {
                let v = self.lower_expr(d);
                self.emit(RInsn::DimCheck { id, v });
                // The alloc re-reads every extent at the end; shield
                // ones a later dimension expression could mutate.
                let v = match dims[i + 1..].iter().any(expr_writes_scalars) {
                    true => {
                        let t = self.temp();
                        self.emit(RInsn::Mov { dst: t, src: v });
                        Opnd::Reg(t)
                    }
                    false => v,
                };
                dim_opnds.push(v);
            }
            let a = self.allocs.len() as u32;
            self.allocs.push(AllocDesc {
                id,
                dims: dim_opnds,
                is_float: ty.is_float(),
            });
            self.emit(RInsn::AllocArray(a));
        }
    }

    // ---- expressions ----------------------------------------------------

    /// Lowers an expression whose value is discarded.
    fn lower_expr_drop(&mut self, e: &Expr) {
        if matches!(e, Expr::Assign { .. }) {
            self.fuel(1);
            self.lower_assign(e, false);
        } else {
            self.lower_expr(e);
        }
    }

    fn lower_expr(&mut self, e: &Expr) -> Opnd {
        self.fuel(1);
        match e {
            Expr::IntLit(v) => Opnd::ImmI(*v),
            Expr::FloatLit(v) => Opnd::ImmF(*v),
            Expr::StrLit(_) => Opnd::ImmI(0),
            Expr::Ident(name) => match self.resolve(name) {
                Resolution::Direct(slot) => Opnd::Reg(slot),
                Resolution::Chained(i) => {
                    let dst = self.temp();
                    self.emit(RInsn::LoadChain { chain: i, dst });
                    Opnd::Reg(dst)
                }
                Resolution::Unbound => {
                    self.throw(ThrowKind::UndefinedVariable, name.clone());
                    Opnd::ImmI(0)
                }
            },
            Expr::Index { .. } => self.lower_access(e, TailReq::Load),
            Expr::Unary { op, operand } => {
                let src = self.lower_expr(operand);
                match op {
                    UnOp::Neg => {
                        let dst = self.temp();
                        let cost = self.eff(self.k.add);
                        self.emit(RInsn::Neg { cost, dst, src });
                        Opnd::Reg(dst)
                    }
                    UnOp::Not => {
                        let dst = self.temp();
                        let cost = self.eff(self.k.add);
                        self.emit(RInsn::Not { cost, dst, src });
                        Opnd::Reg(dst)
                    }
                    UnOp::Deref | UnOp::Addr => {
                        self.throw(ThrowKind::Unsupported, "pointer operations".into());
                        Opnd::ImmI(0)
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs),
            Expr::Assign { .. } => self.lower_assign(e, true),
            Expr::Call { callee, args } => self.lower_call(callee, args),
            Expr::Cast { ty, expr } => {
                let src = self.lower_expr(expr);
                let dst = self.temp();
                let cost = self.eff(self.k.add);
                self.emit(RInsn::Cast {
                    kind: cast_kind(ty),
                    cost,
                    dst,
                    src,
                });
                Opnd::Reg(dst)
            }
        }
    }

    fn lower_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Opnd {
        match op {
            BinOp::And => {
                let l = self.lower_expr(lhs);
                let c = self.eff(self.k.add);
                self.emit(RInsn::Charge(c));
                let dst = self.temp();
                let p = self.placeholder(RInsn::AndSC {
                    src: l,
                    dst,
                    t: u32::MAX,
                });
                let r = self.lower_expr(rhs);
                self.emit(RInsn::Truthy { dst, src: r });
                let end = self.here();
                self.patch(p, end);
                Opnd::Reg(dst)
            }
            BinOp::Or => {
                let l = self.lower_expr(lhs);
                let c = self.eff(self.k.add);
                self.emit(RInsn::Charge(c));
                let dst = self.temp();
                let p = self.placeholder(RInsn::OrSC {
                    src: l,
                    dst,
                    t: u32::MAX,
                });
                let r = self.lower_expr(rhs);
                self.emit(RInsn::Truthy { dst, src: r });
                let end = self.here();
                self.patch(p, end);
                Opnd::Reg(dst)
            }
            _ => {
                let l = self.lower_expr(lhs);
                let l = self.shield(l, rhs);
                // `lhs ⊕ A[...]` fuses the load into the chain's tail.
                if matches!(rhs, Expr::Index { .. }) {
                    self.fuel(1);
                    return self.lower_access(
                        rhs,
                        TailReq::LoadBin {
                            op,
                            cost_raw: self.bin_cost(op),
                            lhs: l,
                        },
                    );
                }
                let r = self.lower_expr(rhs);
                let dst = self.temp();
                let cost = self.eff(self.bin_cost(op));
                self.emit(RInsn::Bin {
                    op,
                    cost,
                    dst,
                    a: l,
                    b: r,
                });
                Opnd::Reg(dst)
            }
        }
    }

    /// Lowers an assignment. The entry fuel for the `Assign` node must
    /// already be accounted by the caller.
    fn lower_assign(&mut self, e: &Expr, need_value: bool) -> Opnd {
        let Expr::Assign { op, lhs, rhs } = e else {
            unreachable!("lower_assign called on an assignment")
        };
        let r = self.lower_expr(rhs);
        let Some(bin) = op.to_bin_op() else {
            // Plain assignment: the expression's value is the
            // *uncoerced* rhs; the store coerces to the target's type.
            return match lhs.as_ref() {
                Expr::Ident(name) => match self.resolve(name) {
                    Resolution::Direct(slot) => {
                        self.emit(RInsn::SetSlot { slot, src: r });
                        r
                    }
                    Resolution::Chained(i) => {
                        self.emit(RInsn::StoreChain { chain: i, src: r });
                        r
                    }
                    Resolution::Unbound => {
                        self.throw(ThrowKind::UndefinedVariable, name.clone());
                        Opnd::ImmI(0)
                    }
                },
                Expr::Index { .. } => {
                    let val = self.shield(r, lhs);
                    self.lower_access(lhs, TailReq::Store { val })
                }
                other => {
                    self.throw(
                        ThrowKind::Unsupported,
                        format!("assignment target {other:?}"),
                    );
                    Opnd::ImmI(0)
                }
            };
        };
        let cost_raw = match bin {
            BinOp::Mul => self.k.mul,
            BinOp::Div => self.k.div,
            _ => self.k.add,
        };
        match lhs.as_ref() {
            Expr::Index { .. } => {
                // Read-modify-write of ONE located address.
                self.fuel(1);
                let rhs_v = self.shield(r, lhs);
                self.lower_access(
                    lhs,
                    TailReq::Rmw {
                        op: bin,
                        cost_raw,
                        rhs: rhs_v,
                    },
                )
            }
            Expr::Ident(name) => {
                self.fuel(1);
                match self.resolve(name) {
                    Resolution::Direct(slot) => {
                        let cost = self.eff(cost_raw);
                        if need_value {
                            let dst = self.temp();
                            self.emit(RInsn::CompoundSetVal {
                                op: bin,
                                cost,
                                slot,
                                rhs: r,
                                dst,
                            });
                            Opnd::Reg(dst)
                        } else {
                            self.emit(RInsn::CompoundSet {
                                op: bin,
                                cost,
                                slot,
                                rhs: r,
                            });
                            Opnd::ImmI(0)
                        }
                    }
                    Resolution::Chained(i) => {
                        let old = self.temp();
                        self.emit(RInsn::LoadChain { chain: i, dst: old });
                        let dst = self.temp();
                        let cost = self.eff(cost_raw);
                        self.emit(RInsn::CompoundTmp {
                            op: bin,
                            cost,
                            dst,
                            old: Opnd::Reg(old),
                            rhs: r,
                        });
                        self.emit(RInsn::StoreChain {
                            chain: i,
                            src: Opnd::Reg(dst),
                        });
                        Opnd::Reg(dst)
                    }
                    Resolution::Unbound => {
                        self.throw(ThrowKind::UndefinedVariable, name.clone());
                        Opnd::ImmI(0)
                    }
                }
            }
            other => {
                // The tree fully evaluates the lhs (side effects and
                // all), combines, and only errors on the write-back.
                self.fuel(1);
                let r2 = self.shield(r, other);
                let old = self.lower_expr(other);
                let dst = self.temp();
                let cost = self.eff(cost_raw);
                self.emit(RInsn::CompoundTmp {
                    op: bin,
                    cost,
                    dst,
                    old,
                    rhs: r2,
                });
                self.throw(
                    ThrowKind::Unsupported,
                    format!("assignment target {other:?}"),
                );
                Opnd::Reg(dst)
            }
        }
    }

    /// Lowers an array access (`locate` + the requested access). The
    /// caller accounts the `Index` expression's own entry fuel where
    /// the tree would (loads yes, store targets no).
    ///
    /// Fast path: rank <= [`MAX_NAV_DIMS`] with all subscripts
    /// side-effect-free collapses into one [`RInsn::Nav`]. General
    /// path: per-dimension [`RInsn::IdxDim`] with each subscript
    /// lowered immediately before its bounds check, preserving the
    /// interleaving of subscript side effects/errors with the checks.
    fn lower_access(&mut self, e: &Expr, req: TailReq) -> Opnd {
        let mut indices = Vec::new();
        let mut cur = e;
        while let Expr::Index { base, index } = cur {
            indices.push(index.as_ref());
            cur = base;
        }
        indices.reverse();
        let Expr::Ident(name) = cur else {
            self.throw(ThrowKind::Unsupported, "indexing a non-identifier".into());
            return Opnd::ImmI(0);
        };
        let id = self.array_id(name);
        let statically_ok = !self.local_array_decls.contains(name)
            && self.arrays[id as usize]
                .as_ref()
                .is_some_and(|cell| cell.dims.len() == indices.len());
        if !statically_ok {
            self.emit(RInsn::ArrayCheck {
                id,
                subs: indices.len() as u32,
            });
        }

        // Probe for the fused path without emitting anything.
        let nav_subs: Option<Vec<(SubIdx, u32)>> = if indices.len() <= MAX_NAV_DIMS {
            indices.iter().map(|idx| self.nav_sub(idx)).collect()
        } else {
            None
        };
        if let Some(subs) = nav_subs {
            let mut steps = [DimStep {
                fuel: 0,
                idx: SubIdx::Imm(0),
                cost: 0.0,
            }; MAX_NAV_DIMS];
            for (i, (sub, ticks)) in subs.into_iter().enumerate() {
                self.fuel(ticks);
                steps[i] = DimStep {
                    fuel: self.take_fuel(),
                    idx: sub,
                    cost: self.eff(self.k.add),
                };
            }
            let tail = match req {
                TailReq::Load => RTail::Load { dst: self.temp() },
                TailReq::LoadBin { op, cost_raw, lhs } => RTail::LoadBin {
                    op,
                    cost: self.eff(cost_raw),
                    lhs,
                    dst: self.temp(),
                },
                TailReq::Store { val } => RTail::Store { val },
                TailReq::Rmw { op, cost_raw, rhs } => RTail::Rmw {
                    op,
                    cost: self.eff(cost_raw),
                    rhs,
                    dst: self.temp(),
                },
            };
            let n = self.navs.len() as u32;
            let live = &steps[..indices.len()];
            let total_fuel = live.iter().map(|s| s.fuel).sum();
            self.navs.push(NavDesc {
                id,
                n: indices.len() as u32,
                total_fuel,
                steps,
                tail,
            });
            // Pending fuel is already folded into steps[0]; push
            // directly so emit's flush cannot double-materialize it.
            self.code.push(RInsn::Nav(n));
            return match self.navs[n as usize].tail {
                RTail::Load { dst } | RTail::LoadBin { dst, .. } | RTail::Rmw { dst, .. } => {
                    Opnd::Reg(dst)
                }
                RTail::Store { val } => val,
            };
        }

        // General stepwise path.
        let acc = self.temp();
        for (i, idx) in indices.iter().enumerate() {
            let v = self.lower_expr(idx);
            let cost = self.eff(self.k.add);
            self.emit(RInsn::IdxDim {
                id,
                dim: i as u32,
                first: i == 0,
                cost,
                idx: v,
                acc,
            });
        }
        match req {
            TailReq::Load => {
                let dst = self.temp();
                self.emit(RInsn::LoadA { id, acc, dst });
                Opnd::Reg(dst)
            }
            TailReq::LoadBin { op, cost_raw, lhs } => {
                let dst = self.temp();
                let cost = self.eff(cost_raw);
                self.emit(RInsn::LoadABin {
                    op,
                    cost,
                    id,
                    acc,
                    lhs,
                    dst,
                });
                Opnd::Reg(dst)
            }
            TailReq::Store { val } => {
                self.emit(RInsn::StoreA { id, acc, val });
                val
            }
            TailReq::Rmw { op, cost_raw, rhs } => {
                let dst = self.temp();
                let cost = self.eff(cost_raw);
                self.emit(RInsn::RmwA {
                    op,
                    cost,
                    id,
                    acc,
                    rhs,
                    dst,
                });
                Opnd::Reg(dst)
            }
        }
    }

    /// A subscript evaluable inside a fused [`RInsn::Nav`] dispatch:
    /// side-effect-free and statically resolvable. Returns the
    /// [`SubIdx`] and its tree-evaluation fuel ticks. Emits nothing.
    fn nav_sub(&mut self, e: &Expr) -> Option<(SubIdx, u32)> {
        match e {
            Expr::IntLit(v) => Some((SubIdx::Imm(*v), 1)),
            Expr::Ident(name) => match self.resolve(name) {
                Resolution::Direct(slot) => Some((SubIdx::Reg(slot), 1)),
                _ => None,
            },
            Expr::Binary { op, lhs, rhs } if !matches!(op, BinOp::And | BinOp::Or) => {
                if let (Expr::Ident(name), Expr::IntLit(v)) = (lhs.as_ref(), rhs.as_ref()) {
                    let Resolution::Direct(s) = self.resolve(name) else {
                        return None;
                    };
                    // Binary entry + lhs + rhs ticks.
                    return Some((
                        SubIdx::RegOff {
                            s,
                            op: *op,
                            rhs: *v,
                            bcost: self.eff(self.bin_cost(*op)),
                        },
                        3,
                    ));
                }
                // Two-level shape `(s ⊕ x) ⊕ y` (`(t + 1) % 2`,
                // `nm * 6 + d`). The inner operator must be error-free:
                // the chain step ticks all five merged fuel ticks up
                // front, which is only exact when the first possible
                // error point (the outer op) comes after the tree has
                // ticked every one of them.
                let Expr::Binary {
                    op: op1,
                    lhs: l1,
                    rhs: r1,
                } = lhs.as_ref()
                else {
                    return None;
                };
                if matches!(op1, BinOp::And | BinOp::Or | BinOp::Div | BinOp::Rem) {
                    return None;
                }
                let Expr::Ident(name) = l1.as_ref() else {
                    return None;
                };
                let Resolution::Direct(s) = self.resolve(name) else {
                    return None;
                };
                let (r1, f1) = self.simple_opnd(r1)?;
                let (r2, f2) = self.simple_opnd(rhs)?;
                // Outer binary + inner binary + lhs ident + r1 + r2.
                Some((
                    SubIdx::RegOff2 {
                        s,
                        op1: *op1,
                        r1,
                        bcost1: self.eff(self.bin_cost(*op1)),
                        op2: *op,
                        r2,
                        bcost2: self.eff(self.bin_cost(*op)),
                    },
                    3 + f1 + f2,
                ))
            }
            _ => None,
        }
    }

    fn lower_call(&mut self, callee: &str, args: &[Expr]) -> Opnd {
        let mut vals: Vec<Opnd> = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let mut v = self.lower_expr(a);
            if let Some(rest) = args.get(i + 1..) {
                if rest.iter().any(expr_writes_scalars) {
                    v = match v {
                        Opnd::Reg(r) if r < self.temp_base => {
                            let t = self.temp();
                            self.emit(RInsn::Mov { dst: t, src: v });
                            Opnd::Reg(t)
                        }
                        other => other,
                    };
                }
            }
            vals.push(v);
        }
        let call_cost = self.eff(self.k.add * 2.0);
        let builtin = match (callee, args.len()) {
            ("min", 2) => Some(Builtin::Min),
            ("max", 2) => Some(Builtin::Max),
            ("abs" | "fabs", 1) => Some(Builtin::Abs),
            ("sqrt", 1) => Some(Builtin::Sqrt),
            ("floor", 1) => Some(Builtin::Floor),
            ("ceil", 1) => Some(Builtin::Ceil),
            _ => None,
        };
        match builtin {
            Some(f) => {
                let dst = self.temp();
                if vals.len() == 2 {
                    self.emit(RInsn::Call2 {
                        f,
                        cost: call_cost,
                        dst,
                        a: vals[0],
                        b: vals[1],
                    });
                } else {
                    let div_cost = self.eff(self.k.div);
                    self.emit(RInsn::Call1 {
                        f,
                        cost: call_cost,
                        div_cost,
                        dst,
                        a: vals[0],
                    });
                }
                Opnd::Reg(dst)
            }
            None => {
                // Unknown name or arity: the call overhead is still
                // charged before the error, like the tree.
                self.emit(RInsn::Charge(call_cost));
                self.throw(ThrowKind::UndefinedFunction, callee.to_string());
                Opnd::ImmI(0)
            }
        }
    }

    fn bin_cost(&self, op: BinOp) -> f64 {
        match op {
            BinOp::Mul => self.k.mul,
            BinOp::Div | BinOp::Rem => self.k.div,
            _ => self.k.add,
        }
    }
}

/// Whether `insn` may appear in a fused hot-loop body: straight-line
/// shapes only — no jumps, no pc-relative behavior, no parallel-loop
/// bookkeeping. (Errors are fine: they propagate out of the fused
/// dispatch exactly as they would out of an unfused one.)
fn hot_body_ok(insn: &RInsn) -> bool {
    matches!(
        insn,
        RInsn::Fuel(_)
            | RInsn::Charge(_)
            | RInsn::Mov { .. }
            | RInsn::SetSlot { .. }
            | RInsn::DeclSlot { .. }
            | RInsn::DeclDefault { .. }
            | RInsn::Neg { .. }
            | RInsn::Not { .. }
            | RInsn::Bin { .. }
            | RInsn::CompoundSet { .. }
            | RInsn::CompoundSetVal { .. }
            | RInsn::CompoundTmp { .. }
            | RInsn::Truthy { .. }
            | RInsn::Cast { .. }
            | RInsn::Call1 { .. }
            | RInsn::Call2 { .. }
            | RInsn::Nav(_)
            | RInsn::ArrayCheck { .. }
            | RInsn::IdxDim { .. }
            | RInsn::LoadA { .. }
            | RInsn::StoreA { .. }
            | RInsn::RmwA { .. }
            | RInsn::LoadABin { .. }
    )
}

/// Final fusion step, run after all jump patching: each innermost
/// counted loop — a `CmpBr` guard whose straight-line body ends in the
/// `StepJump` targeting it, with no jump from anywhere else landing
/// inside the window — collapses into one [`RInsn::HotLoop`] that the
/// executor runs to completion in a single dispatch. Only the guard
/// slot is overwritten (its fields move into the [`HotLoopDesc`]); the
/// body and the `StepJump` stay in place and are read through the
/// descriptor, so every code index stays valid.
fn fuse_hot_loops(code: &mut [RInsn]) -> Vec<HotLoopDesc> {
    let mut is_target = vec![false; code.len()];
    for insn in code.iter() {
        match insn {
            RInsn::Jump(t)
            | RInsn::BrFalsy { t, .. }
            | RInsn::CmpBr { t, .. }
            | RInsn::StepJump { t, .. }
            | RInsn::AndSC { t, .. }
            | RInsn::OrSC { t, .. } => {
                if let Some(slot) = is_target.get_mut(*t as usize) {
                    *slot = true;
                }
            }
            _ => {}
        }
    }
    let mut hotloops = Vec::new();
    for i in 0..code.len() {
        let RInsn::CmpBr {
            fuel,
            op,
            cost,
            a,
            b,
            post,
            t,
            pcost,
        } = code[i]
        else {
            continue;
        };
        let mut j = i + 1;
        while j < code.len() && hot_body_ok(&code[j]) {
            j += 1;
        }
        if j >= code.len() {
            continue;
        }
        let RInsn::StepJump { t: back, .. } = code[j] else {
            continue;
        };
        // A StepJump only ever targets its own loop's head, so
        // `back == i` identifies this CmpBr as that loop's guard.
        if back as usize != i || ((i + 1)..=j).any(|k| is_target[k]) {
            continue;
        }
        let h = hotloops.len() as u32;
        hotloops.push(HotLoopDesc {
            fuel,
            op,
            cost,
            a,
            b,
            post,
            exit: t,
            pcost,
            body: (i as u32 + 1, j as u32),
            step: j as u32,
        });
        code[i] = RInsn::HotLoop(h);
    }
    hotloops
}

fn cast_kind(ty: &Type) -> CastKind {
    match ty {
        Type::Double | Type::Float => CastKind::ToFloat,
        Type::Int | Type::Char => CastKind::ToInt,
        _ => CastKind::Keep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::RInsn;

    fn compile_src(src: &str) -> Exe {
        let program = locus_srcir::parse_program(src).expect("parses");
        compile(&program, &crate::MachineConfig::scaled_small(), "kernel").expect("compiles")
    }

    /// The raw-speed contract of the register tier on its hottest
    /// pattern: a DGEMM inner loop must fuse down to a single
    /// [`RInsn::HotLoop`] dispatch whose window is exactly the fused
    /// guard, three fused subscript navigations (load, load+multiply,
    /// read-modify-write) and the fused step-jump back edge. If any of
    /// the fusions regresses, this fails before the benchmark floor
    /// does.
    #[test]
    fn dgemm_inner_loop_is_one_dispatch() {
        let exe = compile_src(
            r#"double A[24][24];
            double B[24][24];
            double C[24][24];
            void kernel() {
                for (int i = 0; i < 24; i++)
                    for (int j = 0; j < 24; j++)
                        for (int k = 0; k < 24; k++)
                            C[i][j] += A[i][k] * B[k][j];
            }"#,
        );
        // Innermost back edge: the first StepJump in the program (the
        // outer loops' step-jumps come after it in emission order).
        let (back, target) = exe
            .code
            .iter()
            .enumerate()
            .find_map(|(i, insn)| match insn {
                RInsn::StepJump { t, .. } => Some((i, *t as usize)),
                _ => None,
            })
            .expect("inner loop ends in a fused StepJump");
        let window = &exe.code[target..=back];
        assert_eq!(
            window.len(),
            5,
            "dgemm inner iteration must be 5 fused instructions, got {window:#?}"
        );
        let RInsn::HotLoop(h) = window[0] else {
            panic!("inner loop head must fuse into HotLoop, got {window:#?}");
        };
        assert!(matches!(window[1], RInsn::Nav(_)), "{window:#?}");
        assert!(matches!(window[2], RInsn::Nav(_)), "{window:#?}");
        assert!(matches!(window[3], RInsn::Nav(_)), "{window:#?}");
        assert!(matches!(window[4], RInsn::StepJump { .. }), "{window:#?}");
        let d = &exe.hotloops[h as usize];
        assert_eq!(d.body, (target as u32 + 1, back as u32), "{d:#?}");
        assert_eq!(d.step, back as u32, "{d:#?}");
        assert_eq!(d.exit, back as u32 + 1, "{d:#?}");
    }
}
