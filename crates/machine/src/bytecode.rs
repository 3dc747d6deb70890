//! Register-based bytecode for the tier-2 execution engine.
//!
//! The `regalloc` module lowers the mini-C AST to three-address
//! instructions over a virtual register frame: scalar slots occupy the
//! low registers, expression temporaries live above them, and every
//! operand is pre-decoded into an [`Opnd`] at lowering time — there is
//! no operand stack, so the dispatch loop in `vm` touches only the
//! registers an instruction names. Whole subscript chains collapse into
//! one [`RInsn::Nav`] dispatch driven by a [`NavDesc`] side table, and
//! the per-iteration loop overhead (condition, fall-through charge,
//! step, back edge) collapses into [`RInsn::CmpBr`] + [`RInsn::StepJump`].
//!
//! Cost folding happens at lowering: cycle charges inside lexically
//! vectorized regions are stored *pre-divided* by the vector discount
//! (the region structure is static, so `cost / w` is a compile-time
//! constant and the `vector_depth` branch of the tree interpreter
//! disappears from dispatch). The f64 division is performed once with
//! the same operands the tree interpreter uses per charge, so the
//! accumulated `cycles` stay bit-identical.
//!
//! The bit-identity contract: every fuel tick, cycle charge, cache
//! access and flop increment of the tree interpreter happens in the
//! same order with the same values, and errors are raised at the same
//! semantic points with the same payloads. `tests/vm_equivalence.rs`
//! holds the register VM to it against the tree oracle. Three rules
//! follow from it:
//!
//! * every `fuel()` tick of the tree interpreter is accounted by an
//!   [`RInsn::Fuel`] or by the leading `fuel` field of a fused
//!   instruction; the lowering merges ticks that are *adjacent* (no
//!   intervening effect or possible error), which keeps totals and
//!   error outcomes identical while shrinking dispatch counts;
//! * cycle charges are never merged — floating-point accumulation is
//!   order-sensitive, so each `charge()` of the tree interpreter is one
//!   `+=` here, in the same order (the vector discount may be folded
//!   into a charge's constant, since that is the same single division);
//! * statically unresolvable constructs (undefined names, unsupported
//!   operators) lower to [`RInsn::Throw`], so they only error if the
//!   enclosing code path actually executes, exactly like the tree.

use locus_srcir::ast::{BinOp, OmpSchedule};

use crate::interp::Value;
use crate::runtime::{ArrayCell, ArrayId, Builtin, CastKind, Chain, SlotId, ThrowKind};

/// Index into the virtual register frame. Slots (resolved scalars) are
/// the low registers; temporaries start at the lowering pass's
/// pre-scanned slot bound.
pub(crate) type RegId = u32;

/// A pre-decoded instruction operand: a register or an immediate.
/// Immediates carry their tag (`ImmF` behaves as a `double` operand for
/// the flop-counting rules, exactly like a pushed float literal).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Opnd {
    /// Read a register.
    Reg(RegId),
    /// Integer immediate.
    ImmI(i64),
    /// Float immediate.
    ImmF(f64),
}

/// One subscript of a fused navigation chain. Only side-effect-free
/// shapes are eligible (a register holding a resolved scalar, a
/// constant, or `slot ⊕ const`), so evaluating them inside one dispatch
/// cannot reorder effects.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SubIdx {
    /// Subscript read from a register.
    Reg(RegId),
    /// Constant subscript.
    Imm(i64),
    /// `slot ⊕ const` subscript (`B[j-1]`, `A[t % 2]` — the stencil hot
    /// path): charge `bcost`, count a flop for a double lhs, apply.
    RegOff {
        /// Register holding the lhs.
        s: RegId,
        /// Subscript operator.
        op: BinOp,
        /// Constant rhs.
        rhs: i64,
        /// Subscript-computation charge.
        bcost: f64,
    },
    /// `(slot ⊕ x) ⊕ y` subscript (`A[(t + 1) % 2]`, `ell[nm * 6 + d]`
    /// — the stencil time-toggle and flattened-tensor hot paths):
    /// charge/flop/apply the inner op, then the outer, in tree order.
    /// `op1` is restricted to error-free operators at lowering time so
    /// the merged fuel (ticked before the chain step) cannot reorder
    /// against an inner-op error — the outer op is the first possible
    /// error point, by which the tree has ticked every merged tick.
    RegOff2 {
        /// Register holding the innermost lhs.
        s: RegId,
        /// Inner operator (never `Div`/`Rem`).
        op1: BinOp,
        /// Inner rhs.
        r1: Opnd,
        /// Inner-op charge.
        bcost1: f64,
        /// Outer operator.
        op2: BinOp,
        /// Outer rhs.
        r2: Opnd,
        /// Outer-op charge.
        bcost2: f64,
    },
}

/// One dimension step of a [`NavDesc`]: tick the pending fuel, evaluate
/// the subscript, bounds-check against the dimension extent, fold into
/// the flat index, charge the address arithmetic — the tree's `locate`
/// for one subscript.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DimStep {
    /// Fuel ticked before this subscript is evaluated (the merged
    /// pending ticks a stepwise [`RInsn::IdxDim`] would flush first).
    pub(crate) fuel: u32,
    /// The subscript.
    pub(crate) idx: SubIdx,
    /// Address-arithmetic charge after the bounds check.
    pub(crate) cost: f64,
}

/// Maximum rank a subscript chain may have to fuse into one
/// [`RInsn::Nav`]; deeper chains fall back to stepwise [`RInsn::IdxDim`]
/// lowering.
pub(crate) const MAX_NAV_DIMS: usize = 4;

/// The array access fused onto the end of a navigation chain, executed
/// on the flat index the chain produced.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RTail {
    /// Read the element through the cache into `dst`.
    Load {
        /// Destination register.
        dst: RegId,
    },
    /// Read the element as the rhs of a binary op (`lhs ⊕ elem`).
    LoadBin {
        /// Binary operator.
        op: BinOp,
        /// Operator charge.
        cost: f64,
        /// Left operand, evaluated before the chain was entered.
        lhs: Opnd,
        /// Destination register.
        dst: RegId,
    },
    /// Write `val` through the cache (coerced to the element type).
    Store {
        /// The stored value.
        val: Opnd,
    },
    /// Read-modify-write one address: two cache accesses, one chain.
    Rmw {
        /// Combine operator.
        op: BinOp,
        /// Operator charge.
        cost: f64,
        /// Right-hand side of the combine.
        rhs: Opnd,
        /// Destination register for the combined value.
        dst: RegId,
    },
}

/// A whole subscript chain plus its fused access: the operand of
/// [`RInsn::Nav`], stored in a side table so the instruction stays
/// `Copy`-small.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NavDesc {
    /// The array accessed.
    pub(crate) id: ArrayId,
    /// Number of live entries in `steps`.
    pub(crate) n: u32,
    /// Sum of the per-step fuel, for the executor's single up-front
    /// budget check (taken only when it cannot exhaust mid-chain — the
    /// tick *order* is unobservable, only totals and error points are).
    pub(crate) total_fuel: u32,
    /// The per-dimension steps, outermost first.
    pub(crate) steps: [DimStep; MAX_NAV_DIMS],
    /// The access run on the final flat index.
    pub(crate) tail: RTail,
}

/// A fused innermost counted loop. The lowering pass's final fusion
/// step recognizes `CmpBr; straight-line body; StepJump-back` windows
/// and overwrites the `CmpBr` slot with [`RInsn::HotLoop`]; the guard's
/// fields move here (the body and the `StepJump` stay in place and are
/// read through `body`/`step`, so no instruction is duplicated and no
/// index shifts). The executor then runs the whole loop — guard, body
/// scan, step — inside one dispatch, issuing exactly the instruction
/// sequence the unfused loop would, minus the dispatcher round-trips.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotLoopDesc {
    /// Guard fuel (the original `CmpBr`'s leading ticks).
    pub(crate) fuel: u32,
    /// Comparison operator.
    pub(crate) op: BinOp,
    /// Comparison charge.
    pub(crate) cost: f64,
    /// Left operand.
    pub(crate) a: Opnd,
    /// Right operand.
    pub(crate) b: Opnd,
    /// Charge applied after the comparison on both paths.
    pub(crate) post: f64,
    /// Jump target when the guard is falsy.
    pub(crate) exit: u32,
    /// Fall-through (per-iteration) charge.
    pub(crate) pcost: f64,
    /// Body range `code[body.0..body.1]` — straight-line shapes only
    /// (verified at fusion time).
    pub(crate) body: (u32, u32),
    /// Index of the original [`RInsn::StepJump`], whose fields drive
    /// the loop step.
    pub(crate) step: u32,
}

/// A local array allocation: dimension extents were evaluated (and
/// positivity-checked) one by one; the alloc reads their values from
/// these operands. Eligible operands are re-read at alloc time, so the
/// lowering pass shields any that later dimension expressions could
/// mutate.
#[derive(Debug, Clone)]
pub(crate) struct AllocDesc {
    /// Interned name being (re)allocated.
    pub(crate) id: ArrayId,
    /// Dimension extents, outermost first.
    pub(crate) dims: Vec<Opnd>,
    /// Element type.
    pub(crate) is_float: bool,
}

/// One register instruction. All cost constants are baked in at
/// lowering time (pre-divided inside vectorized regions).
#[derive(Debug, Clone, Copy)]
pub(crate) enum RInsn {
    /// `n` fuel ticks (`ops += n`, runaway-guard check).
    Fuel(u32),
    /// Unconditional jump.
    Jump(u32),
    /// Jump when the operand is falsy.
    BrFalsy {
        /// Tested operand.
        src: Opnd,
        /// Branch target.
        t: u32,
    },
    /// Fused comparison-and-branch: tick `fuel`, evaluate, charge
    /// `cost`, count flops, apply; charge `post` (an `if` condition's
    /// trailing add) on both paths; on fall-through charge `pcost` (a
    /// loop's per-iteration charge).
    CmpBr {
        /// Fuel ticked first (merged pending + condition ticks).
        fuel: u32,
        /// Comparison operator.
        op: BinOp,
        /// Comparison charge.
        cost: f64,
        /// Left operand.
        a: Opnd,
        /// Right operand.
        b: Opnd,
        /// Charge applied after the comparison on *both* paths
        /// (0.0 when none).
        post: f64,
        /// Branch target when falsy.
        t: u32,
        /// Fall-through charge (0.0 when none).
        pcost: f64,
    },
    /// Fused loop step and back edge: tick `fuel`, combine the slot
    /// with `rhs` (compound-assignment semantics: flop when the *old*
    /// value is a double), store tag-preserving, jump to `t`.
    StepJump {
        /// Fuel ticked first (merged pending + step ticks).
        fuel: u32,
        /// Combine operator.
        op: BinOp,
        /// Combine charge.
        cost: f64,
        /// Register of the stepped slot.
        slot: RegId,
        /// Step amount.
        rhs: Opnd,
        /// Back-edge target.
        t: u32,
    },
    /// Copy an operand into a register (no charge; a lowering artifact
    /// for shielding values across side effects).
    Mov {
        /// Destination register.
        dst: RegId,
        /// Source operand.
        src: Opnd,
    },
    /// Store into a slot register preserving its current tag (the tree
    /// interpreter's `write_scalar`).
    SetSlot {
        /// Register of the target slot.
        slot: RegId,
        /// Stored value.
        src: Opnd,
    },
    /// Read a dynamically resolved scalar (see [`Chain`]).
    LoadChain {
        /// Chain-table index.
        chain: u32,
        /// Destination register.
        dst: RegId,
    },
    /// Store into a dynamically resolved scalar, tag-preserving.
    StoreChain {
        /// Chain-table index.
        chain: u32,
        /// Stored value.
        src: Opnd,
    },
    /// (Re)initialize a slot from a declaration with the declared
    /// type's coercion (overwrites the tag).
    DeclSlot {
        /// Register of the declared slot.
        slot: RegId,
        /// Declared type's coercion.
        kind: CastKind,
        /// Initializer value.
        src: Opnd,
    },
    /// (Re)initialize a slot to the declared type's default value.
    DeclDefault {
        /// Register of the declared slot.
        slot: RegId,
        /// Whether the declared type is floating.
        is_float: bool,
    },
    /// Charge cycles (already vector-discounted where applicable).
    Charge(f64),
    /// Arithmetic negation: charge, count a flop for doubles.
    Neg {
        /// Charge.
        cost: f64,
        /// Destination register.
        dst: RegId,
        /// Operand.
        src: Opnd,
    },
    /// Logical not: charge.
    Not {
        /// Charge.
        cost: f64,
        /// Destination register.
        dst: RegId,
        /// Operand.
        src: Opnd,
    },
    /// Three-address binary op: charge, count flops, apply.
    Bin {
        /// Operator.
        op: BinOp,
        /// Charge.
        cost: f64,
        /// Destination register.
        dst: RegId,
        /// Left operand.
        a: Opnd,
        /// Right operand.
        b: Opnd,
    },
    /// Compound assignment to a slot in statement position: combine
    /// (flop when the *old* value is a double), store tag-preserving.
    CompoundSet {
        /// Operator.
        op: BinOp,
        /// Charge.
        cost: f64,
        /// Register of the target slot.
        slot: RegId,
        /// Right-hand side.
        rhs: Opnd,
    },
    /// [`RInsn::CompoundSet`] whose combined (uncoerced) value is also
    /// needed: it lands in `dst` before the tag-preserving store.
    CompoundSetVal {
        /// Operator.
        op: BinOp,
        /// Charge.
        cost: f64,
        /// Register of the target slot.
        slot: RegId,
        /// Right-hand side.
        rhs: Opnd,
        /// Destination register for the combined value.
        dst: RegId,
    },
    /// Compound combine without a store (chained or unsupported
    /// targets): flop when the *old* operand is a double.
    CompoundTmp {
        /// Operator.
        op: BinOp,
        /// Charge.
        cost: f64,
        /// Destination register.
        dst: RegId,
        /// The old value.
        old: Opnd,
        /// Right-hand side.
        rhs: Opnd,
    },
    /// `dst = 1` when the operand is truthy else `0`.
    Truthy {
        /// Destination register.
        dst: RegId,
        /// Tested operand.
        src: Opnd,
    },
    /// `&&` left arm: when falsy, set `dst` to `Int(0)` and jump.
    AndSC {
        /// Tested operand.
        src: Opnd,
        /// Destination register (the `&&` expression's result).
        dst: RegId,
        /// Branch target.
        t: u32,
    },
    /// `||` left arm: when truthy, set `dst` to `Int(1)` and jump.
    OrSC {
        /// Tested operand.
        src: Opnd,
        /// Destination register (the `||` expression's result).
        dst: RegId,
        /// Branch target.
        t: u32,
    },
    /// C cast: charge, coerce.
    Cast {
        /// The coercion.
        kind: CastKind,
        /// Charge.
        cost: f64,
        /// Destination register.
        dst: RegId,
        /// Operand.
        src: Opnd,
    },
    /// One-argument builtin call: charge the call overhead, apply
    /// (`sqrt` additionally counts a flop and charges `div_cost`).
    Call1 {
        /// The builtin.
        f: Builtin,
        /// Call-overhead charge.
        cost: f64,
        /// Division charge for `sqrt` (0.0 otherwise).
        div_cost: f64,
        /// Destination register.
        dst: RegId,
        /// Argument.
        a: Opnd,
    },
    /// Two-argument builtin call (`min`/`max`).
    Call2 {
        /// The builtin.
        f: Builtin,
        /// Call-overhead charge.
        cost: f64,
        /// Destination register.
        dst: RegId,
        /// First argument.
        a: Opnd,
        /// Second argument.
        b: Opnd,
    },
    /// Verify the array exists and its rank matches the subscript count
    /// (before any index expression is evaluated, like `locate`).
    ArrayCheck {
        /// The array accessed.
        id: ArrayId,
        /// Subscript count.
        subs: u32,
    },
    /// Stepwise subscript fold (the general path for chains a
    /// [`RInsn::Nav`] cannot express): bounds-check `idx`, fold into
    /// the accumulator register, charge.
    IdxDim {
        /// The array accessed.
        id: ArrayId,
        /// Which dimension this subscript addresses.
        dim: u32,
        /// First subscript of the chain (accumulator not yet live).
        first: bool,
        /// Address-arithmetic charge.
        cost: f64,
        /// The subscript value.
        idx: Opnd,
        /// Flat-index accumulator register.
        acc: RegId,
    },
    /// Run a whole fused subscript chain + access ([`NavDesc`]).
    Nav(u32),
    /// Run a whole fused innermost loop ([`HotLoopDesc`]) in one
    /// dispatch.
    HotLoop(u32),
    /// Error when the just-evaluated dimension extent is `<= 0`.
    DimCheck {
        /// The array being declared.
        id: ArrayId,
        /// The extent value.
        v: Opnd,
    },
    /// Allocate a local array ([`AllocDesc`]), advancing the
    /// allocation cursor.
    AllocArray(u32),
    /// Read an element through the cache ([`RInsn::IdxDim`] tail).
    LoadA {
        /// The array accessed.
        id: ArrayId,
        /// Flat-index accumulator register.
        acc: RegId,
        /// Destination register.
        dst: RegId,
    },
    /// Write an element through the cache ([`RInsn::IdxDim`] tail).
    StoreA {
        /// The array accessed.
        id: ArrayId,
        /// Flat-index accumulator register.
        acc: RegId,
        /// Stored value.
        val: Opnd,
    },
    /// Read-modify-write one element ([`RInsn::IdxDim`] tail).
    RmwA {
        /// Combine operator.
        op: BinOp,
        /// Combine charge.
        cost: f64,
        /// The array accessed.
        id: ArrayId,
        /// Flat-index accumulator register.
        acc: RegId,
        /// Right-hand side.
        rhs: Opnd,
        /// Destination register for the combined value.
        dst: RegId,
    },
    /// Load an element as the rhs of a binary op ([`RInsn::IdxDim`]
    /// tail).
    LoadABin {
        /// Operator.
        op: BinOp,
        /// Operator charge.
        cost: f64,
        /// The array accessed.
        id: ArrayId,
        /// Flat-index accumulator register.
        acc: RegId,
        /// Left operand.
        lhs: Opnd,
        /// Destination register.
        dst: RegId,
    },
    /// Enter an `omp parallel for` loop (nested pragmas serialize).
    ParEnter(Option<OmpSchedule>),
    /// Start-of-iteration timestamp for the active parallel context.
    IterStart,
    /// End-of-iteration: record the iteration's sequential cost.
    IterEnd,
    /// Leave the parallel loop: replace the sequentially accumulated
    /// body time with the scheduled makespan.
    ParExit,
    /// Raise a runtime error whose message lives in the message table.
    Throw(ThrowKind, u32),
    /// Finalize any open parallel contexts and stop.
    Halt,
}

/// A lowered program: flat register code, the initial machine image,
/// and the side tables ([`NavDesc`], [`AllocDesc`], [`Chain`],
/// messages) execution and error reporting need.
#[derive(Debug, Clone)]
pub struct Exe {
    pub(crate) code: Vec<RInsn>,
    /// Register-frame size (slots + temporaries).
    pub(crate) n_regs: usize,
    /// Initial values of the global slot prefix.
    pub(crate) global_values: Vec<Value>,
    /// Initial array table (globals allocated, locals `None`).
    pub(crate) arrays: Vec<Option<ArrayCell>>,
    /// Interned array names, for error messages and the checksum.
    pub(crate) array_names: Vec<String>,
    /// Message table for [`RInsn::Throw`] and [`Chain`]s.
    pub(crate) messages: Vec<String>,
    /// Dynamic scalar-resolution chains (conditional bare declarations).
    pub(crate) chains: Vec<Chain>,
    /// Fused navigation chains for [`RInsn::Nav`].
    pub(crate) navs: Vec<NavDesc>,
    /// Fused innermost loops for [`RInsn::HotLoop`].
    pub(crate) hotloops: Vec<HotLoopDesc>,
    /// Local array allocations for [`RInsn::AllocArray`].
    pub(crate) allocs: Vec<AllocDesc>,
    /// Allocation cursor after the globals.
    pub(crate) next_base: u64,
}

// `SlotId` and `RegId` are the same index space for the slot prefix of
// the register frame; keep the alias equivalence checked.
const _: () = {
    const fn same_width(_: SlotId, _: RegId) {}
    same_width(0u32, 0u32);
};
