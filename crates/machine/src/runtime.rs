//! Runtime vocabulary shared by the register lowering, the register VM
//! and (for the allocation-size check) the tree interpreter.
//!
//! The tree interpreter keeps its own array layout and initialization
//! code on purpose: it is the reference oracle, and sharing those
//! helpers with the VM would let one bug hide on both sides of the
//! differential suite. Only the allocation-size limit is common, so the
//! error point is identical by construction.

/// Dense index of an interned array name.
///
/// The tree interpreter keys its array table by `String` in one flat
/// namespace (block scoping does not apply to arrays); interning is a
/// pure renaming of that namespace, so shadowing/redeclaration behave
/// identically.
pub(crate) type ArrayId = u32;

/// Frame-slot index of a statically resolved scalar.
pub(crate) type SlotId = u32;

/// One simulated array (shared by the lowering's global setup and the
/// VM's local allocations).
#[derive(Debug, Clone)]
pub(crate) struct ArrayCell {
    pub(crate) is_float: bool,
    pub(crate) data: Vec<f64>,
    pub(crate) base: u64,
    /// Dimension extents, outermost first.
    pub(crate) dims: Vec<usize>,
    /// Local scratch arrays do not contribute to the checksum.
    pub(crate) local: bool,
}

/// Deterministic, non-trivial initial array contents — the same formula
/// the tree interpreter uses, so checksums agree across engines.
pub(crate) fn array_init_data(len: usize, is_float: bool) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let v = ((i * 7 + 3) % 101) as f64;
            if is_float {
                v * 0.25
            } else {
                (v % 13.0).floor()
            }
        })
        .collect()
}

/// Advances an allocation cursor past `len` 8-byte elements: 4KB-align
/// each array and leave a guard page (the tree interpreter's layout).
pub(crate) fn advance_base(next_base: u64, len: usize) -> u64 {
    next_base + ((len as u64 * 8).div_ceil(4096) + 1) * 4096
}

/// Upper bound on the total element count of one array allocation
/// (2^28 doubles = 2 GiB of simulated payload). Dimension products
/// beyond it — including ones that would overflow `usize` entirely —
/// raise [`crate::RuntimeError::ArrayTooLarge`] instead of wrapping
/// into a small (and silently wrong) allocation.
pub const MAX_ARRAY_ELEMS: usize = 1 << 28;

/// Overflow-checked total element count of an allocation. Both engines
/// validate the dimension *product* here, after the per-dimension
/// positivity checks have passed, so the error point is identical
/// across the tree interpreter and the register VM.
pub(crate) fn checked_alloc_len(name: &str, dims: &[usize]) -> Result<usize, crate::RuntimeError> {
    let mut len = 1usize;
    for &d in dims {
        len = len
            .checked_mul(d)
            .filter(|&l| l <= MAX_ARRAY_ELEMS)
            .ok_or_else(|| crate::RuntimeError::ArrayTooLarge(name.to_string()))?;
    }
    Ok(len)
}

/// The kind of coercion a cast or typed declaration performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CastKind {
    /// To `double`/`float`.
    ToFloat,
    /// To `int`/`char`.
    ToInt,
    /// Pointer/void types: the value passes through unchanged.
    Keep,
}

/// Runtime error raised by a [`crate::bytecode::RInsn::Throw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThrowKind {
    /// [`crate::RuntimeError::UndefinedVariable`].
    UndefinedVariable,
    /// [`crate::RuntimeError::UndefinedFunction`].
    UndefinedFunction,
    /// [`crate::RuntimeError::Unsupported`].
    Unsupported,
}

/// The builtin functions of the mini-C runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    /// `min(a, b)`.
    Min,
    /// `max(a, b)`.
    Max,
    /// `abs(a)` / `fabs(a)`.
    Abs,
    /// `sqrt(a)`.
    Sqrt,
    /// `floor(a)`.
    Floor,
    /// `ceil(a)`.
    Ceil,
}

/// A dynamically resolved scalar access.
///
/// Needed only for one pathological construct: a *bare* declaration as
/// an `if` branch (`if (c) int x;`), which the tree interpreter binds
/// into the enclosing scope only when the branch executes. Every guard
/// is a flag slot set by the conditional declaration; the first live
/// guard wins (innermost binding), otherwise the statically visible
/// outer binding (`fallback`), otherwise the access raises
/// `UndefinedVariable` — exactly the tree's dynamic scope walk.
/// Ordinary declarations always resolve statically and never pay for
/// this.
#[derive(Debug, Clone)]
pub(crate) struct Chain {
    /// `(flag slot, value slot)` pairs, innermost binding first.
    pub(crate) guards: Vec<(SlotId, SlotId)>,
    /// Unconditionally bound outer slot, if any.
    pub(crate) fallback: Option<SlotId>,
    /// Message-table index of the variable name.
    pub(crate) msg: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeError;

    #[test]
    fn alloc_len_boundary_is_exactly_max_array_elems() {
        assert_eq!(MAX_ARRAY_ELEMS, 1 << 28);
        assert_eq!(checked_alloc_len("A", &[1 << 14, 1 << 14]), Ok(1 << 28));
        let too_large = Err(RuntimeError::ArrayTooLarge("A".to_string()));
        // One row past the limit, and a product that overflows `usize`.
        assert_eq!(checked_alloc_len("A", &[1 << 14, (1 << 14) + 1]), too_large);
        assert_eq!(checked_alloc_len("A", &[usize::MAX, 2]), too_large);
    }
}
