"""Dense 64-bit matrix arithmetic with a tape-based reverse-mode gradient engine.

Every value is a 2-D float64 matrix (vectors are 1xM or Nx1, scalars 1x1).
A forward pass through the primitives below records one node per operation on
a ``Tape``; ``backward`` consumes the tape once, in reverse, and returns exact
first-order gradients for every parameter registered on that tape. The tape is
build-once: no higher-order derivatives, no re-entrant recording. An
operation none of whose operands is on a tape is computed and not recorded, so
the same primitives are the untaped forward used at inference.

Lifetime: the tape owns its records and every recorded tensor refers to its
tape only weakly, so tape, tensors and forward values form no reference cycle.
They are freed as soon as the last reference to the tape goes (for a training
step, when the step returns), without waiting for the garbage collector, and
``backward`` frees each record, with its output's gradient, once it has
passed it.

Numerical guards:
  * sigmoid is computed branchwise from exp of the negative-magnitude argument,
  * row softmax subtracts the per-row maximum,
  * cross-entropy clamps probabilities to [BCE_EPS, 1 - BCE_EPS].

Reductions over a row (the softmax's max and sum, its vjp's dot product,
``row_sum``) are whole-column operations, ``row_max_values`` and
``row_sum_values``. numpy reduces a narrow row, such as a score's M
conditions, in one short inner loop per row; a few column operations cost a
fraction of that. ``row_sum_values`` adds in numpy's own pairwise order, so its
bits equal those of ``x.sum(axis=1, keepdims=True)``.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ContractError, DimensionError, NumericError, check_range

BCE_EPS = 1e-12
PROBE_STEP = 1e-5  # finite_diff_errors' step; training.gradcheck_composition screens kinks in it

Array = np.ndarray


def as_matrix(values, rows: int | None = None, cols: int | None = None) -> Array:
    """Coerce to a finite, C-contiguous 2-D float64 array."""
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise DimensionError(f"expected at most 2 dimensions, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError("matrix construction requires all entries finite")
    if rows is not None and arr.shape != (rows, cols):
        raise DimensionError(f"expected shape {(rows, cols)}, got {arr.shape}")
    return arr


class Tensor:
    """A matrix value, optionally attached to the tape that produced it.

    The tape is held by a weak reference: a tensor does not keep its tape
    alive, and once the tape is gone the tensor is off every tape."""

    __slots__ = ("value", "_tape", "name")

    def __init__(self, value, tape: "Tape | None" = None, name: str | None = None):
        self.value = value if isinstance(value, np.ndarray) else as_matrix(value)
        self._tape = None if tape is None else tape.ref
        self.name = name

    @property
    def tape(self) -> "Tape | None":
        return None if self._tape is None else self._tape()

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"


class Tape:
    """Ordered record of primitive operations; operands always precede users.

    Single-owner during construction. ``backward`` consumes the records: it
    frees each one, and the forward values only it held, as it passes it, so
    after ``backward`` the tape holds its parameters and kink notes alone.
    Whatever remains is freed with the tape itself, which nothing recorded on
    it keeps alive.
    """

    __slots__ = ("records", "parameters", "kinks", "ref", "__weakref__")

    def __init__(self):
        # each record: (output, inputs, vjp)
        self.records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self.ref = weakref.ref(self)  # what each tensor on this tape holds
        self.parameters: dict[str, Tensor] = {}
        # per taped relu/abs: (an array its record holds, whether 0 is on the kink)
        self.kinks: list[tuple[Array, bool]] = []

    def parameter(self, values, name: str) -> Tensor:
        """Register a named leaf whose gradient ``backward`` will report."""
        if name in self.parameters:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(as_matrix(values), tape=self, name=name)
        self.parameters[name] = t
        return t

    def constant(self, values) -> Tensor:
        return Tensor(as_matrix(values), tape=None)

    def kink_margin(self) -> float:
        """Distance of the nearest taped relu/abs argument from its kink, inf if
        none. An exact-0 abs argument is skipped (central differences match its
        subgradient 0 there); an exact-0 relu argument is not."""
        dists = [np.abs(v if zero else v[v != 0.0]) for v, zero in self.kinks]
        return min((float(d.min()) for d in dists if d.size), default=np.inf)


class GradientStore(dict):
    """Gradients keyed by parameter name, shaped exactly like the parameters."""

    __slots__ = ()

    @property
    def grads(self) -> GradientStore:
        """The store itself, for callers that read ``store.grads``."""
        return self


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(as_matrix(x))


def _tape_of(*tensors: Tensor) -> Tape | None:
    ref = None
    for t in tensors:
        if t._tape is not None:
            if ref is not None and ref is not t._tape:
                raise ContractError("operands belong to different tapes")
            ref = t._tape
    return None if ref is None else ref()


def _emit(
    value: Array,
    inputs: tuple[Tensor, ...],
    vjp: Callable[[Array], Iterable[Array | None]],
    kink: tuple[Array, bool] | None = None,
) -> Tensor:
    tape = _tape_of(*inputs)
    out = Tensor(value, tape=tape)
    if tape is not None:
        tape.records.append((out, inputs, vjp))
        if kink is not None:
            tape.kinks.append(kink)
    return out


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape {a.shape} does not match {b.shape}")


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} x {b.shape}")

    def vjp(g):
        # an operand off the tape gets no gradient, so none is computed for it
        return (
            g @ b.value.T if a._tape is not None else None,
            a.value.T @ g if b._tape is not None else None,
        )

    return _emit(a.value @ b.value, (a, b), vjp)


def self_adjoint(op: Callable[[Array], Array], a) -> Tensor:
    """Apply a fixed linear map that equals its own adjoint, such as a
    symmetric graph propagation; the vjp applies the same map to the upstream
    gradient. The map is data: no gradient is made for it."""
    a = _as_tensor(a)
    return _emit(op(a.value), (a,), lambda g: (op(g),))


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "add")
    return _emit(a.value + b.value, (a, b), lambda g: (g, g))


def subtract(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "subtract")
    return _emit(a.value - b.value, (a, b), lambda g: (g, -g))


def multiply(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "multiply")

    def vjp(g):
        return g * b.value, g * a.value

    return _emit(a.value * b.value, (a, b), vjp)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _emit(a.value * c, (a,), lambda g: (g * c,))


def add_row(a, row) -> Tensor:
    """Add a 1xM row vector to every row of an NxM matrix."""
    a, row = _as_tensor(a), _as_tensor(row)
    if row.shape[0] != 1 or row.shape[1] != a.shape[1]:
        raise DimensionError(f"add_row: row {row.shape} does not broadcast over {a.shape}")

    def vjp(g):
        return g, g.sum(axis=0, keepdims=True)

    return _emit(a.value + row.value, (a, row), vjp)


def absolute(a) -> Tensor:
    a = _as_tensor(a)
    out = np.abs(a.value)
    # subgradient 0 at exactly 0
    return _emit(out, (a,), lambda g: (g * np.sign(a.value),), kink=(out, False))


def sigmoid_values(x: Array) -> Array:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    # never overflows; exp(-|x|) is the exp each branch needs, and the branches
    # share the denominator, so one division serves both
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    s = sigmoid_values(a.value)
    return _emit(s, (a,), lambda g: (g * s * (1.0 - s),))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    return _emit(np.maximum(a.value, 0.0), (a,), lambda g: (g * (a.value > 0.0),),
                 kink=(a.value, True))


def sqrt_entries(a) -> Tensor:
    """Entrywise square root; inputs must be strictly positive for a finite vjp."""
    a = _as_tensor(a)
    s = np.sqrt(a.value)
    return _emit(s, (a,), lambda g: (g / (2.0 * s),))


def row_max_values(x: Array) -> Array:
    """``x.max(axis=1, keepdims=True)`` for x with at least one column, as a
    running maximum over the columns. A maximum is exact, so the order changes
    no value; only the sign of a zero maximum over mixed +0.0 and -0.0 may
    differ, as it does between numpy's own SIMD paths."""
    cols = iter(x.T)
    acc = next(cols).copy()
    for col in cols:
        np.maximum(acc, col, out=acc)
    return acc[:, None]


_PAIRWISE_BLOCK = 128  # numpy's PW_BLOCKSIZE


def _pairwise_cols(x: Array, lo: int, hi: int) -> Array:
    # numpy's pairwise_sum over columns lo:hi of every row at once, as a 1-D array
    n = hi - lo
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - (n // 2) % 8
        return _pairwise_cols(x, lo, lo + half) + _pairwise_cols(x, lo + half, hi)
    # the sum starts from +0.0 as numpy's reduction does: a row of -0.0 sums to +0.0
    if n < 8:
        acc = np.zeros(x.shape[0])
        cols = x.T[lo:hi]
    else:
        lanes = x[:, lo : lo + 8] + 0.0  # eight running partial sums
        rest = hi - n % 8
        for c in range(lo + 8, rest, 8):
            lanes += x[:, c : c + 8]
        lanes = lanes[:, 0::2] + lanes[:, 1::2]  # r0+r1, r2+r3, r4+r5, r6+r7
        lanes = lanes[:, 0::2] + lanes[:, 1::2]
        acc = lanes[:, 0] + lanes[:, 1]
        cols = x.T[rest:hi]
    for col in cols:
        acc += col
    return acc


def row_sum_values(x: Array) -> Array:
    """The bits of ``x.sum(axis=1, keepdims=True)`` on a C-contiguous x, in
    numpy's summation order built from column operations: fewer than 8 columns
    add left to right; up to 128 run eight partial sums, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remaining columns in order;
    wider rows split at half the width, rounded down to a multiple of 8."""
    return _pairwise_cols(x, 0, x.shape[1])[:, None]


def row_softmax_values(x: Array) -> Array:
    e = np.exp(x - row_max_values(x))
    return e / row_sum_values(e)


def row_softmax(a) -> Tensor:
    a = _as_tensor(a)
    if a.shape[1] < 1:
        raise DimensionError("row_softmax: need at least one column")
    s = row_softmax_values(a.value)

    def vjp(g):
        dot = row_sum_values(g * s)
        return (s * (g - dot),)

    return _emit(s, (a,), vjp)


def _row_indices(a: Tensor, indices, op: str) -> Array:
    # contiguous: numpy gathers about twice as slowly through a strided index array
    idx = np.ascontiguousarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"{op}: index out of range for {a.shape[0]} rows")
    return idx


def _scatter_rows(g: Array, idx: Array, shape: tuple[int, int]) -> Array:
    """Rows of g added into row idx[k] of a zero (shape) matrix."""
    # per column, bincount adds the rows of g in index order, as np.add.at does
    acc = np.empty(shape)
    for c in range(shape[1]):
        acc[:, c] = np.bincount(idx, weights=g[:, c], minlength=shape[0])
    return acc


def gather_rows(a, indices) -> Tensor:
    a = _as_tensor(a)
    idx = _row_indices(a, indices, "gather_rows")
    # take returns a new array, with the values of a.value[idx], in a fraction of the time
    return _emit(a.value.take(idx, axis=0), (a,), lambda g: (_scatter_rows(g, idx, a.shape),))


def pair_abs_diff(a, i, j) -> Tensor:
    """Row k is |a[i[k]] - a[j[k]]|: the joint representation of index pairs.

    Value and gradient equal those of ``absolute(subtract(gather_rows(a, i),
    gather_rows(a, j)))`` bit for bit, keeping only the sign of the difference
    (int8), not the gathered rows: the vjp hands back the j-scatter and then the
    i-scatter, the order in which ``backward`` reaches the two gathers of that
    composition.
    """
    a = _as_tensor(a)
    i = _row_indices(a, i, "pair_abs_diff")
    j = _row_indices(a, j, "pair_abs_diff")
    if i.shape != j.shape:
        raise DimensionError(f"pair_abs_diff: {i.size} left indices, {j.size} right")
    out = a.value.take(i, axis=0)
    out -= a.value.take(j, axis=0)  # in place: two (N, cols) arrays at the peak, not three
    # np.sign of the difference as int8, kept for the vjp of a taped operand:
    # subgradient 0 at exactly 0, as in absolute
    sign = None if a._tape is None else (out > 0.0).view(np.int8) - (out < 0.0).view(np.int8)
    np.abs(out, out=out)

    def vjp(g):
        signed = g * sign
        return _scatter_rows(-signed, j, a.shape), _scatter_rows(signed, i, a.shape)

    return _emit(out, (a, a), vjp, kink=(out, False))


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    if not (0 <= start <= stop <= a.shape[1]):
        raise DimensionError(f"slice_cols: [{start}:{stop}] invalid for {a.shape}")

    def vjp(g):
        acc = np.zeros_like(a.value)
        acc[:, start:stop] = g
        return (acc,)

    return _emit(a.value[:, start:stop].copy(), (a,), vjp)


def row_sum(a) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _emit(row_sum_values(a.value), (a,), vjp)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    n = a.value.size

    def vjp(g):
        return (np.full(a.shape, g[0, 0] / n),)

    # the sum over the count is np.mean's arithmetic, without its Python wrapper
    return _emit((a.value.sum() / n).reshape(1, 1), (a,), vjp)


def _bce_clamp(p: Array) -> Array:
    # np.clip's values, without its Python-level argument handling
    return np.minimum(np.maximum(p, BCE_EPS), 1.0 - BCE_EPS)


def bce_values(p: Array, y: Array) -> Array:
    ph = _bce_clamp(p)
    return -(y * np.log(ph) + (1.0 - y) * np.log1p(-ph))


def _bce_grad(p: Array, y: Array) -> Array:
    ph = _bce_clamp(p)
    grad = (ph - y) / (ph * (1.0 - ph))
    # clamped entries sit on a flat of the loss
    return np.where(p == ph, grad, 0.0)


def bce(p, y) -> Tensor:
    """Entrywise binary cross-entropy of predictions p against 0/1 labels y.

    Labels are data, never differentiated.
    """
    p = _as_tensor(p)
    y = as_matrix(y)
    if y.shape != p.shape:
        raise DimensionError(f"bce: labels {y.shape} do not match predictions {p.shape}")

    def vjp(g):
        return (g * _bce_grad(p.value, y),)

    return _emit(bce_values(p.value, y), (p,), vjp)


def bce_mean(p, y) -> Tensor:
    return mean_all(bce(p, y))


def masked_bce_mean(p, y, mask) -> Tensor:
    """Mean binary cross-entropy over entries where mask == 1.

    Entries with mask == 0 contribute nothing, bit-exactly, whatever their
    values. An all-zero mask yields exactly 0.
    """
    p = _as_tensor(p)
    y = as_matrix(y)
    mask = as_matrix(mask)
    if y.shape != p.shape or mask.shape != p.shape:
        raise DimensionError(
            f"masked_bce_mean: shapes {p.shape}, {y.shape}, {mask.shape} differ"
        )
    labelled = mask == 1.0
    count = int(labelled.sum())
    if count == 0:
        return _emit(np.zeros((1, 1)), (p,), lambda g: (np.zeros_like(p.value),))
    per_entry = np.where(labelled, bce_values(p.value, y), 0.0)

    def vjp(g):
        grad = np.where(labelled, _bce_grad(p.value, y), 0.0) / count
        return (grad * g[0, 0],)

    return _emit((per_entry.sum() / count).reshape(1, 1), (p,), vjp)


# ---------------------------------------------------------------------------
# reverse pass and the finite-difference check
# ---------------------------------------------------------------------------

def backward(tape: Tape, output: Tensor) -> GradientStore:
    """Exact reverse-mode gradients of a scalar output for all tape parameters."""
    if output.value.size != 1:
        raise ContractError(f"backward: output must be scalar, got shape {output.shape}")
    if output._tape is None:
        # constant output: zero gradient everywhere
        return GradientStore(
            {name: np.zeros_like(p.value) for name, p in tape.parameters.items()}
        )
    if output._tape is not tape.ref:
        raise ContractError("backward: output was not produced on this tape")

    grad_by_id: dict[int, Array] = {id(output): np.ones((1, 1))}
    records = tape.records
    while records:
        # every user of out was recorded after it, so its gradient is complete;
        # popping frees the record, and with it the values only its vjp held
        out, inputs, vjp = records.pop()
        g = grad_by_id.pop(id(out), None)
        if g is None:
            continue
        for operand, piece in zip(inputs, vjp(g)):
            if piece is None or operand._tape is None:
                continue
            existing = grad_by_id.get(id(operand))
            if existing is None:
                grad_by_id[id(operand)] = piece.copy() if piece is g else piece
            else:
                existing += piece

    grads = {
        name: grad_by_id.get(id(param), np.zeros_like(param.value))
        for name, param in tape.parameters.items()
    }
    return GradientStore(grads)


LossFn = Callable[[Tape, dict[str, Tensor]], Tensor]


def finite_diff_errors(
    loss_fn: LossFn,
    params: Mapping[str, Array],
    step: float = PROBE_STEP,
    grad_transform: Callable[[GradientStore], GradientStore] | None = None,
) -> dict[str, Array]:
    """Per-entry relative error between analytic and central-difference gradients.

    ``loss_fn(tape, tensors)`` must build a scalar loss from the supplied
    parameter tensors and be a pure function of their values. The relative
    error denominator is max(|analytic|, |numeric|, 1e-8). ``grad_transform``
    lets a caller corrupt the analytic gradients first (negative-control hook).
    """
    check_range("step", step, 0, above=True)
    arrays = {name: as_matrix(v) for name, v in params.items()}

    tape = Tape()
    tensors = {name: tape.parameter(v, name) for name, v in arrays.items()}
    analytic = backward(tape, loss_fn(tape, tensors))
    if grad_transform is not None:
        analytic = grad_transform(analytic)

    def loss_at(name: str, flat: int, value: float) -> float:
        # the parameters were checked finite on the way in; a probe moves one entry
        if not np.isfinite(value):
            raise NumericError(f"non-finite probe value {value!r} for {name}[{flat}]")
        work[name].flat[flat] = value
        # untaped parameters record nothing; the tape only serves tape.constant
        return loss_fn(Tape(), {key: Tensor(v) for key, v in work.items()}).item()

    work = {name: v.copy() for name, v in arrays.items()}
    errors: dict[str, Array] = {}
    for name, base in arrays.items():
        grad = analytic[name]
        err = np.zeros_like(base)
        for flat in range(base.size):
            centre = work[name].flat[flat]
            up = loss_at(name, flat, centre + step)
            down = loss_at(name, flat, centre - step)
            work[name].flat[flat] = centre
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError(f"non-finite loss while probing {name}[{flat}]")
            numeric = (up - down) / (2.0 * step)
            a = grad.flat[flat]
            err.flat[flat] = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        errors[name] = err
    return errors

