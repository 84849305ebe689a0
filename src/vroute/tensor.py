"""Dense float64 tensors with taped reverse-mode differentiation.

The op set is deliberately small: dense layers, softmax heads, gathering
and its adjoint (index placement), the pieces needed for reparameterised
sampling, and one fused expert-mixing op for the MoE layers.  Everything
runs in double precision.  Any operation that produces a NaN or Inf raises
:class:`NumericsError` immediately instead of letting the value propagate,
so numerical collapse surfaces at its source; the guard skips only the ops
that cannot turn finite inputs into a non-finite output.

Gradients follow full numpy broadcasting (extra broadcast axes are summed
out on the way back), although the package itself only ever broadcasts
across leading batch-like dimensions.
"""
from __future__ import annotations

import contextlib
import math

import numpy as np



class NumericsError(RuntimeError):
    """An operation produced non-finite values or was used out of contract."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _check_finite(arr: np.ndarray, op: str) -> None:
    # The ufunc reduce skips the Python wrapper of ``ndarray.all``; the guard
    # runs on every checked op and gradient.
    if arr.size and not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NumericsError(f"{op} produced non-finite values")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-d float64 array, optionally recording onto a dynamic tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_done")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.asarray(values, dtype=np.float64)
        _check_finite(self.data, "tensor construction")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._done = False

    # -- book-keeping -------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    def backward(self) -> None:
        """Reverse sweep from a scalar loss; populates ``grad`` on leaves.

        A second sweep over the same graph is an error: intermediate state is
        not retained and silent double accumulation would corrupt updates.
        """
        if self.data.size != 1:
            raise NumericsError("backward requires a scalar loss")
        if self._done:
            raise NumericsError("backward already ran on this graph")
        # Depth-first post-order, keyed by node (a Tensor hashes by
        # identity).  A parent the tape does not keep gets no gradient, so
        # the walk leaves it out; the order of the rest, and with it the
        # order in which a node's gradients are added, is unchanged.
        order: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p not in seen and _tracked(p):
                    stack.append((p, False))
        # Each gradient is checked once, summed, where the sweep reads it,
        # so an overflowing sum of finite contributions is caught too.
        grads: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        with np.errstate(over="ignore"):
            for node in reversed(order):
                g = grads.pop(node, None)
                if g is None:
                    continue
                _check_finite(g, "backward")
                if node._backward is not None:
                    for parent, pg in zip(node._parents, node._backward(g)):
                        if pg is None or not _tracked(parent):
                            continue
                        acc = grads.get(parent)
                        grads[parent] = pg if acc is None else acc + pg
                elif node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
        self._done = True

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(t: Tensor) -> bool:
    """Whether a gradient w.r.t. ``t`` reaches a leaf that wants one."""
    return t.requires_grad or bool(t._parents)


def recording(parents: tuple) -> bool:
    """Whether an op on ``parents`` records onto the tape."""
    if _grad_enabled:
        for p in parents:
            if _tracked(p):
                return True
    return False


# Ops whose output is finite whenever their input is: the guard skips them.
# Max-shifted softmax divides by a sum >= 1, even when the shift overflows.
_FINITE_PRESERVING = frozenset({"reshape", "transpose", "gather", "scatter",
                                "relu", "softmax", "softmax_mean"})


def _result(data: np.ndarray, parents: tuple, backward_fn, op: str) -> Tensor:
    if op not in _FINITE_PRESERVING:
        _check_finite(data, op)
    track = recording(parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._done = False
    if track:
        out._parents = parents
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


# -- arithmetic --------------------------------------------------------------


# A binary op's backward computes an operand's gradient only when the tape
# keeps that operand (``_tracked``), and gives None for one it does not.


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data
    return _result(data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape) if _tracked(a) else None,
        _unbroadcast(g, b.data.shape) if _tracked(b) else None), "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data
    return _result(data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape) if _tracked(a) else None,
        _unbroadcast(-g, b.data.shape) if _tracked(b) else None), "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data
    return _result(data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape) if _tracked(a) else None,
        _unbroadcast(g * a.data, b.data.shape) if _tracked(b) else None),
        "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data
    return _result(data, (a, b), lambda g: (
        _unbroadcast(g / b.data, a.data.shape) if _tracked(a) else None,
        _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        if _tracked(b) else None), "div")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    data = a.data @ b.data
    return _result(data, (a, b), lambda g: (
        g @ b.data.T if _tracked(a) else None,
        a.data.T @ g if _tracked(b) else None), "matmul")


# -- elementwise nonlinearities ----------------------------------------------


def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)
    return _result(data, (a,), lambda g: (g * (a.data > 0.0),), "relu")


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    return _result(data, (a,), lambda g: (g * data,), "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    return _result(data, (a,), lambda g: (g / a.data,), "log")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore"):
        data = np.sqrt(a.data)
    return _result(data, (a,), lambda g: (g * 0.5 / data,), "sqrt")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a) -> Tensor:
    """log(1 + e^x), computed stably; gradient is the logistic sigmoid."""
    a = as_tensor(a)
    data = np.logaddexp(0.0, a.data)
    return _result(data, (a,), lambda g: (g * _sigmoid(a.data),), "softplus")


# -- reductions / shaping -----------------------------------------------------


def _spread(shape: tuple, axis, keepdims: bool, count: int = 1):
    """Backward of a sum (``count`` 1) or mean over ``axis`` of an operand
    of ``shape``: a fresh array filled with the upstream gradient, divided
    by ``count``, across the reduced axes."""
    def backward(g):
        if count != 1:
            g = g / count
        if not (axis is None or keepdims):
            kept = list(shape)
            for i in (axis if isinstance(axis, tuple) else (axis,)):
                kept[i] = 1
            g = g.reshape(kept)
        out = np.empty(shape)
        out[...] = g
        return (out,)

    return backward


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    return _result(data, (a,), _spread(a.shape, axis, keepdims), "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]
    return _result(data, (a,), _spread(a.shape, axis, keepdims, count),
                   "mean")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)
    return _result(data, (a,), lambda g: (g.reshape(a.data.shape),), "reshape")


def gather(a, indices) -> Tensor:
    """The columns of 2-d ``a`` at ``indices``; the adjoint of
    :func:`scatter`.  Its backward places the gradient, so it raises
    ValueError unless the indices are 1-d, >= 0 and strictly increasing."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    data = np.take(a.data, idx, axis=1)

    def backward(g):
        if not (idx.ndim == 1 and (idx.size == 0 or idx[0] >= 0
                                   and (idx[1:] > idx[:-1]).all())):
            raise ValueError("gather's backward needs 1-d, non-negative, "
                             f"strictly increasing indices, got {idx}")
        # Distinct places, each written once: a scatter-add's 0 + g is g,
        # except that -0.0 becomes +0.0, which adding 0.0 to g does too.
        out = np.zeros_like(a.data)
        out[:, idx] = g + 0.0
        return (out,)

    return _result(data, (a,), backward, "gather")


def scatter(a, indices, size: int) -> Tensor:
    """Place the columns of 2-d ``a`` at ``indices`` of a zero [B, size]
    array; the adjoint of :func:`gather`."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    data = np.zeros((a.shape[0], size))
    data[:, idx] = a.data
    return _result(data, (a,), lambda g: (g[:, idx],), "scatter")


def _experts(u: np.ndarray, w1: np.ndarray, w2: np.ndarray):
    """Every expert on every row: the ReLU activations [N, B, H] and the
    outputs [N, B, D], where entry j is relu(u @ w1[j]) @ w2[j].  Each
    weight is one ``np.matmul`` stacked over the expert axis, which makes
    the same gemm call per expert as a loop would, so each expert gets a
    loop's bits."""
    hid = np.matmul(u, w1)
    np.maximum(hid, 0.0, out=hid)
    return hid, np.matmul(hid, w2)


def expert_outputs(u, w1, w2) -> np.ndarray:
    """Every expert's output on every row, without a tape: [N, B, D], with
    the bits :func:`expert_mix` gets on the whole batch.

    The result passes the finite guard: :func:`expert_mix` multiplies the
    selected outputs by their gates, and a zero gate times an infinite
    output would be NaN there.
    """
    out = _experts(*(as_tensor(t).data for t in (u, w1, w2)))[1]
    _check_finite(out, "expert_outputs")
    return out


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=0)`` with a loop's bits: added from zeros in index
    order, one term after another."""
    out = np.zeros(terms.shape[1:])
    for term in terms:
        out += term
    return out


def expert_mix(u, gates, w1, w2, outputs: np.ndarray | None = None,
               selection: np.ndarray | None = None) -> Tensor:
    """Gate-weighted sum of N two-layer ReLU experts: u [B, D], gates [B, N],
    w1 [N, D, H], w2 [N, H, D] -> sum_j gates[:, j] * relu(u @ w1[j]) @ w2[j].

    A taped op runs every expert on every row (:func:`_experts`), because
    its backward (vtsr's straight-through gate gradient) reaches all N
    experts; the stacked [N, B, H] activations and [N, B, D] outputs are
    kept for the backward.  The gated terms are added from zeros in
    index order.  The backward stacks its products the same way and computes
    only the gradients the tape keeps: frozen experts get no ``w1``/``w2``
    gradient, constant gates no gate gradient, and an input with nothing
    upstream to train (a frozen prefix, say) gets no ``u`` gradient.

    ``outputs``, the :func:`expert_outputs` of this ``u``, stands in for
    running the experts, for passes that share ``u`` and record no tape.
    It comes with ``selection``, the [B, N] 0/1 top-k mask the gates were
    renormalised over, and the gates must be zero outside it.  Each row
    reads its k selected outputs in ascending expert order, scales them by
    their gates and adds them from zeros.  The terms left out are gate 0
    times a finite output, a signed zero, and a signed zero added to a
    running sum that starts at +0 leaves its bits alone; so the sum has the
    bits of the dense gated sum over all N experts.  A zero gate inside the
    selection is read like any other.

    Otherwise an untaped op runs expert j only on the rows whose gate j is
    non-zero (top-k dispatch) and skips it when there are none; the terms
    left out are exact zeros, so the sum has the bits of the dense one.  An
    expert that exactly one row selects runs on the whole batch, and only
    that row's term is added: numpy sends a one-row matmul to gemv, whose
    last bits differ from a gemm row's.
    """
    u, gates, w1, w2 = parents = tuple(as_tensor(t) for t in (u, gates, w1, w2))
    keep = recording(parents)
    if outputs is not None:
        if keep:
            raise NumericsError("stored expert outputs carry no tape")
        if selection is None:
            raise ValueError("stored expert outputs are read by selection")
        n, batch, dim = outputs.shape
        picked = np.flatnonzero(selection)          # b * N + j, row by row
        picked = picked.reshape(batch, picked.size // max(batch, 1)).T  # [k, B]
        terms = outputs.reshape(n * batch, dim).take(
            picked % n * batch + picked // n, axis=0)            # [k, B, D]
        terms *= gates.data.take(picked)[:, :, None]
        data = _sum_in_order(terms)
    elif keep:
        hid, ys = _experts(u.data, w1.data, w2.data)
        data = _sum_in_order(gates.data.T[:, :, None] * ys)
    else:
        data = np.zeros((u.shape[0], w2.shape[2]))
        for j, col in enumerate(np.ascontiguousarray(gates.data.T)):
            rows = np.flatnonzero(col)
            if rows.size == 0:
                continue
            x = u.data if rows.size == 1 else u.data.take(rows, axis=0)
            y = x @ w1.data[j]
            np.maximum(y, 0.0, out=y)
            y = y @ w2.data[j]
            if rows.size == 1:
                y = y[rows]
            y *= col.take(rows)[:, None]
            data[rows] += y

    def backward(g):
        want_u, want_gates, want_w1, want_w2 = (_tracked(t) for t in parents)
        gu = gg = gw1 = gw2 = None
        if want_gates:
            gg = np.empty_like(gates.data)
            gg[...] = (g * ys).sum(axis=2).T
        if not (want_u or want_w1 or want_w2):
            return gu, gg, gw1, gw2
        gy = gates.data.T[:, :, None] * g                           # [N, B, D]
        if want_w2:
            gw2 = np.matmul(hid.transpose(0, 2, 1), gy)
        if want_u or want_w1:
            gpre = np.matmul(gy, w2.data.transpose(0, 2, 1))
            gpre *= hid > 0.0
            if want_w1:
                gw1 = np.matmul(u.data.T, gpre)
            if want_u:
                gu = _sum_in_order(np.matmul(gpre, w1.data.transpose(0, 2, 1)))
        return gu, gg, gw1, gw2

    return _result(data, parents, backward, "expert_mix")


# -- reductions over the expert axis -------------------------------------------
#
# numpy reduces a short last axis row by row, with a per-row overhead that
# dwarfs the arithmetic over eight experts once there are many rows, and a
# leading axis in another order.  These helpers reduce a leading axis one
# slab at a time, with the bits numpy gives a contiguous last axis; the
# ``_last`` ones read the last axis as the leading axis of its transpose.
# Each slab operation costs about a microsecond of call overhead, so below
# _COLUMN_ROWS rows (a training batch) numpy's own reduction is the faster.
_COLUMN_ROWS = 128


def _columns(a: np.ndarray):
    """The last-axis columns of ``a`` as the rows of an [n, rows] view, or
    None when ``a`` has too few rows to gain from reading them."""
    if math.prod(a.shape[:-1]) < _COLUMN_ROWS:
        return None
    return a.reshape(-1, a.shape[-1]).T


def _pairwise(col, n: int) -> np.ndarray:
    """col(0) + ... + col(n - 1) in numpy's pairwise order for a contiguous
    axis: left to right below 8 terms; up to 128, eight running sums r0..r7
    over the first n - n % 8 terms (term j feeds r[j % 8]), combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder left to right;
    above 128, the two halves (the first a multiple of 8 long) summed apart.
    Each running sum is finished before the next starts, so a ``col`` that
    computes its term keeps only a few terms alive."""
    if n < 8:
        out = col(0) + 0.0
        for j in range(1, n):
            out += col(j)
        return out
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return (_pairwise(col, half)
                + _pairwise(lambda j: col(half + j), n - half))
    end = n - n % 8
    if end == 8:
        running = col
    else:
        def running(k):
            out = col(k)
            for j in range(k + 8, end, 8):
                out = out + col(j)
            return out
    out = running(0) + running(1)
    out += running(2) + running(3)
    right = running(4) + running(5)
    right += running(6) + running(7)
    out += right
    for j in range(end, n):
        out += col(j)
    return out


def _sum_terms(col, n: int) -> np.ndarray:
    """col(0) + ... + col(n - 1) with the bits of numpy's ``add.reduce``,
    which adds the pairwise sum to its identity 0 (so never gives -0.0)."""
    out = _pairwise(col, n)
    if n >= 8:
        out += 0.0
    return out


def _sum_lead(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)`` with the bits numpy gives a contiguous last axis."""
    return _sum_terms(a.__getitem__, len(a))


def _max_lead(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=0)`` of a C-contiguous ``a``.  A max is exact in any
    order, and numpy takes the rows of a contiguous leading axis one after
    another, so zeros keep the signs a chain of ``np.maximum`` gives them."""
    return a.max(axis=0)


def sum_last(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1, keepdims=True)`` with the same bits for a
    C-contiguous ``a``, added column by column when it has many rows."""
    cols = _columns(a)
    if cols is None:
        return a.sum(axis=-1, keepdims=True)
    return _sum_lead(cols).reshape(a.shape[:-1] + (1,))


def max_last(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``, column by column when it has many
    rows: a chain of ``np.maximum`` over the strided columns, which numpy's
    own reduction of that view would read element by element."""
    cols = _columns(a)
    if cols is None:
        return a.max(axis=-1, keepdims=True)
    out = cols[0].copy() if len(cols) == 1 else np.maximum(cols[0], cols[1])
    for col in cols[2:]:
        np.maximum(out, col, out=out)
    return out.reshape(a.shape[:-1] + (1,))


class _Rows:
    """The last ``len(rows)`` rows of an [N, ...] term whose earlier rows are
    exact zeros.  A sum adds only the rows both terms hold, in place on the
    left one, which :func:`_pairwise` always gives at least as many rows;
    x + 0 = x, so that changes at most the sign of a zero sum, which the
    ``+ 0.0`` of :func:`_sum_terms` sets to +0 either way."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def __iadd__(self, other):
        if isinstance(other, _Rows):
            self.rows[len(self.rows) - len(other.rows):] += other.rows
        else:
            self.rows += other
        return self

    __add__ = __iadd__


def spread(mt, v: np.ndarray) -> Tensor:
    """Lower-triangular matrix-vector products over a leading axis: for the
    axis-reversed factor mt [N, N, ...] (mt[j, i] = L[..., i, j]) and the
    constant v [N, ...], out[i] = sum_{j <= i} mt[j, i] * v[j].

    Column j is one product ``mt[j, j:] * v[j]`` over the rows i >= j, and
    the columns are added in numpy's pairwise order (:class:`_Rows`), so
    each row has the bits of the broadcast ``(L * v[..., None, :]).sum(-1)``
    without its zeros above the diagonal: n(n+1)/2 multiply-adds per
    vector.  Those entries of mt are never read and get a zero gradient;
    the rest get the mul -> sum pair's."""
    mt = as_tensor(mt)
    v = np.asarray(v, dtype=np.float64)
    data = _sum_terms(lambda j: _Rows(mt.data[j, j:] * v[j]), len(v)).rows

    def backward(g):
        gm = np.zeros_like(mt.data)
        for j in range(len(v)):
            gm[j, j:] = _unbroadcast(g[j:] * v[j], gm[j, j:].shape)
        return (gm,)

    return _result(data, (mt,), backward, "spread")


def transpose(a) -> Tensor:
    """``a`` with its axes reversed, as a C-contiguous copy; the backward
    copies the gradient back the same way, so every op on either side sees
    the layout it would see without the transpose."""
    a = as_tensor(a)
    return _result(np.ascontiguousarray(a.data.T), (a,),
                   lambda g: (np.ascontiguousarray(g.T),), "transpose")


# -- softmax family ------------------------------------------------------------


def _softmax(x: np.ndarray, top, total) -> np.ndarray:
    """Max-subtracted softmax with the reductions ``top`` and ``total``.  A
    shift that overflows gives exp(-inf) = 0, and the sum is still >= 1."""
    with np.errstate(over="ignore"):
        out = x - top(x)
    np.exp(out, out=out)
    out /= total(out)
    return out


def softmax_last(x: np.ndarray) -> np.ndarray:
    """Probabilities along the last axis of an array.  It reduces with
    :func:`max_last` and :func:`sum_last`, so it has the bits of numpy's
    own reductions."""
    return _softmax(x, max_last, sum_last)


def softmax(a) -> Tensor:
    """:func:`softmax_last` on the tape; the backward reduces with
    :func:`sum_last` too."""
    a = as_tensor(a)
    data = softmax_last(a.data)

    def backward(g):
        return (data * (g - sum_last(g * data)),)

    return _result(data, (a,), backward, "softmax")


def softmax_mean(a) -> Tensor:
    """C-contiguous sampled logits [N, S, B] (experts, samples, rows) to the
    mean over the S samples of their softmax over the N experts: [N, B].

    It has the bits of ``softmax_last(x).mean(axis=1)`` on the same logits
    laid out [B, S, N]: the experts are reduced as a contiguous last axis,
    ``np.exp`` sees a contiguous array, and the samples are added in index
    order, as numpy adds a middle axis (numpy adds [N, S, 1] pairwise, so
    its own mean would not do at B = 1).  The backward is the mean ->
    softmax pair's."""
    a = as_tensor(a)
    probs = _softmax(a.data, _max_lead, _sum_lead)
    samples = probs.shape[1]
    data = _sum_in_order(probs.swapaxes(0, 1))
    data /= samples

    def backward(g):
        g = np.broadcast_to((g / samples)[:, None], probs.shape)
        return (probs * (g - _sum_lead(g * probs)),)

    return _result(data, (a,), backward, "softmax_mean")


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``logits``."""
    logits = as_tensor(logits)
    y = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or y.ndim != 1 or logits.shape[0] != y.shape[0]:
        raise ValueError(f"cross_entropy shapes {logits.shape} vs {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= logits.shape[1]):
        raise ValueError("label out of range")
    n = logits.shape[0]
    shifted = logits.data - max_last(logits.data)
    lse = np.log(sum_last(np.exp(shifted)))
    nll = lse[:, 0] - shifted[np.arange(n), y]
    data = np.asarray(nll.mean())

    def backward(g):
        p = np.exp(shifted - lse)
        p[np.arange(n), y] -= 1.0
        return (p * (g / n),)

    return _result(data, (logits,), backward, "cross_entropy")
