"""Dense float64 tensors with taped reverse-mode differentiation.

The op set is deliberately small: dense layers, softmax heads, gathering
and its adjoint (index placement), the pieces needed for reparameterised
sampling, and one fused expert-mixing op for the MoE layers.  Everything
runs in double precision.  Any operation that produces a NaN or Inf raises
:class:`NumericsError` immediately instead of letting the value propagate,
so numerical collapse surfaces at its source.

Gradients follow full numpy broadcasting (extra broadcast axes are summed
out on the way back), although the package itself only ever broadcasts
across leading batch-like dimensions.
"""
from __future__ import annotations

import contextlib

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
    if arr.size and not np.all(np.isfinite(arr)):
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
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if pg is None or not (parent.requires_grad or parent._parents):
                        continue
                    _check_finite(pg, "backward")
                    if id(parent) in grads:
                        grads[id(parent)] = grads[id(parent)] + pg
                    else:
                        grads[id(parent)] = pg
            elif node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
        self._done = True

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(parents: tuple) -> bool:
    return _grad_enabled and any(p.requires_grad or p._parents for p in parents)


def _result(data: np.ndarray, parents: tuple, backward_fn, op: str) -> Tensor:
    _check_finite(data, op)
    track = _recording(parents)
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


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data
    return _result(data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)), "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data
    return _result(data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)), "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data
    return _result(data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape),
        _unbroadcast(g * a.data, b.data.shape)), "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data
    return _result(data, (a, b), lambda g: (
        _unbroadcast(g / b.data, a.data.shape),
        _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)), "div")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    data = a.data @ b.data
    return _result(data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g), "matmul")


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


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _result(data, (a,), backward, "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, a.data.shape).copy(),)

    return _result(data, (a,), backward, "mean")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)
    return _result(data, (a,), lambda g: (g.reshape(a.data.shape),), "reshape")


def gather(a, indices, axis: int = -1) -> Tensor:
    """Select slices along ``axis`` by integer index; scatter-adds on backward."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    data = np.take(a.data, idx, axis=axis)

    def backward(g):
        out = np.zeros_like(a.data)
        ax = axis % a.data.ndim
        moved = np.moveaxis(out, ax, 0)
        np.add.at(moved, idx, np.moveaxis(g, ax, 0))
        return (out,)

    return _result(data, (a,), backward, "gather")


def scatter(a, indices, size: int) -> Tensor:
    """Place the columns of 2-d ``a`` at ``indices`` of a zero [B, size]
    array; the adjoint of :func:`gather` along the last axis."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    data = np.zeros((a.shape[0], size))
    data[:, idx] = a.data
    return _result(data, (a,), lambda g: (g[:, idx],), "scatter")


def expert_mix(u, gates, w1, w2) -> Tensor:
    """Gate-weighted sum of N two-layer ReLU experts: u [B, D], gates [B, N],
    w1 [N, D, H], w2 [N, H, D] -> sum_j gates[:, j] * relu(u @ w1[j]) @ w2[j].

    The experts run one at a time and are summed in index order, so no
    [N, B, H] temporary is built; their activations are kept only while the
    tape records.
    """
    u, gates, w1, w2 = parents = tuple(as_tensor(t) for t in (u, gates, w1, w2))
    keep = _recording(parents)
    acts, data = [], None
    for j in range(w1.shape[0]):
        hid = np.maximum(u.data @ w1.data[j], 0.0)
        y = hid @ w2.data[j]
        term = gates.data[:, j:j + 1] * y
        data = term if data is None else data + term
        if keep:
            acts.append((hid, y))

    def backward(g):
        gu, gg = np.zeros_like(u.data), np.empty_like(gates.data)
        gw1, gw2 = np.empty_like(w1.data), np.empty_like(w2.data)
        for j, (hid, y) in enumerate(acts):
            gg[:, j] = (g * y).sum(axis=1)
            gy = g * gates.data[:, j:j + 1]
            gw2[j] = hid.T @ gy
            gpre = (gy @ w2.data[j].T) * (hid > 0.0)
            gw1[j] = u.data.T @ gpre
            gu += gpre @ w1.data[j].T
        return gu, gg, gw1, gw2

    return _result(data, parents, backward, "expert_mix")


# -- softmax family ------------------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    """Probabilities along ``axis``; max-subtracted for stability."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - inner),)

    return _result(data, (a,), backward, "softmax")


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``logits``."""
    logits = as_tensor(logits)
    y = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or y.ndim != 1 or logits.shape[0] != y.shape[0]:
        raise ValueError(f"cross_entropy shapes {logits.shape} vs {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= logits.shape[1]):
        raise ValueError("label out of range")
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    nll = lse - shifted[np.arange(n), y]
    data = np.asarray(nll.mean())

    def backward(g):
        p = np.exp(shifted - lse[:, None])
        p[np.arange(n), y] -= 1.0
        return (p * (g / n),)

    return _result(data, (logits,), backward, "cross_entropy")


# -- constructors -------------------------------------------------------------


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)
