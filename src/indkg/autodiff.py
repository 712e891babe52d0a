"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every operation records its inputs and a vector-Jacobian closure on a tape
implicit in the Tensor graph; ``Tensor.backward`` runs the closures in
reverse topological order. Only the operations needed by the relational
GNN layers and KGE decoders are provided. All arithmetic is in 64-bit
reals so finite-difference checks at 1e-4 relative tolerance are meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteGradient, ShapeMismatch


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array with an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "_parents")

    def __init__(self, data, requires_grad: bool = False, _parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad or bool(_parents)
        self.grad = None
        self._parents = _parents  # sequence of (Tensor, vjp callable)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    # -- graph traversal ----------------------------------------------------

    def backward(self, seed=None) -> None:
        """Accumulate gradients of this (scalar) node into every ancestor."""
        if seed is None:
            if self.data.size != 1:
                raise ShapeMismatch("backward() without seed requires a scalar")
            seed = np.ones_like(self.data)
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.asarray(seed, dtype=np.float64).reshape(self.data.shape)
        for node in reversed(topo):
            if node.grad is None:
                continue
            for parent, vjp in node._parents:
                if not parent.requires_grad:
                    continue
                g = vjp(node.grad)
                if not np.isfinite(g).all():
                    raise NonFiniteGradient("non-finite gradient during backward")
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += g

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, 1.0 / other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _binary(a, b, out_data, vjp_a, vjp_b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    parents = []
    if a.requires_grad:
        parents.append((a, vjp_a))
    if b.requires_grad:
        parents.append((b, vjp_b))
    return Tensor(out_data, _parents=tuple(parents))


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data + b.data,
                   lambda g: _unbroadcast(g, a.data.shape),
                   lambda g: _unbroadcast(g, b.data.shape))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.data * b.data,
                   lambda g: _unbroadcast(g * b.data, a.data.shape),
                   lambda g: _unbroadcast(g * a.data, b.data.shape))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def vjp_a(g):
        if a.data.ndim == 1:
            return (g @ b.data.T) if b.data.ndim == 2 else g * b.data
        gm = g.reshape(-1, 1) if g.ndim == 1 and b.data.ndim == 1 else g
        bm = b.data.reshape(-1, 1) if b.data.ndim == 1 else b.data
        return (gm @ bm.T).reshape(a.data.shape)

    def vjp_b(g):
        if b.data.ndim == 1:
            return (a.data.T @ g) if a.data.ndim == 2 else g * a.data
        am = a.data.reshape(1, -1) if a.data.ndim == 1 else a.data
        gm = g.reshape(1, -1) if g.ndim == 1 else g
        return (am.T @ gm).reshape(b.data.shape)

    return _binary(a, b, out, vjp_a, vjp_b)


def _unary(a, out_data, vjp) -> Tensor:
    a = as_tensor(a)
    parents = ((a, vjp),) if a.requires_grad else ()
    return Tensor(out_data, _parents=parents)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0  # subgradient 0 at the kink
    return _unary(a, np.where(mask, a.data, 0.0), lambda g: g * mask)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    return _unary(a, s, lambda g: g * s * (1.0 - s))


def absolute(a) -> Tensor:
    a = as_tensor(a)
    sign = np.sign(a.data)
    return _unary(a, np.abs(a.data), lambda g: g * sign)


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    return _unary(a, a.data ** p, lambda g: g * p * a.data ** (p - 1.0))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    s = np.sqrt(a.data)
    return _unary(a, s, lambda g: g * 0.5 / s)


def sin(a) -> Tensor:
    a = as_tensor(a)
    return _unary(a, np.sin(a.data), lambda g: g * np.cos(a.data))


def cos(a) -> Tensor:
    a = as_tensor(a)
    return _unary(a, np.cos(a.data), lambda g: -g * np.sin(a.data))


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy()

    return _unary(a, a.data.sum(axis=axis), vjp)


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _unary(a, a.data.reshape(shape), lambda g: g.reshape(a.data.shape))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    return _unary(a, a.data.transpose(axes), lambda g: g.transpose(np.argsort(axes)))


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    datas = [np.atleast_1d(t.data) for t in tensors]
    out = np.concatenate(datas, axis=axis)
    parents = []
    offset = 0
    for t, d in zip(tensors, datas):
        start, stop = offset, offset + d.shape[axis]
        offset = stop

        def vjp(g, start=start, stop=stop, shape=t.data.shape):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            return g[tuple(sl)].reshape(shape)

        if t.requires_grad:
            parents.append((t, vjp))
    return Tensor(out, _parents=tuple(parents))


def gather_rows(a, idx) -> Tensor:
    """Select rows a[idx]; gradient scatter-adds back into the source."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return out

    return _unary(a, a.data[idx], vjp)


def segment_sum(a, idx, num_segments: int) -> Tensor:
    """Sum rows of a (m, d) tensor into ``num_segments`` buckets by idx."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = np.zeros((num_segments,) + a.data.shape[1:], dtype=np.float64)
    np.add.at(out, idx, a.data)
    return _unary(a, out, lambda g: g[idx])


def dot(a, b) -> Tensor:
    return tsum(mul(a, b))


def circular_correlation(a, b) -> Tensor:
    """Row-wise circular correlation of two (m, d) tensors.

    out[e, k] = sum_i a[e, i] * b[e, (i + k) mod d].
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape or a.data.ndim != 2:
        raise ShapeMismatch("circular_correlation expects matching (m, d) inputs")
    d = a.data.shape[1]
    i = np.arange(d)
    fwd_idx = (i[None, :] + i[:, None]) % d    # fwd_idx[k, i] = (i + k) % d
    bwd_idx = (i[None, :] - i[:, None]) % d    # bwd_idx[k, j] = (j - k) % d
    out = np.einsum("mi,mki->mk", a.data, b.data[:, fwd_idx])
    return _binary(
        a, b, out,
        lambda g: np.einsum("mk,mki->mi", g, b.data[:, fwd_idx]),
        lambda g: np.einsum("mk,mkj->mj", g, a.data[:, bwd_idx]))


def norm(a, p: float = 2.0, axis=None) -> Tensor:
    """p-norm of a flattened tensor, or of each slice along ``axis``."""
    if p == 1.0:
        return tsum(absolute(a), axis=axis)
    if p == 2.0:
        return sqrt(tsum(power(a, 2.0), axis=axis))
    return power(tsum(power(absolute(a), p), axis=axis), 1.0 / p)
