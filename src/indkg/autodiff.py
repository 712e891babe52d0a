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
                if parent.grad is None:
                    # a copy: a VJP may return a view of node.grad, shared
                    # with the node's other parents
                    parent.grad = np.array(np.broadcast_to(g, parent.data.shape),
                                           dtype=np.float64)
                else:
                    parent.grad += g
        # a non-finite value on any path reaches the leaves it flows into
        for node in topo:
            if not node._parents and node.grad is not None \
                    and not np.isfinite(node.grad).all():
                raise NonFiniteGradient("non-finite gradient during backward")

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


def _scatter_rows(rows: np.ndarray, idx: np.ndarray, num_rows: int) -> np.ndarray:
    """out[i] = sum of rows[j] over every j with idx[j] == i; other rows 0.

    One stable argsort groups equal indices in their original order, unless
    ``idx`` is sorted already, and ``np.add.reduceat`` sums each group;
    ``rows`` may have any trailing shape.
    """
    if len(idx) == 0:
        return np.zeros((num_rows,) + rows.shape[1:], dtype=np.float64)
    if (idx[1:] < idx[:-1]).any():
        order = np.argsort(idx, kind="stable")
        idx, rows = idx[order], rows[order]
    starts = np.flatnonzero(np.concatenate([[True], idx[1:] != idx[:-1]]))
    sums = np.add.reduceat(rows, starts, axis=0)
    if len(starts) == num_rows and idx[0] == 0 and idx[-1] == num_rows - 1:
        return sums                     # every row 0..num_rows-1 has an entry
    out = np.zeros((num_rows,) + rows.shape[1:], dtype=np.float64)
    out[idx[starts]] = sums
    return out


def gather_rows(a, idx) -> Tensor:
    """Select rows a[idx]; gradient scatter-adds back into the source."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    return _unary(a, a.data[idx], lambda g: _scatter_rows(g, idx, a.data.shape[0]))


def segment_sum(a, idx, num_segments: int) -> Tensor:
    """Sum rows of a (m, ...) tensor into ``num_segments`` buckets by idx."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    return _unary(a, _scatter_rows(a.data, idx, num_segments), lambda g: g[idx])


def basis_message_pass(HV, coeffs, src, dst, slot, norm, num_nodes: int,
                       alpha=None, *, src_order) -> Tensor:
    """Aggregated basis-mixed messages, ``(num_nodes, d)``:

        out[i] = sum over e with dst[e] == i of
                 norm[e] * alpha[e] * sum_b coeffs[slot[e], b] * HV[src[e], b]

    ``HV`` holds the ``(n, B, d)`` basis outputs, ``coeffs`` the ``(S, B)``
    mixing table, and ``src``, ``dst``, ``slot``, ``norm`` and the optional
    gate ``alpha`` one entry per message. ``src_order`` is a stable argsort
    of ``src``: the ``HV`` gradient scatters in that order, so the caller
    sorts once per message list, not once per layer and backward pass.

    The forward is one einsum over the gathered basis rows and one scatter
    by ``dst``; the VJPs re-gather ``HV[src]`` for the ``coeffs`` gradient.
    No ``(m, B, d)`` array outlives a call: only the ``(m, d)`` raw messages
    are kept, and only when ``alpha`` needs a gradient.
    """
    HV, coeffs = as_tensor(HV), as_tensor(coeffs)
    alpha = None if alpha is None else as_tensor(alpha)
    src, dst, slot = (np.asarray(a, dtype=np.int64) for a in (src, dst, slot))
    norm = np.asarray(norm, dtype=np.float64)
    if HV.data.ndim != 3 or coeffs.data.ndim != 2 or coeffs.shape[1] != HV.shape[1]:
        raise ShapeMismatch(f"coeffs {coeffs.shape} do not mix bases {HV.shape}")
    n, B, d = HV.shape
    C = coeffs.data[slot]                                   # (m, B)
    raw = np.einsum("mb,mbd->md", C, HV.data[src])          # (m, d)
    w = norm if alpha is None else norm * alpha.data
    out = _scatter_rows(raw * w[:, None], dst, num_nodes)

    def vjp_hv(g):
        gr = g[dst[src_order]] * w[src_order, None]
        per_basis = C[src_order][:, :, None] * gr[:, None, :]
        return _scatter_rows(per_basis, src[src_order], n)

    def vjp_coeffs(g):
        dC = np.einsum("md,mbd->mb", g[dst] * w[:, None], HV.data[src])
        flat = (slot[:, None] * B + np.arange(B)).ravel()
        return np.bincount(flat, dC.ravel(), coeffs.data.size).reshape(coeffs.shape)

    def vjp_alpha(g):
        return np.einsum("md,md->m", g[dst], raw) * norm

    parents = [(t, vjp) for t, vjp in ((HV, vjp_hv), (coeffs, vjp_coeffs))
               if t.requires_grad]
    if alpha is not None and alpha.requires_grad:
        parents.append((alpha, vjp_alpha))
    return Tensor(out, _parents=tuple(parents))


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
