"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every operation records its inputs and a vector-Jacobian closure on a tape
implicit in the Tensor graph; ``Tensor.backward`` runs the closures in
reverse topological order. Only the operations needed by the relational
GNN layers and KGE decoders are provided. All arithmetic is in 64-bit
reals so finite-difference checks at 1e-4 relative tolerance are meaningful.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import math

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

    # -- graph traversal ----------------------------------------------------

    def backward(self, seed=None) -> None:
        """Accumulate gradients of this (scalar) node into every ancestor.

        A VJP may return any array that broadcasts to its parent's shape,
        and a view of the node's gradient: a parent's first gradient is
        written into a fresh array of the parent's shape, later ones are
        added to it in place, so no two tensors share gradient memory.
        """
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
                    parent.grad = np.empty(parent.data.shape)
                    parent.grad[...] = g
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
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def tensor_fields(obj, prefix: str = "") -> dict[str, Tensor]:
    """The Tensor-valued fields of a dataclass instance in field order, each
    keyed by ``prefix`` plus its field name."""
    return {prefix + f.name: t for f in dataclasses.fields(obj)
            if isinstance(t := getattr(obj, f.name), Tensor)}


def node(out, a: Tensor, vjp_a, b: Tensor = None, vjp_b=None, c: Tensor = None,
         vjp_c=None) -> Tensor:
    """The tensor of ``out`` whose tape holds ``(a, vjp_a)``, then ``(b,
    vjp_b)`` and ``(c, vjp_c)``, each only when that operand requires a
    gradient. One tensor may be several operands: ``backward`` then adds
    its gradients in this order."""
    parents = ((a, vjp_a),) if a.requires_grad else ()
    if b is not None and b.requires_grad:
        parents += ((b, vjp_b),)
    if c is not None and c.requires_grad:
        parents += ((c, vjp_c),)
    return Tensor(out, _parents=parents)


def shared_vjps(grads, keys):
    """A dict of one VJP per key of ``keys``, each reading its key of one
    ``grads(g)`` result. ``backward`` calls a node's parents one after
    another with the same g, so the first call computes every gradient and
    each call takes its own."""
    last = [None, None]  # the g of the last backward and its gradients

    def make(key):
        def vjp(g):
            if last[0] is not g:
                last[:] = g, grads(g)
            return last[1][key]
        return vjp
    return {key: make(key) for key in keys}


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return node(a.data + b.data, a, lambda g: _unbroadcast(g, a.data.shape),
                 b, lambda g: _unbroadcast(g, b.data.shape))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return node(a.data - b.data, a, lambda g: _unbroadcast(g, a.data.shape),
                 b, lambda g: -_unbroadcast(g, b.data.shape))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return node(a.data * b.data, a, lambda g: _unbroadcast(g * b.data, a.data.shape),
                 b, lambda g: _unbroadcast(g * a.data, b.data.shape))


def matmul(a, b) -> Tensor:
    """``a @ b`` for 1-D or 2-D operands. Each VJP is one product of the 2-D
    forms ``(n, k) @ (k, e)``, reshaped to its operand: a 1-D ``a`` is one
    row and a 1-D ``b`` one column."""
    a, b = as_tensor(a), as_tensor(b)

    def vjp_a(g):
        bm = b.data.reshape(len(b.data), -1)
        return (g.reshape(-1, bm.shape[1]) @ bm.T).reshape(a.data.shape)

    def vjp_b(g):
        k = len(b.data)
        am, gm = a.data.reshape(-1, k), g.reshape(-1, b.data.size // k)
        return (am.T @ gm).reshape(b.data.shape)

    return node(a.data @ b.data, a, vjp_a, b, vjp_b)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0  # subgradient 0 at the kink
    return node(np.where(mask, a.data, 0.0), a, lambda g: g * mask)


def absolute(a) -> Tensor:
    a = as_tensor(a)
    sign = np.sign(a.data)
    return node(np.abs(a.data), a, lambda g: g * sign)


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    return node(a.data ** p, a, lambda g: g * p * a.data ** (p - 1.0))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    s = np.sqrt(a.data)
    return node(s, a, lambda g: g * 0.5 / s)


def sin(a) -> Tensor:
    a = as_tensor(a)
    return node(np.sin(a.data), a, lambda g: g * np.cos(a.data))


def cos(a) -> Tensor:
    a = as_tensor(a)
    return node(np.cos(a.data), a, lambda g: -g * np.sin(a.data))


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    # backward broadcasts the gradient to a's shape
    return node(a.data.sum(axis=axis), a,
                 lambda g: g if axis is None else np.expand_dims(g, axis))


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return node(a.data.reshape(shape), a, lambda g: g.reshape(a.data.shape))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    return node(a.data.transpose(axes), a, lambda g: g.transpose(np.argsort(axes)))


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


def scatter_rows(rows: np.ndarray, idx: np.ndarray, num_rows: int) -> np.ndarray:
    """out[i] = sum of rows[j] over every j with idx[j] == i; other rows 0.

    One ``np.bincount`` over the flattened (row, column) index sums each
    output cell in the order of ``idx``, with no sort; ``rows`` may have any
    trailing shape.
    """
    tail = rows.shape[1:]
    width = math.prod(tail)
    flat = (idx[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, rows.reshape(-1), num_rows * width)
    # an empty index makes bincount count, not sum: int64 zeros
    return out.astype(np.float64, copy=False).reshape((num_rows,) + tail)


def gather_rows(a, idx) -> Tensor:
    """Select rows a[idx]; gradient scatter-adds back into the source."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    return node(a.data[idx], a, lambda g: scatter_rows(g, idx, a.data.shape[0]))


def segment_sum(a, idx, num_segments: int) -> Tensor:
    """Sum rows of a (m, ...) tensor into ``num_segments`` buckets by idx."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    return node(scatter_rows(a.data, idx, num_segments), a, lambda g: g[idx])


def conv_pattern(src, dst, num_nodes: int, B: int):
    """The sparsity pattern of ``basis_conv``'s message matrix A, which
    depends on the messages and the basis count only: ``(order, columns,
    indptr)``, where ``order`` is the stable argsort of ``dst``, message
    ``order[i]`` fills the B entries ``columns[i * B:(i + 1) * B]`` =
    ``src * B + [0 .. B)`` of row ``dst``, and ``indptr`` is the CSR row
    pointer of ``num_nodes`` rows. The index arrays take scipy's index type
    up front (int32 where the values fit), so a CSR built on them is neither
    scanned nor copied.
    """
    from scipy import sparse

    src, dst = (np.asarray(a, dtype=np.int64) for a in (src, dst))
    order = np.argsort(dst, kind="stable")
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=num_nodes) * B, out=indptr[1:])
    columns = (src[order, None] * B + np.arange(B)).ravel()
    idx = sparse.get_index_dtype((columns, indptr), maxval=num_nodes * B,
                                 check_contents=True)
    return order, columns.astype(idx, copy=False), indptr.astype(idx, copy=False)


def basis_conv(H, bases, coeffs, src, dst, slot, norm, num_nodes: int,
               att_a=None, rel_emb=None, target=None, pattern=None) -> Tensor:
    """One basis-decomposed relational convolution, without its self term:

        out[i] = sum over e with dst[e] == i of
                 norm[e] * alpha[e] * H[src[e]] @ W[e],
        W[e]   = sum_b coeffs[slot[e], b] * V_b,

    a ``(num_nodes, d_out)`` tensor. ``H`` is ``(n, d_in)``, ``bases`` holds
    the B matrices V_b flattened to ``(B, d_in * d_out)``, ``coeffs`` the
    ``(S, B)`` mixing table, and ``src``, ``dst``, ``slot`` and ``norm`` one
    entry per message, in any order. Without ``att_a`` every gate alpha is
    1. With it, ``att_a = [a_src, a_dst, a_rel, a_tgt]`` (widths d_out,
    d_out, d_rel, d_rel), ``rel_emb`` is the ``(R, d_rel)`` relation table
    and ``target`` one relation per node, and

        alpha[e] = sigmoid(a_src . W[e] h_src + a_dst . W[e] h_dst
                           + a_rel . rel_emb[slot[e] // 2]
                           + a_tgt . rel_emb[target[dst[e]]]).

    Messages are mixed at node level. HV = H @ [V_1 ... V_B] is one
    ``(n, B * d_out)`` product, read as n * B rows HV[j, b] = H[j] @ V_b.
    The messages form one sparse ``(num_nodes, n * B)`` matrix

        A[dst[e], src[e] * B + b] = norm[e] * alpha[e] * coeffs[slot[e], b],

    a CSR on the pattern ``conv_pattern(src, dst, num_nodes, B)``
    (duplicate entries add up), and out = A @ HV. The pattern depends on the
    messages alone, so a caller running several layers over one message
    list builds it once per forward and passes it as ``pattern``; each call
    then writes only the values, and the backward's A^T reads the same
    arrays. Without ``pattern`` the call builds it itself. The gate's logit
    mixes the per-node scores u = HV . a by ``coeffs[slot]`` the same way,
    so no per-message W h is built. The VJP, given the output gradient g:
    - dHV = A^T @ g, plus the gate's score gradients times ``a_src`` and
      ``a_dst``; then H gets dHV @ [V_1 ... V_B]^T and the bases H^T @ dHV,
      two node-level products;
    - dA[e, b] = g[dst[e]] . HV[src[e], b], an ``(m, B)`` array, gives the
      ``coeffs`` gradient (times norm * alpha, scattered by ``slot``) and the
      logit's (its dot with ``coeffs[slot[e]]``).
    The tape keeps HV, A and ``(m, B)`` arrays: no ``(m, d_out)`` or
    ``(m, B, d_out)`` array is built in the forward. scipy is imported on
    the first call, so importing the package loads numpy only.
    """
    from scipy import sparse

    H, bases, coeffs = as_tensor(H), as_tensor(bases), as_tensor(coeffs)
    src, dst, slot = (np.asarray(a, dtype=np.int64) for a in (src, dst, slot))
    norm = np.asarray(norm, dtype=np.float64)
    if H.data.ndim != 2 or bases.data.ndim != 2 or bases.shape[1] % H.shape[1]:
        raise ShapeMismatch(f"bases {bases.shape} do not map features {H.shape}")
    n, d_in = H.shape
    B, d_out = bases.shape[0], bases.shape[1] // d_in
    if coeffs.data.ndim != 2 or coeffs.shape[1] != B:
        raise ShapeMismatch(f"coeffs {coeffs.shape} do not mix {B} bases")
    Hd = H.data
    # column b * d_out + k of Vcat is V_b[:, k], so row j * B + b of HV is H[j] @ V_b
    Vcat = bases.data.reshape(B, d_in, d_out).transpose(1, 0, 2).reshape(d_in, B * d_out)
    HV = (Hd @ Vcat).reshape(n * B, d_out)
    C = coeffs.data[slot]                               # (m, B)
    leaves = {"H": H, "bases": bases, "coeffs": coeffs}
    w = norm
    a = E = tgt = alpha = us = None
    if att_a is not None:
        att_a, rel_emb = as_tensor(att_a), as_tensor(rel_emb)
        a, E = att_a.data, rel_emb.data
        d_rel = E.shape[1]
        if a.shape != (2 * d_out + 2 * d_rel,):
            raise ShapeMismatch(f"att_a {a.shape} is not (2 * {d_out} + 2 * {d_rel},)")
        a_src, a_dst, a_rel, a_tgt = np.split(a, [d_out, 2 * d_out, 2 * d_out + d_rel])
        tgt = np.broadcast_to(np.asarray(target, dtype=np.int64), (n,))[dst]
        us = ((HV @ a_src).reshape(n, B)[src]
              + (HV @ a_dst).reshape(n, B)[dst])        # (m, B): d logit / d C
        logit = ((C * us).sum(axis=1) + (E @ a_rel)[slot // 2] + (E @ a_tgt)[tgt])
        alpha = 1.0 / (1.0 + np.exp(-logit))
        w = norm * alpha
        leaves.update(att_a=att_a, rel_emb=rel_emb)
    if pattern is None:
        pattern = conv_pattern(src, dst, num_nodes, B)
    order, columns, indptr = pattern
    A = sparse.csr_matrix(((w[:, None] * C)[order].ravel(), columns, indptr),
                          shape=(num_nodes, n * B))
    out = A @ HV
    vjps = shared_vjps(lambda g: _basis_conv_grads(g, Hd, Vcat, HV, A, C, w, src, dst,
                                                   slot, coeffs.shape[0], norm, a, E,
                                                   tgt, alpha, us), leaves)
    return Tensor(out, _parents=tuple((t, vjps[name]) for name, t in leaves.items()
                                      if t.requires_grad))


def _basis_conv_grads(g, H, Vcat, HV, A, C, w, src, dst, slot, num_slots,
                      norm, a, E, tgt, alpha, us) -> dict:
    """Every gradient ``basis_conv`` sends to its inputs, given the gradient
    ``g`` of its output, the ``(d_in, B * d_out)`` bases ``Vcat``, the
    ``(n * B, d_out)`` basis outputs ``HV`` and what else the forward kept;
    ``a`` is None without attention."""
    n, d_in = H.shape
    B, d_out = C.shape[1], HV.shape[1]
    dHV = A.T @ g                                     # (n * B, d_out)
    dval = np.einsum("md,mbd->mb", g[dst], HV.reshape(n, B, d_out)[src])
    dC = dval * w[:, None]
    out = {}
    if a is not None:
        d_rel = E.shape[1]
        a_uv, a_rel, a_tgt = np.split(a, [2 * d_out, 2 * d_out + d_rel])
        a_uv = a_uv.reshape(2, d_out)
        gl = (dval * C).sum(axis=1) * norm * alpha * (1.0 - alpha)
        dmix = gl[:, None] * C
        # du[0] and du[1]: the gradients of the (n, B) scores HV . a_src and
        # HV . a_dst
        du = scatter_rows(np.concatenate([dmix, dmix]),
                           np.concatenate([src, dst + n]), 2 * n).reshape(2, n * B)
        dHV += du.T @ a_uv
        dC += gl[:, None] * us
        dr_rel = np.bincount(slot // 2, gl, len(E))
        dr_tgt = np.bincount(tgt, gl, len(E))
        out["att_a"] = np.concatenate([(du @ HV).reshape(-1), E.T @ dr_rel, E.T @ dr_tgt])
        out["rel_emb"] = dr_rel[:, None] * a_rel + dr_tgt[:, None] * a_tgt
    dHV = dHV.reshape(n, B * d_out)
    out["H"] = dHV @ Vcat.T
    out["bases"] = (H.T @ dHV).reshape(d_in, B, d_out).transpose(1, 0, 2).reshape(B, -1)
    out["coeffs"] = scatter_rows(dC, slot, num_slots)
    return out


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
    return node(out, a, lambda g: np.einsum("mk,mki->mi", g, b.data[:, fwd_idx]),
                 b, lambda g: np.einsum("mk,mkj->mj", g, a.data[:, bwd_idx]))


def norm(a, p: float = 2.0, axis=None) -> Tensor:
    """p-norm of a flattened tensor, or of each slice along ``axis``."""
    if p == 1.0:
        return tsum(absolute(a), axis=axis)
    if p == 2.0:
        return sqrt(tsum(power(a, 2.0), axis=axis))
    return power(tsum(power(absolute(a), p), axis=axis), 1.0 / p)


# -- BLAS threads ------------------------------------------------------------

def _openblas_thread_api(path: str):
    """The (get, set) thread-count functions of the OpenBLAS at ``path``:
    numpy's wheel names them ``scipy_openblas_*_num_threads64_``, system
    builds ``openblas_*_num_threads``. None when ``path`` has neither."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            names = (f"{prefix}_get_num_threads{suffix}",
                     f"{prefix}_set_num_threads{suffix}")
            if all(hasattr(lib, name) for name in names):
                get, put = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@functools.cache
def loaded_openblas() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS mapped into
    this process, found through ``/proc/self/maps``; empty where there is
    none or no procfs. The maps are read once, on the first call: numpy's
    own OpenBLAS is loaded with numpy, before this module."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {parts[5].strip() for parts in (line.split(maxsplit=5) for line in fh)
                     if len(parts) == 6 and "openblas" in parts[5].lower()}
    except OSError:
        return ()
    return tuple(api for api in map(_openblas_thread_api, sorted(paths)) if api)


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then give
    each library back its previous thread count, also after an exception.

    A GNN step is a chain of small products, where OpenBLAS's threaded gemm
    has millisecond tails: on a 2-vCPU x86 machine, back-to-back
    (345, 32) @ (32, 128) products with two threads took 45 us at the median
    but 8 ms at the 99th percentile, against 85 and 123 us on one thread.
    One thread also makes the results independent of the core count, as
    threaded products can round differently. The count is process-wide, so
    the scope is entered around the GNN work alone, never at import: the
    host process's own numpy keeps its threads. Where no OpenBLAS is loaded
    the scope does nothing.
    """
    apis = loaded_openblas()
    previous = [get() for get, _ in apis]
    for _, put in apis:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(apis, previous):
            put(count)
