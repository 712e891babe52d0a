import numpy as np
import pytest

from indkg.autodiff import (
    Tensor,
    basis_conv,
    circular_correlation,
    concat,
    conv_pattern,
    gather_rows,
    loaded_openblas,
    matmul,
    relu,
    reshape,
    segment_sum,
    single_blas_thread,
    sub,
)
from indkg.errors import NonFiniteGradient, ShapeMismatch
from indkg.model import gradient_check

from helpers import (
    attention_gate_loop_oracle,
    basis_message_pass_loop_oracle,
    check,
    corr_oracle,
    numeric_grad,
    sqrt,
    tsum,
)


def test_quadratic_probe():
    theta = Tensor(3.0, requires_grad=True)
    loss = theta * theta
    loss.backward()
    assert loss.item() == 9.0
    assert theta.grad == pytest.approx(6.0)


def test_constant_graph_zero_grad():
    w = Tensor(np.zeros(4), requires_grad=True)
    x = Tensor(np.random.default_rng(0).normal(size=4))
    loss = tsum(w * 0.0) + tsum(x)
    loss.backward()
    assert np.all(w.grad == 0.0)


def test_add_mul_broadcast():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    check(lambda: tsum((a + b) * b), a, b)


def test_matmul_all_shapes():
    rng = np.random.default_rng(2)
    A = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    B = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    v = Tensor(rng.normal(size=4), requires_grad=True)
    check(lambda: tsum(matmul(A, B)), A, B)
    check(lambda: tsum(matmul(v, B)), v, B)
    check(lambda: tsum(matmul(A, v)), A, v)
    u = Tensor(rng.normal(size=4), requires_grad=True)
    check(lambda: matmul(v, u), v, u)


@pytest.mark.parametrize("n, d", [(1, 1), (5, 4), (37, 19), (120, 64)])
@pytest.mark.parametrize("e", [3, None], ids=["matrix", "vector"])
def test_matmul_vjps_equal_the_plain_products_bitwise(n, d, e):
    # (n, d) @ (d, e) and the readout's (n, d) @ (d,)
    rng = np.random.default_rng(n * d)
    A = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    B = Tensor(rng.normal(size=(d,) if e is None else (d, e)), requires_grad=True)
    g = rng.normal(size=(n,) if e is None else (n, e))
    matmul(A, B).backward(g)
    want_a = np.outer(g, B.data) if e is None else g @ B.data.T
    assert A.grad.tobytes() == want_a.tobytes()
    assert B.grad.tobytes() == (A.data.T @ g).tobytes()


def test_unary_ops():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=6) + 0.1, requires_grad=True)
    check(lambda: tsum(relu(x)), x, tol=1e-6)


def test_relu_subgradient_zero_at_kink():
    x = Tensor(np.array([0.0, -1.0, 2.0]), requires_grad=True)
    tsum(relu(x)).backward()
    assert x.grad.tolist() == [0.0, 0.0, 1.0]


def test_concat_reshape():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    check(lambda: tsum(concat([a, b], axis=1) * 2.0), a, b)
    check(lambda: tsum(reshape(a, (6,)) * reshape(a, (6,))), a)


def test_gather_segment():
    rng = np.random.default_rng(5)
    H = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    idx = np.array([0, 2, 2, 4])
    seg = np.array([1, 0, 1, 0])
    check(lambda: tsum(segment_sum(gather_rows(H, idx), seg, 2)
                       * segment_sum(gather_rows(H, idx) * 1.0, seg, 2)), H)


@pytest.mark.parametrize("trailing", [(), (3,), (2, 3)], ids=["1-D", "2-D", "3-D"])
@pytest.mark.parametrize("idx", [[4, 0, 4, 2, 0, 4], [3, 1], []],
                         ids=["repeats", "distinct", "empty"])
def test_scatter_matches_add_at_oracle(trailing, idx):
    # the gather_rows VJP and the segment_sum forward both scatter-add rows
    rng = np.random.default_rng(8)
    idx = np.array(idx, dtype=np.int64)
    g = rng.normal(size=(len(idx),) + trailing)
    oracle = np.zeros((5,) + trailing)
    np.add.at(oracle, idx, g)
    table = Tensor(rng.normal(size=(5,) + trailing), requires_grad=True)
    gather_rows(table, idx).backward(g)
    summed = segment_sum(Tensor(g), idx, 5).data
    for got in (table.grad, summed):
        assert got.shape == oracle.shape
        assert np.allclose(got, oracle, rtol=1e-12, atol=1e-15)


def conv_case(m, rng, n=5, d_in=3, B=3, d_out=2, S=4, d_rel=2):
    """Leaves and message arrays for ``basis_conv``: repeated sources and
    destinations, dst not sorted, and one target relation per node."""
    leaves = {
        "H": rng.normal(size=(n, d_in)),
        "bases": rng.normal(size=(B, d_in * d_out)),
        "coeffs": rng.normal(size=(S, B)),
        "att_a": rng.normal(size=2 * d_out + 2 * d_rel),
        "rel_emb": rng.normal(size=(S // 2, d_rel)),
    }
    leaves = {k: Tensor(v, requires_grad=True) for k, v in leaves.items()}
    src, dst, slot = (rng.integers(k, size=m) for k in (n, n, S))
    norm = rng.uniform(0.2, 1.0, size=m)
    target = rng.integers(S // 2, size=n)
    return leaves, src, dst, slot, norm, target


def conv(leaves, src, dst, slot, norm, target, num_nodes, gated, pattern=None):
    L = leaves
    att = dict(att_a=L["att_a"], rel_emb=L["rel_emb"], target=target) if gated else {}
    return basis_conv(L["H"], L["bases"], L["coeffs"], src, dst, slot, norm,
                      num_nodes, pattern=pattern, **att)


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "alpha"])
def test_basis_conv_matches_loop_oracle(gated):
    rng = np.random.default_rng(9)
    leaves, src, dst, slot, norm, target = conv_case(11, rng)
    assert (dst[1:] < dst[:-1]).any() and len(set(src)) < len(src)
    H, bases, coeffs = (leaves[k].data for k in ("H", "bases", "coeffs"))
    B, d_in = bases.shape[0], H.shape[1]
    V = bases.reshape(B, d_in, -1)
    HV = np.stack([H @ V[b] for b in range(B)], axis=1)
    alpha = attention_gate_loop_oracle(
        H, V, coeffs, leaves["att_a"].data, leaves["rel_emb"].data, target,
        src, dst, slot) if gated else None
    oracle = basis_message_pass_loop_oracle(HV, coeffs, src, dst, slot, norm, 6,
                                            alpha=alpha)
    out = conv(leaves, src, dst, slot, norm, target, 6, gated)
    assert out.shape == (6, 2)
    assert np.allclose(out.data, oracle, rtol=1e-12, atol=1e-14)

    w = rng.normal(size=(6, 2))
    params = leaves if gated else {k: leaves[k] for k in ("H", "bases", "coeffs")}
    err = gradient_check(
        params, lambda: tsum(conv(leaves, src, dst, slot, norm, target, 6, gated) * w),
        sample_frac=1.0, rng=np.random.default_rng(0))
    assert err < 1e-6


def conv_grads(leaves, src, dst, slot, norm, target, num_nodes, gated, w,
               pattern=None):
    """Output of ``basis_conv`` and the gradients of sum(out * w), one per
    leaf it reads."""
    names = list(leaves) if gated else ["H", "bases", "coeffs"]
    for t in leaves.values():
        t.grad = None
    out = conv(leaves, src, dst, slot, norm, target, num_nodes, gated, pattern)
    tsum(out * w).backward()
    return [out.data] + [leaves[k].grad for k in names]


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "alpha"])
def test_basis_conv_independent_of_message_order(gated):
    rng = np.random.default_rng(12)
    leaves, src, dst, slot, norm, target = conv_case(40, rng)
    w = rng.normal(size=(5, 2))
    perm = rng.permutation(40)
    want = conv_grads(leaves, src, dst, slot, norm, target, 5, gated, w)
    got = conv_grads(leaves, src[perm], dst[perm], slot[perm], norm[perm], target,
                     5, gated, w)
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "alpha"])
def test_basis_conv_with_a_given_pattern(gated):
    # messages in any order, repeated pairs and two rows no message reaches:
    # a pattern passed in gives what the call builds for itself, and one
    # pattern serves several calls over the same messages
    rng = np.random.default_rng(14)
    leaves, src, dst, slot, norm, target = conv_case(30, rng)
    dst = np.minimum(dst, 4)
    w = rng.normal(size=(7, 2))
    pattern = conv_pattern(src, dst, 7, leaves["bases"].shape[0])
    want = conv_grads(leaves, src, dst, slot, norm, target, 7, gated, w)
    for _ in range(2):
        got = conv_grads(leaves, src, dst, slot, norm, target, 7, gated, w,
                         pattern=pattern)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_conv_pattern_layout():
    # row dst holds, in message order, the B columns src * B + b of each of
    # its messages; the index arrays already have scipy's index type
    from scipy import sparse
    src, dst = np.array([2, 0, 1, 2]), np.array([1, 0, 1, 3])
    order, columns, indptr = conv_pattern(src, dst, 5, 2)
    assert order.tolist() == [1, 0, 2, 3]
    assert columns.tolist() == [0, 1, 4, 5, 2, 3, 4, 5]
    assert indptr.tolist() == [0, 2, 6, 6, 8, 8]
    idx = sparse.get_index_dtype((columns, indptr), maxval=10, check_contents=True)
    assert columns.dtype == indptr.dtype == idx


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "alpha"])
def test_basis_conv_duplicate_messages_and_unreached_rows(gated):
    # every (src, dst, slot) message twice, so the sparse matrix holds
    # duplicate entries; rows 4..6 receive no message, 5 and 6 have no feature
    rng = np.random.default_rng(13)
    leaves, src, dst, slot, norm, target = conv_case(7, rng)
    src, dst, slot, norm = (np.concatenate([a, a])
                            for a in (src, np.minimum(dst, 3), slot, norm))
    H, bases, coeffs = (leaves[k].data for k in ("H", "bases", "coeffs"))
    B, d_in = bases.shape[0], H.shape[1]
    V = bases.reshape(B, d_in, -1)
    HV = np.stack([H @ V[b] for b in range(B)], axis=1)
    alpha = attention_gate_loop_oracle(
        H, V, coeffs, leaves["att_a"].data, leaves["rel_emb"].data, target,
        src, dst, slot) if gated else None
    oracle = basis_message_pass_loop_oracle(HV, coeffs, src, dst, slot, norm, 7,
                                            alpha=alpha)
    out = conv(leaves, src, dst, slot, norm, target, 7, gated)
    assert out.shape == (7, 2) and not out.data[4:].any()
    assert np.allclose(out.data, oracle, rtol=1e-12, atol=1e-14)

    w = rng.normal(size=(7, 2))
    params = leaves if gated else {k: leaves[k] for k in ("H", "bases", "coeffs")}
    err = gradient_check(
        params, lambda: tsum(conv(leaves, src, dst, slot, norm, target, 7, gated) * w),
        sample_frac=1.0, rng=np.random.default_rng(0))
    assert err < 1e-6


def test_basis_conv_empty_message_list():
    rng = np.random.default_rng(10)
    leaves, src, dst, slot, norm, target = conv_case(0, rng)
    for gated in (False, True):
        out = conv(leaves, src, dst, slot, norm, target, 5, gated)
        assert out.shape == (5, 2) and not out.data.any()
        tsum(out * 3.0).backward()
    for t in leaves.values():
        assert t.grad.shape == t.shape and not t.grad.any()


def test_basis_conv_shape_error():
    rng = np.random.default_rng(11)
    L, src, dst, slot, norm, target = conv_case(4, rng)
    args = (src, dst, slot, norm, 5)
    with pytest.raises(ShapeMismatch):       # coeffs mix 2 bases, not 3
        basis_conv(L["H"], L["bases"], Tensor(np.zeros((4, 2))), *args)
    with pytest.raises(ShapeMismatch):       # 7 columns are not 3 * d_out
        basis_conv(L["H"], Tensor(np.zeros((3, 7))), L["coeffs"], *args)
    with pytest.raises(ShapeMismatch):       # att_a is not 2 * 2 + 2 * 2 wide
        basis_conv(L["H"], L["bases"], L["coeffs"], *args,
                   att_a=Tensor(np.zeros(7)), rel_emb=L["rel_emb"], target=target)


def test_single_blas_thread_scope_restores_counts():
    apis = loaded_openblas()
    if not apis:
        pytest.skip("numpy runs on no OpenBLAS in this process")

    def counts():
        return [get() for get, _ in apis]

    original = counts()
    try:
        for _, put in apis:          # a count other than 1 to give back
            put(2)
        before = counts()
        with single_blas_thread():
            assert counts() == [1] * len(apis)
            with single_blas_thread():
                assert counts() == [1] * len(apis)
            assert counts() == [1] * len(apis)
        assert counts() == before
        with pytest.raises(RuntimeError), single_blas_thread():
            raise RuntimeError("inside the scope")
        assert counts() == before
    finally:
        for (_, put), count in zip(apis, original):
            put(count)


def test_circular_correlation_matches_oracle():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out = circular_correlation(a, b)
    for row in range(3):
        assert np.allclose(out.data[row], corr_oracle(a.data[row], b.data[row]),
                           atol=1e-12)
    check(lambda: tsum(circular_correlation(a, b) * 1.5), a, b)


def test_circular_correlation_shape_error():
    a = Tensor(np.zeros((2, 4)))
    b = Tensor(np.zeros((2, 5)))
    with pytest.raises(ShapeMismatch):
        circular_correlation(a, b)


def test_circular_correlation_peak_stays_near_its_inputs():
    # a gather of b into (m, d, d) rows b[:, (i + k) % d] peaks at about d
    # inputs' worth
    import tracemalloc
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(2000, 32)), requires_grad=True)
    b = Tensor(rng.normal(size=(2000, 32)), requires_grad=True)
    g = rng.normal(size=(2000, 32))
    tracemalloc.start()
    try:
        out = circular_correlation(a, b)
        forward = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        out.backward(g)   # writes the two (m, d) gradients as well
        backward = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward <= 4 * a.data.nbytes, forward / a.data.nbytes
    assert backward <= 8 * a.data.nbytes, backward / a.data.nbytes


def test_backward_requires_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        (x * 2.0).backward()


def test_nonfinite_gradient_detected():
    x = Tensor(np.array([0.0]), requires_grad=True)
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteGradient):
        tsum(sqrt(x)).backward()


def test_gradient_accumulates_across_backwards():
    x = Tensor(2.0, requires_grad=True)
    (x * x).backward()
    (x * x).backward()
    assert x.grad == pytest.approx(8.0)


def test_first_gradient_is_not_shared_between_parents():
    # add passes the same upstream array to both parents; a later
    # contribution to one of them must not leak into the other
    for loss in (lambda a, b: tsum(a * a) + tsum(a + b),
                 lambda a, b: tsum(a + b) + tsum(a * a)):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        loss(a, b).backward()
        assert a.grad.tolist() == [3.0, 5.0]
        assert b.grad.tolist() == [1.0, 1.0]


def test_tsum_axis_first_gradients_are_not_shared():
    # tsum's VJP returns a view of its upstream gradient, which backward
    # broadcasts; every leaf must still own a fresh, writable gradient
    for loss in (lambda a, b: tsum(tsum(a + b, axis=1)) + tsum(a * a),
                 lambda a, b: tsum(a * a) + tsum(tsum(a + b, axis=-1)),
                 lambda a, b: tsum(tsum(a, axis=0) * tsum(b, axis=0))):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        loss(a, b).backward()
        for x in (a, b):
            assert x.grad.shape == (2, 3) and x.grad.flags.writeable
            assert np.allclose(x.grad, numeric_grad(lambda: loss(a, b), x), atol=1e-6)
        assert not np.shares_memory(a.grad, b.grad)


def test_sub_and_rsub_with_broadcast_operands():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=3), requires_grad=True)
    w = rng.normal(size=(4, 3))
    for f in (lambda: tsum((a - b) * w), lambda: tsum((c - a) * w),
              lambda: tsum((2.0 - a) * (b - 0.5) * w), lambda: tsum(sub(b, c) * a)):
        params = {"a": a, "b": b, "c": c}
        assert gradient_check(params, f, sample_frac=1.0) < 1e-7
    # one node, and the value of a + (-1) * b to the bit
    assert [parent for parent, _ in (a - b)._parents] == [a, b]
    assert (a - b).data.tobytes() == (a.data + -1.0 * b.data).tobytes()
    assert (1.5 - c).data.tobytes() == (-1.0 * c.data + 1.5).tobytes()


def test_gradient_check_harness():
    rng = np.random.default_rng(7)
    W = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=4))
    err = gradient_check({"W": W}, lambda: tsum(relu(matmul(x, W))),
                         sample_frac=1.0, rng=np.random.default_rng(0))
    assert err < 1e-6
