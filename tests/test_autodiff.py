import numpy as np
import pytest

from indkg.autodiff import (
    Tensor,
    basis_message_pass,
    circular_correlation,
    concat,
    gather_rows,
    matmul,
    norm,
    relu,
    reshape,
    segment_sum,
    sigmoid,
    tmean,
    transpose,
    tsum,
)
from indkg.errors import NonFiniteGradient, ShapeMismatch
from indkg.model import gradient_check

from helpers import basis_message_pass_loop_oracle, corr_oracle


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x.data)
    flat, gflat = x.data.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f().item()
        flat[i] = orig - eps
        down = f().item()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return g


def check(f, *leaves, tol=1e-7):
    for leaf in leaves:
        leaf.grad = None
    out = f()
    out.backward()
    for leaf in leaves:
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        numeric = numeric_grad(f, leaf)
        assert np.allclose(analytic, numeric, atol=tol), (analytic, numeric)


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


def test_unary_ops():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=6) + 0.1, requires_grad=True)
    check(lambda: tsum(relu(x)), x, tol=1e-6)
    check(lambda: tsum(sigmoid(x)), x)
    check(lambda: norm(x, 2.0), x, tol=1e-6)
    check(lambda: norm(x, 1.0), x, tol=1e-6)
    check(lambda: tmean(x * x), x)


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
    c = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = rng.normal(size=(4, 2, 3))
    assert transpose(c, (2, 0, 1)).shape == (4, 2, 3)
    check(lambda: tsum(transpose(c, (2, 0, 1)) * w), c)


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


def message_pass_case(m, rng, n=5, B=3, d=2, S=4):
    """Leaves and message arrays for ``basis_message_pass``: repeated
    sources and destinations, dst not sorted."""
    HV = Tensor(rng.normal(size=(n, B, d)), requires_grad=True)
    coeffs = Tensor(rng.normal(size=(S, B)), requires_grad=True)
    alpha = Tensor(rng.uniform(0.1, 1.0, size=m), requires_grad=True)
    src, dst, slot = (rng.integers(k, size=m) for k in (n, n, S))
    norm = rng.uniform(0.2, 1.0, size=m)
    return HV, coeffs, alpha, src, dst, slot, norm


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "alpha"])
def test_basis_message_pass_matches_loop_oracle(gated):
    rng = np.random.default_rng(9)
    HV, coeffs, alpha, src, dst, slot, norm = message_pass_case(11, rng)
    assert (dst[1:] < dst[:-1]).any() and len(set(src)) < len(src)
    gate = alpha if gated else None
    oracle = basis_message_pass_loop_oracle(
        HV.data, coeffs.data, src, dst, slot, norm, 6,
        alpha=alpha.data if gated else None)
    order = np.argsort(src, kind="stable")
    out = basis_message_pass(HV, coeffs, src, dst, slot, norm, 6,
                             alpha=gate, src_order=order)
    assert out.shape == (6, 2)
    assert np.allclose(out.data, oracle, rtol=1e-12, atol=1e-14)

    w = rng.normal(size=(6, 2))
    params = {"HV": HV, "coeffs": coeffs}
    if gated:
        params["alpha"] = alpha
    err = gradient_check(
        params,
        lambda: tsum(basis_message_pass(HV, coeffs, src, dst, slot, norm, 6,
                                        alpha=gate, src_order=order) * w),
        sample_frac=1.0, rng=np.random.default_rng(0))
    assert err < 1e-4


def test_basis_message_pass_empty_message_list():
    rng = np.random.default_rng(10)
    HV, coeffs, alpha, src, dst, slot, norm = message_pass_case(0, rng)
    for gate in (None, alpha):
        out = basis_message_pass(HV, coeffs, src, dst, slot, norm, 5, alpha=gate,
                                 src_order=np.argsort(src, kind="stable"))
        assert out.shape == (5, 2) and not out.data.any()
        tsum(out * 3.0).backward()
        assert HV.grad.shape == HV.shape and not HV.grad.any()
        assert coeffs.grad.shape == coeffs.shape and not coeffs.grad.any()
    assert alpha.grad.shape == (0,)


def test_basis_message_pass_shape_error():
    rng = np.random.default_rng(11)
    HV, coeffs, _, src, dst, slot, norm = message_pass_case(4, rng)
    order = np.argsort(src, kind="stable")
    with pytest.raises(ShapeMismatch):
        basis_message_pass(HV, Tensor(np.zeros((4, 2))), src, dst, slot, norm, 5,
                           src_order=order)
    with pytest.raises(ShapeMismatch):
        basis_message_pass(reshape(HV, (5, 6)), coeffs, src, dst, slot, norm, 5,
                           src_order=order)


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


def test_backward_requires_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        (x * 2.0).backward()


def test_nonfinite_gradient_detected():
    x = Tensor(np.array([0.0]), requires_grad=True)
    from indkg.autodiff import sqrt
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


def test_gradient_check_harness():
    rng = np.random.default_rng(7)
    W = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=4))
    err = gradient_check({"W": W}, lambda: tsum(relu(matmul(x, W))),
                         sample_frac=1.0, rng=np.random.default_rng(0))
    assert err < 1e-6
