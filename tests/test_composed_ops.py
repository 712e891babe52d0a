"""The single ops of ``helpers``, in which the composed-chain oracles are
written, against numpy and central differences."""

import numpy as np
import pytest

from indkg.autodiff import Tensor

from helpers import (
    absolute,
    check,
    cos,
    norm,
    power,
    sin,
    sqrt,
    tmean,
    transpose,
    tsum,
)


def test_norms_and_mean():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=6) + 0.1, requires_grad=True)
    check(lambda: norm(x, 2.0), x, tol=1e-6)
    check(lambda: norm(x, 1.0), x, tol=1e-6)
    check(lambda: tmean(x * x), x)


def test_transpose():
    rng = np.random.default_rng(4)
    c = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = rng.normal(size=(4, 2, 3))
    assert transpose(c, (2, 0, 1)).shape == (4, 2, 3)
    check(lambda: tsum(transpose(c, (2, 0, 1)) * w), c)


@pytest.mark.parametrize("op, want, signed", [
    (absolute, np.abs, True),
    (lambda a: power(a, 3.0), lambda v: v ** 3.0, True),
    (sqrt, np.sqrt, False),
    (sin, np.sin, True),
    (cos, np.cos, True),
], ids=["absolute", "power", "sqrt", "sin", "cos"])
def test_elementwise_ops(op, want, signed):
    rng = np.random.default_rng(5)
    v = rng.uniform(0.2, 2.0, size=(3, 4))
    x = Tensor(v * rng.choice([-1.0, 1.0], size=v.shape) if signed else v,
               requires_grad=True)
    w = rng.normal(size=(3, 4))
    assert op(x).data.tobytes() == want(x.data).tobytes()
    check(lambda: tsum(op(x) * w), x, tol=1e-6)


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_reductions_along_an_axis(axis):
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    w = rng.normal(size=np.delete([3, 4], axis))
    assert tsum(x, axis=axis).data.tobytes() == x.data.sum(axis=axis).tobytes()
    assert np.allclose(tmean(x, axis=axis).data, x.data.mean(axis=axis), atol=1e-15)
    for p in (1.0, 2.0, 3.0):
        assert np.allclose(norm(x, p, axis=axis).data,
                           np.linalg.norm(x.data, ord=p, axis=axis), atol=1e-12)
        check(lambda: tsum(norm(x, p, axis=axis) * w), x, tol=1e-6)
    check(lambda: tsum(tsum(x, axis=axis) * w), x)
    check(lambda: tsum(tmean(x, axis=axis) * w), x)
