"""The reverse-mode autodiff core and the three triple decoders.

Run: python3 demos/03_autodiff_and_decoders.py
"""

import numpy as np

from indkg.autodiff import Tensor, matmul, relu, tsum
from indkg.model import DecoderKind, gradient_check, kge_score

# a two-layer toy network; backward() fills .grad on every leaf
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=4))
W1 = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
W2 = Tensor(rng.normal(size=(8, 1)), requires_grad=True)
loss = tsum(matmul(relu(matmul(x, W1)), W2))
loss.backward()
print(f"toy loss = {loss.item():.4f}")
print(f"dL/dW1 norm = {np.linalg.norm(W1.grad):.4f}, "
      f"dL/dW2 norm = {np.linalg.norm(W2.grad):.4f}")

err = gradient_check({"W1": W1, "W2": W2},
                     lambda: tsum(matmul(relu(matmul(x, W1)), W2)),
                     sample_frac=1.0, rng=np.random.default_rng(1))
print(f"central-difference check, max relative error: {err:.2e}")

# decoders score (h, r, t) vectors; higher = more plausible
print("\ndecoder scores for a perfectly translated pair:")
h = Tensor(np.array([1.0, 2.0, 0.5, -1.0]))
r = Tensor(np.array([0.5, -1.0, 0.0, 2.0]))
t = Tensor(h.data + r.data)
for name in ("transe", "distmult"):
    kind = DecoderKind(name)
    print(f"  {name:9s} {kge_score(kind, h, r, t).item():8.3f}")

# RotatE stores phases; zero phases leave the head untouched
kind = DecoderKind("rotate", margin=6.0)
phases = Tensor(np.zeros(2))
print(f"  rotate    {kge_score(kind, h, phases, h).item():8.3f} "
      f"(identity rotation scores at the margin)")

# stacked (m, d) rows score as a batch, one score per row
heads, tails = Tensor(np.stack([h.data] * 2)), Tensor(np.stack([t.data] * 2))
rels = Tensor(np.stack([r.data, -r.data]))
scores = kge_score(DecoderKind("transe"), heads, rels, tails).data
print(f"\ntranse over two rows (true relation, reversed): {scores.round(3)}")
