"""Adam optimizer with bias correction and optional cosine annealing."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor


class NumericError(RuntimeError):
    """Raised when a NaN gradient would corrupt the parameters."""


class Adam:
    """Standard Adam update over a named parameter dict.

    Moment buffers shape-match their parameters.  A NaN in any gradient
    aborts the step before touching any parameter and names the offender.
    Every parameter must take a gradient; a constant raises ``ValueError``.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr=1e-4):
        for name, p in params.items():
            if not p.requires_grad:
                raise ValueError(f"parameter '{name}' takes no gradient, so Adam cannot train it")
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None):
        lr = self.lr if lr is None else lr
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericError(f"non-finite gradient in parameter '{name}'")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1 ** t
        bc2 = 1.0 - self.BETA2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
            p.data -= (lr * update).astype(p.data.dtype)


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    """Learning rate for the given epoch, annealed from ``base_lr`` to 0 on a
    cosine."""
    if total_epochs <= 1:
        return base_lr
    frac = min(epoch, total_epochs - 1) / (total_epochs - 1)
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * frac))
