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
    """

    def __init__(self, params: dict[str, Tensor], lr=1e-4, beta1=0.9, beta2=0.999,
                 eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= (lr * update).astype(p.data.dtype)


def cosine_lr(base_lr: float, epoch: int, total_epochs: int, min_lr: float = 0.0) -> float:
    """Cosine-annealed learning rate for the given epoch."""
    if total_epochs <= 1:
        return base_lr
    frac = min(epoch, total_epochs - 1) / (total_epochs - 1)
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * frac))
