"""Central finite-difference verification of the autodiff backward pass."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


class NonDeterministicError(RuntimeError):
    """Two forward evaluations of the checked function disagreed."""


@dataclass
class GradCheckReport:
    max_rel_err: float
    per_param: dict[str, float] = field(default_factory=dict)
    tol: float = 1e-4

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def _vec_rel_err(a: np.ndarray, n: np.ndarray) -> float:
    # Vector-norm relative error over the probed entries.  Per-entry ratios
    # are dominated by f(th+eps)-f(th-eps) cancellation noise wherever the
    # true gradient entry is tiny; the norm form keeps the check sharp for
    # wrong backward rules without tripping on roundoff.
    denom = max(np.linalg.norm(a) + np.linalg.norm(n), 1e-12)
    return float(np.linalg.norm(a - n) / denom)


def grad_check(f, params: dict[str, Tensor], eps: float = 1e-5, tol: float = 1e-4,
               max_entries_per_param: int | None = 32) -> GradCheckReport:
    """Compare autodiff gradients of scalar-valued ``f(params)`` against
    central finite differences (f(th+eps e) - f(th-eps e)) / 2 eps.

    Parameters must be float64 for the default tolerance to be meaningful.
    For large parameters a random subset of entries, drawn from seed 0, is
    probed (``max_entries_per_param``); pass None to probe every entry.
    """
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters, got {p.data.dtype} for '{name}'")

    base1 = float(f(params).data)
    out = f(params)
    base2 = float(out.data)
    if base1 != base2:
        raise NonDeterministicError(f"forward passes differ: {base1!r} vs {base2!r}")

    for p in params.values():
        p.grad = None
    out.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    rng = np.random.default_rng(0)
    per_param = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries_per_param is None or n <= max_entries_per_param:
            idxs = np.arange(n)
        else:
            idxs = rng.choice(n, size=max_entries_per_param, replace=False)
        aflat = analytic[name].reshape(-1)
        numeric = np.empty(len(idxs))
        for pos, i in enumerate(idxs):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(params).data)
            flat[i] = orig - eps
            fm = float(f(params).data)
            flat[i] = orig
            numeric[pos] = (fp - fm) / (2.0 * eps)
        per_param[name] = _vec_rel_err(aflat[idxs], numeric)
    max_err = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(max_rel_err=max_err, per_param=per_param, tol=tol)
