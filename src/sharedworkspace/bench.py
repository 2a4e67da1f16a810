"""Wall-time and analytic-FLOP scaling of the two communication mechanisms.

One "stage" moves information once between n_s specialists of width d:

- pairwise: every specialist attends over every other (score matrix n_s x n_s,
  cost quadratic in n_s);
- workspace: specialists write into n_m slots and read back (two skinny
  attention passes, cost linear in n_s since n_m is a constant).

Stages are forward-only raw-numpy kernels with fixed weights, timed with a
median over warm repeats; the inner loop grows until a run spans enough timer
ticks to be trustworthy.  Nothing here pins the BLAS thread count, so the GEMMs
use as many threads as the numpy build starts by default.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError
from .workspace import write_broadcast_flops

MIN_TIMER_TICKS = 100


@dataclass
class BenchResult:
    mechanism: str          # pairwise | workspace
    n_s: int
    n_m: int
    d: int
    flops_analytic: int
    wall_ns: float          # median over repeats, per single stage
    bytes_touched: int


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class _PairwiseStage:
    def __init__(self, n_s, d, rng, batch=1):
        self.h = rng.standard_normal((batch, n_s, d)).astype(np.float32)
        self.w_q = rng.standard_normal((d, d)).astype(np.float32)
        self.w_e = rng.standard_normal((d, d)).astype(np.float32)
        self.w_v = rng.standard_normal((d, d)).astype(np.float32)
        self.scale = 1.0 / np.sqrt(d)

    def __call__(self):
        q = self.h @ self.w_q
        k = self.h @ self.w_e
        v = self.h @ self.w_v
        s = _softmax((q @ k.swapaxes(-1, -2)) * self.scale)
        return self.h + s @ v


class _WorkspaceStage:
    def __init__(self, n_s, n_m, d, rng, batch=1):
        self.h = rng.standard_normal((batch, n_s, d)).astype(np.float32)
        self.mem = rng.standard_normal((batch, n_m, d)).astype(np.float32)
        make = lambda a, b: rng.standard_normal((a, b)).astype(np.float32)
        self.wq_w, self.we_w, self.wv_w = make(d, d), make(d, d), make(d, d)
        self.wq_r, self.we_r, self.wv_r = make(d, d), make(d, d), make(d, d)
        self.scale = 1.0 / np.sqrt(d)

    def __call__(self):
        # write: queries from slots, keys/values from specialists
        q = self.mem @ self.wq_w
        k = self.h @ self.we_w
        v = self.h @ self.wv_w
        mem = _softmax((q @ k.swapaxes(-1, -2)) * self.scale) @ v
        # read: queries from specialists, keys/values from slots
        q2 = self.h @ self.wq_r
        k2 = mem @ self.we_r
        v2 = mem @ self.wv_r
        return self.h + _softmax((q2 @ k2.swapaxes(-1, -2)) * self.scale) @ v2


def pairwise_flops(n_s: int, d: int) -> int:
    """Multiply-adds for one pairwise stage; contains the 2*n_s^2*d term."""
    proj = 3 * n_s * d * d
    scores_and_mix = 2 * n_s * n_s * d
    return proj + scores_and_mix


def workspace_flops(n_s: int, n_m: int, d: int) -> int:
    """Multiply-adds of one ``_WorkspaceStage`` call: the write + broadcast
    terms of ``write_broadcast_flops`` for one head of width d, without the
    output projections the kernel leaves out.  Every term is linear in n_s.
    """
    if n_m < 1:
        raise ConfigError("workspace needs at least one memory slot")
    terms = write_broadcast_flops(n_s, n_m, d, d, 1, d, d)
    return terms["total"] - terms["write"]["proj_out"] - terms["read"]["proj_out"]


def _time_stage(stage, repeats: int) -> float:
    """Median wall time per call in ns, with warmup and tick-aware batching."""
    stage()
    stage()   # warm caches and allocator
    res = time.get_clock_info("perf_counter").resolution
    min_span_ns = max(MIN_TIMER_TICKS * res * 1e9, 1000.0)
    inner = 1
    while True:
        t0 = time.perf_counter_ns()
        for _ in range(inner):
            stage()
        span = time.perf_counter_ns() - t0
        if span >= min_span_ns:
            break
        inner *= 2
    samples = []
    for _ in range(max(repeats, 5)):
        t0 = time.perf_counter_ns()
        for _ in range(inner):
            stage()
        samples.append((time.perf_counter_ns() - t0) / inner)
    return float(np.median(samples))


def _bytes_touched(stage) -> int:
    total = 0
    for v in vars(stage).values():
        if isinstance(v, np.ndarray):
            total += v.nbytes
    return total


def run_scaling(ns_list, n_m: int = 4, d: int = 32, repeats: int = 7,
                seed: int = 0, batch: int = 16) -> list[BenchResult]:
    """Time one pairwise stage and one workspace stage at each n_s.

    A small batch of identical stages runs per timed call so that, at the
    small end of the n_s range, arithmetic dominates interpreter and
    dispatch overhead; reported times and FLOPs are per single stage.
    """
    results = []
    for n_s in ns_list:
        rng = np.random.default_rng(seed)
        pw = _PairwiseStage(n_s, d, rng, batch)
        ws = _WorkspaceStage(n_s, n_m, d, rng, batch)
        results.append(BenchResult(
            "pairwise", n_s, n_m, d, pairwise_flops(n_s, d),
            _time_stage(pw, repeats) / batch, _bytes_touched(pw)))
        results.append(BenchResult(
            "workspace", n_s, n_m, d, workspace_flops(n_s, n_m, d),
            _time_stage(ws, repeats) / batch, _bytes_touched(ws)))
    return results


def fit_loglog_slope(results, mechanism: str) -> float:
    """Least-squares slope of log(wall_ns) against log(n_s)."""
    pts = [(r.n_s, r.wall_ns) for r in results if r.mechanism == mechanism]
    if len(pts) < 2:
        raise ConfigError(f"need at least two sizes for {mechanism}")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def write_csv(path, results) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[f.name for f in
                                                BenchResult.__dataclass_fields__.values()])
        writer.writeheader()
        for r in results:
            writer.writerow(asdict(r))

