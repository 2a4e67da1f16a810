import csv
from dataclasses import asdict

import numpy as np
import pytest

from sharedworkspace.bench import (BenchResult, _PairwiseStage, _WorkspaceStage,
                                   fit_loglog_slope, pairwise_flops, run_scaling,
                                   workspace_flops, write_csv)
from sharedworkspace.errors import ConfigError


# ---- analytic counts ---------------------------------------------------------


def test_pairwise_communication_term_quadruples_when_n_doubles():
    d = 32
    for n_s in (8, 64, 256):
        comm = pairwise_flops(n_s, d) - 3 * n_s * d * d
        comm2 = pairwise_flops(2 * n_s, d) - 3 * (2 * n_s) * d * d
        assert comm == 2 * n_s * n_s * d
        assert comm2 == 4 * comm


def test_workspace_count_is_affine_linear_in_n_s():
    # f(n) linear in n  <=>  second difference vanishes everywhere; this also
    # rules out any hidden n_s^2 term.
    d, n_m = 32, 4
    f = [workspace_flops(n, n_m, d) for n in (8, 16, 24, 32, 40)]
    diffs = np.diff(f)
    assert (diffs == diffs[0]).all()


def test_workspace_communication_term_doubles_when_n_doubles():
    d, n_m = 32, 4
    for n_s in (8, 64, 256):
        comm = workspace_flops(n_s, n_m, d) - (3 * n_s * d * d + 3 * n_m * d * d)
        comm2 = workspace_flops(2 * n_s, n_m, d) - (6 * n_s * d * d + 3 * n_m * d * d)
        assert comm == 4 * n_m * n_s * d
        assert comm2 == 2 * comm


def test_workspace_flops_needs_a_slot():
    with pytest.raises(ConfigError):
        workspace_flops(16, 0, 32)


class MacCounter(np.ndarray):
    """Array that adds the multiply-adds of every matmul it enters to ``macs``."""

    macs = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(x) for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            MacCounter.macs += out.size * plain[0].shape[-1]
        return out.view(MacCounter) if isinstance(out, np.ndarray) else out


@pytest.mark.parametrize("mechanism,stage_cls", [("pairwise", _PairwiseStage),
                                                 ("workspace", _WorkspaceStage)])
@pytest.mark.parametrize("n_s,n_m,d", [(16, 4, 32), (7, 3, 5)])
def test_analytic_flops_match_the_timed_kernel(mechanism, stage_cls, n_s, n_m, d):
    rng = np.random.default_rng(0)
    if mechanism == "pairwise":
        stage, flops = stage_cls(n_s, d, rng), pairwise_flops(n_s, d)
    else:
        stage, flops = stage_cls(n_s, n_m, d, rng), workspace_flops(n_s, n_m, d)
    for name, value in vars(stage).items():
        if isinstance(value, np.ndarray):
            setattr(stage, name, value.view(MacCounter))
    MacCounter.macs = 0
    stage()
    assert MacCounter.macs == flops


def test_pairwise_overtakes_workspace_for_large_n():
    d, n_m = 32, 4
    assert workspace_flops(4, n_m, d) > 0
    assert pairwise_flops(1024, d) > workspace_flops(1024, n_m, d)


# ---- timing ------------------------------------------------------------------


def test_run_scaling_shapes_and_monotone_wall():
    res = run_scaling([16, 64, 256], repeats=5, seed=0)
    assert len(res) == 6
    for mech in ("pairwise", "workspace"):
        walls = [r.wall_ns for r in res if r.mechanism == mech]
        assert all(w > 0 for w in walls)
        assert walls == sorted(walls)


def test_fit_slope_needs_two_points():
    res = [BenchResult("pairwise", 8, 4, 32, 1, 100.0, 1)]
    with pytest.raises(ConfigError):
        fit_loglog_slope(res, "pairwise")


def test_fit_slope_recovers_known_exponent():
    res = [BenchResult("pairwise", n, 4, 32, 1, 3.0 * n ** 2, 1)
           for n in (8, 16, 32, 64)]
    assert abs(fit_loglog_slope(res, "pairwise") - 2.0) < 1e-12


# ---- csv ---------------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    res = run_scaling([16, 32], repeats=5, seed=1)
    p = tmp_path / "scaling.csv"
    write_csv(p, res)
    with open(p, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{k: str(v) for k, v in asdict(r).items()} for r in res]
