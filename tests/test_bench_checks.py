"""The benchmark's level check and traced names against the package they read.

bench/workloads.check_levels reads SpectrumResult.matched and .unmatched.
These tests hold it to catching a wrong eigenvalue and a dropped seed on a
result whose levels were edited, the way the benchmark's own self-tests
edit the matched and unmatched lists.  bench/tracing.TARGETS names the
package attributes the traced run wraps; each must still exist.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ptspec.contour import UShaped
from ptspec.model import CoulombKratzer
from ptspec.solver import BoundStateProblem, GridSpec, find_bound_states


def _load_bench(name: str):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_bench("workloads")
tracing = _load_bench("tracing")
# at L = 2.2 the (0,-1) and (1,-1) seeds stay unmatched, so a seed can be dropped
Z, L, NMAX = 1.0, 2.2, 1
GRID = GridSpec(30.0, 2000)


@pytest.fixture(scope="module")
def result():
    problem = BoundStateProblem(UShaped(1.0), CoulombKratzer(Z), L, -1)
    return find_bound_states(problem, GRID, NMAX)


def _check(result):
    return workloads.check_levels(result, Z, L, NMAX, GRID.S, GRID.h)


def test_unedited_result_passes(result):
    outcome = _check(result)
    assert (outcome.seeded, outcome.matched) == (len(result.levels), len(result.matched))
    assert result.unmatched  # the dropped-seed case below has a seed to drop


def test_perturbed_eigenvalue_caught(result):
    first = result.matched[0]
    bad = first._replace(eigenvalue=first.eigenvalue + 0.05)
    levels = [bad if r is first else r for r in result.levels]
    with pytest.raises(workloads.CheckFailed, match="off by"):
        _check(result._replace(levels=levels))


def test_dropped_seed_caught(result):
    with pytest.raises(workloads.CheckFailed, match="not seeded"):
        _check(result._replace(levels=result.matched))


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in tracing.TARGETS], ids=lambda v: v
)
def test_traced_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr), (
        f"bench/tracing.py wraps {module}.{attr}, which no longer exists"
    )
