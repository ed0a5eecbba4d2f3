import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptspec
from ptspec import analytic, contour, errors, model, solver


@pytest.mark.parametrize(
    "module", [analytic, contour, errors, model, solver], ids=lambda m: m.__name__
)
def test_every_public_name_is_on_the_package(module):
    # errors' __all__ is its five exception classes: its checks stay internal
    assert module.__all__
    for name in module.__all__:
        assert getattr(ptspec, name, None) is getattr(module, name), name


# what a module namespace holds besides the public names, as at any package
_MODULE_DUNDERS = {
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
    "__package__", "__path__", "__spec__", "__version__",
}


def _fresh(code: str):
    """The JSON that code prints, run in a fresh interpreter: nothing loaded yet."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_public_names_do_not_depend_on_what_is_loaded():
    # the solver's names are served on demand (PEP 562), yet a cold package
    # lists and star-exports the same names as one that bound them all eagerly
    modules = {"analytic": analytic, "contour": contour, "errors": errors, "model": model,
               "solver": solver}
    public = set(modules)
    for module in modules.values():
        public |= set(module.__all__)
    star = _fresh("import json; ns = {}; exec('from ptspec import *', ns); "
                  "print(json.dumps(sorted(set(ns) - {'__builtins__'})))")
    assert set(star) == public
    listed = _fresh("import json, ptspec; print(json.dumps(dir(ptspec)))")
    assert set(listed) == public | _MODULE_DUNDERS | {"__getattr__", "__dir__"}
    assert _fresh("import json, ptspec; "
                  "print(json.dumps(ptspec.find_bound_states is ptspec.solver.find_bound_states))")


def test_underscore_probe_loads_nothing():
    # no public name starts with "_": a probe for one is refused without the solver
    loaded = _fresh("import json, sys, ptspec; probe = hasattr(ptspec, '__wrapped__'); "
                    "print(json.dumps([probe, 'numpy' in sys.modules, "
                    "'ptspec.solver' in sys.modules]))")
    assert loaded == [False, False, False]


def test_five_exception_classes():
    # every refusal raises one of five classes; the scalar checks and the
    # records' base class (_Record) are not exported
    classes = {
        n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, BaseException)
    }
    assert classes == set(errors.__all__) == {
        "PtspecError", "DomainError", "SingularL", "GeometryError", "ConvergenceFailure",
    }


def test_cli_loads_neither_dataclasses_nor_inspect():
    # the records are written out (errors._Record, typing.NamedTuple): generating
    # them with dataclasses would load inspect into every closed-form command
    loaded = _fresh("import json, sys, ptspec.cli; "
                    "print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))")
    assert loaded == []
