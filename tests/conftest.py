"""The fresh-interpreter runner that the tests share.

A test that asks what a command loads needs a new interpreter, since this one
has numpy, scipy and the solver loaded; a test that a refusal comes before
any large allocation or search needs one whose memory is capped.  Every such
run goes through fresh_python: ptspec is imported from src/, the address
space is capped at 1 GiB, so a walk over a huge count fails fast instead of
hanging, and one BLAS thread keeps numpy's own reservation under that cap.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """python *args in a fresh, memory-capped interpreter; text output captured."""
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=timeout, preexec_fn=_cap_memory,
    )


def _json(code: str):
    """The JSON that code prints, run by _run; the run must succeed."""
    proc = _run("-c", code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def fresh_python():
    return _run


@pytest.fixture
def fresh_json():
    return _json
