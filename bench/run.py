"""ptspec benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ptspec source checkout.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a separate traced run.  Lines before it,
each starting with ``#``, record the environment and the run's sample counts.
"""

import os

# Pin the BLAS thread count before anything can load numpy.  One thread is
# within any machine's core count and keeps both sides of a comparison equal.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from tracing import Tracer, layer_metrics, ratio  # noqa: E402
from workloads import WORKLOADS, CliCold  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s; the median is reported
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10  # call_tail_s: highest percentile with this many samples above it
REF_SHARE = 1.0  # reference-unit time, as a share of the operation time
CLI_COMMANDS = tuple(item.command for item in CliCold().inputs(0))


@dataclass
class Phase:
    """Whole passes over a workload's inputs, timed one operation at a time."""

    times: list = field(default_factory=list)  # successful operations only
    by_command: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    seeded: int = 0
    matched: int = 0
    bytes_out: int = 0
    op_time_s: float = 0.0  # all attempted operations, failed ones too
    passes: int = 0
    errors: list = field(default_factory=list)
    ref_times: list = field(default_factory=list)  # one entry per reference unit

    def per_ref(self, count: float) -> float:
        """`count` per reference unit: count / operation time * mean reference-unit time."""
        if not self.op_time_s or not self.ref_times:
            return 0.0
        return count / self.op_time_s * statistics.fmean(self.ref_times)


def attempt(wl, state, item, call, tracer=None):
    """Time one operation, then check its output outside the timed region."""
    t0 = perf_counter()
    try:
        if tracer is None:
            output = call(state, item)
        else:
            with tracer.operation():
                output = call(state, item)
    except Exception as exc:  # a failed operation is counted and the run goes on
        return perf_counter() - t0, None, f"{item}: {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    try:
        return elapsed, wl.check(state, item, output), None
    except Exception as exc:  # malformed output can raise anything while parsed
        return elapsed, None, f"{item}: {type(exc).__name__}: {exc}"


def run_phase(wl, state, seconds, call, tracer=None, reference=None) -> Phase:
    """Closed loop over whole passes until the next pass would overrun `seconds`.

    With a `reference`, reference units run after an operation until their
    time has caught up with REF_SHARE of the operation time so far, so the
    units sample the host's speed while the operations run, in proportion
    to their time.
    """
    phase = Phase()
    start = perf_counter()
    ref_time = 0.0
    while True:
        for item in state.inputs:
            elapsed, outcome, error = attempt(wl, state, item, call, tracer)
            phase.attempted += 1
            phase.op_time_s += elapsed
            while reference is not None and ref_time <= REF_SHARE * phase.op_time_s:
                t0 = perf_counter()
                reference(state)
                phase.ref_times.append(perf_counter() - t0)
                ref_time += phase.ref_times[-1]
            if error is not None:
                phase.failed += 1
                if len(phase.errors) < 5:
                    phase.errors.append(error)
                continue
            phase.times.append(elapsed)
            phase.by_command.setdefault(getattr(item, "command", ""), []).append(elapsed)
            phase.seeded += outcome.seeded
            phase.matched += outcome.matched
            phase.bytes_out += outcome.bytes_out
        phase.passes += 1
        wall = perf_counter() - start
        if wall * (phase.passes + 1) / phase.passes > seconds:
            return phase


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _wall(argv) -> tuple:
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return perf_counter() - t0, proc


def setup_samples(args) -> list:
    """setup_s of fresh interpreters: import, input generation, one warm-up op."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--setup-probe"]
    return [json.loads(_wall(argv)[1].stdout)["setup_s"] for _ in range(SETUP_SAMPLES)]


def setup(wl, seed):
    state = wl.setup(seed)
    attempt(wl, state, state.warmup, wl.call)  # untimed warm-up; output unchecked
    return state


def tail(times) -> dict:
    """Highest percentile with TAIL_BEYOND samples above it, with its sample count."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return {"call_tail_s": None, "tail_percentile": None, "samples": n}
    ordered = sorted(times)
    return {"call_tail_s": ordered[n - TAIL_BEYOND - 1],
            "tail_percentile": round(100.0 * (n - TAIL_BEYOND) / n, 2),
            "samples_beyond": TAIL_BEYOND, "samples": n}


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(wl, args) -> tuple:
    setup_s = setup_samples(args)
    state = setup(wl, args.seed)
    phase = run_phase(wl, state, args.seconds, wl.call, reference=wl.reference)
    metrics = {
        "setup_s": (_median(setup_s), "s"),
        "ops_per_ref": (phase.per_ref(len(phase.times)), "1/ref"),
        "levels_per_ref": (phase.per_ref(phase.seeded), "1/ref"),
        "matched_frac": (ratio(phase.matched, phase.seeded), "frac"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }
    # wall-clock rates and latencies are reported, not gated: see bench/README.md
    info = {
        "setup_samples_s": setup_s,
        "ref_unit_s": _median(phase.ref_times),
        "ops_per_s": len(phase.times) / phase.op_time_s,
        "levels_per_s": phase.seeded / phase.op_time_s,
        "call_p50_s": _median(phase.times),
        **tail(phase.times),
    }
    return phase, metrics, info


def import_metrics() -> dict:
    """Interpreter floor and import costs, each in fresh interpreters."""
    py = sys.executable
    interp = [_wall([py, "-c", "pass"])[0] for _ in range(IMPORT_SAMPLES)]
    timed = ("import time; t = time.perf_counter(); import ptspec.cli; "
             "print(time.perf_counter() - t)")
    cli_import = [float(_wall([py, "-c", timed])[1].stdout) for _ in range(IMPORT_SAMPLES)]
    cumulative = {"ptspec": [], "scipy.linalg": []}
    for _ in range(IMPORT_SAMPLES):
        seen = {}
        for line in _wall([py, "-X", "importtime", "-c", "import ptspec.cli"])[1].stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for name, values in cumulative.items():
            values.append(seen.get(name, 0.0))  # 0: not imported by ptspec.cli
    return {
        "proc.interp_s": (_median(interp), "s"),
        "cli.import_s": (_median(cli_import), "s"),
        "import.ptspec_s": (_median(cumulative["ptspec"]), "s"),
        "import.scipy_linalg_s": (_median(cumulative["scipy.linalg"]), "s"),
    }


def per_layer(wl, args) -> tuple:
    """Untraced then traced halves of the run; CLI commands also run in-process."""
    state = setup(wl, args.seed)
    metrics = import_metrics()
    phases = []
    half = args.seconds / 2.0
    cli = {"cli.main_s": (0.0, "s"), "cli.bytes_out": (0.0, "bytes"), "import.share": (0.0, "frac")}
    cli.update({f"cli.{c}.p50_s": (0.0, "s") for c in CLI_COMMANDS})
    call = wl.call
    if not wl.in_process:
        cold = run_phase(wl, state, half, wl.call)
        phases.append(cold)
        half /= 2.0
        call = wl.call_in_process
        cli.update({f"cli.{c}.p50_s": (_median(t), "s") for c, t in cold.by_command.items()})
        cli["cli.bytes_out"] = (cold.bytes_out / cold.passes, "bytes")
        cli["import.share"] = (ratio(metrics["cli.import_s"][0], _median(cold.times)), "frac")
    untraced = run_phase(wl, state, half, call)
    tracer = Tracer()
    with tracer.installed():
        traced = run_phase(wl, state, half, call, tracer)
    phases += [untraced, traced]
    if not wl.in_process:
        cli["cli.main_s"] = (_median(untraced.times), "s")
    metrics.update(cli)
    metrics.update(layer_metrics(tracer, traced.passes))
    p50, traced_p50 = _median(untraced.times), _median(traced.times)
    metrics["trace.untraced_p50_s"] = (p50, "s")
    metrics["trace.traced_p50_s"] = (traced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - p50, "s")
    return merge(phases), metrics, {"traced_passes": traced.passes}


def merge(phases) -> Phase:
    total = Phase()
    for p in phases:
        total.attempted += p.attempted
        total.failed += p.failed
        total.passes += p.passes
        total.errors += p.errors
    return total


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def use_checkout() -> bool:
    """Put the checkout's src/ on the path of this and every child interpreter."""
    src = ROOT / "src"
    if not (src / "ptspec" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)
    os.chdir(ROOT)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout():
        print(f"error: no ptspec sources under {ROOT / 'src'}; run from a ptspec checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    if args.setup_probe:
        t0 = perf_counter()
        setup(wl, args.seed)
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0

    phase, metrics, info = (per_layer if args.trace else end_to_end)(wl, args)
    print("# env " + json.dumps(environment()))
    print("# run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": phase.passes, "fail_frac": phase.failed / phase.attempted,
        **info, "errors": phase.errors,
    }))
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
