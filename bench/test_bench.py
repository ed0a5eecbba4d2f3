"""Self-tests of the benchmark itself.

    python3 -m unittest discover -s bench -p "test_*.py"

They check that every metric named in BENCHMARK.json is emitted with its unit,
that a wrong eigenvalue, a dropped seed or a corrupted CLI artifact is counted
as a failed operation, that a rate per reference unit does not move when the
host slows down, and that a seed always yields the same inputs.
"""

import dataclasses
import json
import os
import sys
import time
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
HAVE_CHECKOUT = run.use_checkout()


def _units(section) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _args(workload, trace=0):
    return run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0.01",
                           "--trace", str(trace)])


def _shrunk(wl, count):
    """The workload with only the first `count` inputs of its pass."""
    full = wl.inputs(7)
    return mock.patch.object(wl, "inputs", lambda seed: full[:count])


@unittest.skipUnless(HAVE_CHECKOUT, "needs the ptspec sources")
class MetricNames(unittest.TestCase):
    def assert_emits(self, metrics, section):
        emitted = {name: unit for name, (value, unit) in metrics.items()}
        self.assertEqual(emitted, _units(section))
        for name, (value, unit) in metrics.items():
            self.assertIsInstance(value, (int, float), name)

    def test_end_to_end_metrics(self):
        wl = workloads.WORKLOADS["validate-sweep"]
        with _shrunk(wl, 2):
            phase, metrics, _ = run.end_to_end(wl, _args(wl.name))
        self.assertEqual(phase.failed, 0)
        self.assert_emits(metrics, "end_to_end")
        for name, (value, _) in metrics.items():
            self.assertGreater(value, 0, name)

    def test_per_layer_metrics_in_process_and_cli(self):
        for name, count in (("validate-sweep", 2), ("cli-cold", 3)):
            wl = workloads.WORKLOADS[name]
            with self.subTest(workload=name), _shrunk(wl, count):
                phase, metrics, _ = run.per_layer(wl, _args(name, trace=1))
                self.assertEqual(phase.failed, 0)
                self.assert_emits(metrics, "per_layer")

    def test_workloads_match_benchmark_json(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))


@unittest.skipUnless(HAVE_CHECKOUT, "needs the ptspec sources")
class FailuresAreCounted(unittest.TestCase):
    def run_with_output(self, wl, state, make_output):
        real = wl.call
        return run.run_phase(wl, state, 0.0, lambda st, item: make_output(real(st, item), item))

    def test_perturbed_eigenvalue(self):
        wl = workloads.WORKLOADS["validate-sweep"]
        with _shrunk(wl, 2):
            state = wl.setup(7)
        self.assertEqual(run.run_phase(wl, state, 0.0, wl.call).failed, 0)

        def perturb(result, item):
            first = result.matched[0]
            bad = dataclasses.replace(first, eigenvalue=first.eigenvalue + 0.05)
            return dataclasses.replace(result, matched=[bad, *result.matched[1:]])

        phase = self.run_with_output(wl, state, perturb)
        self.assertEqual(phase.failed, phase.attempted)

    def test_dropped_seed(self):
        # a level inside the box that goes unreported would raise matched_frac
        wl = workloads.WORKLOADS["validate-sweep"]
        with _shrunk(wl, 2):
            state = wl.setup(7)
        phase = self.run_with_output(
            wl, state, lambda result, item: dataclasses.replace(result, unmatched=[])
        )
        self.assertEqual(phase.failed, phase.attempted)

    def test_oscillator_level_off_by_more_than_tolerance(self):
        wl = workloads.WORKLOADS["dense-probe"]
        state = workloads.State(inputs=[wl.inputs(7)[-1]], warmup=None)
        phase = self.run_with_output(wl, state, lambda vals, item: vals + 2e-3)
        self.assertEqual((phase.attempted, phase.failed), (1, 1))

    def test_corrupted_cli_artifacts(self):
        wl = workloads.WORKLOADS["cli-cold"]
        items = wl.inputs(7)
        corruptions = {
            "contour_sample": lambda out: out.replace(b"re_x", b"rex", 1),
            "spectrum_analytic": lambda out: out[:-20] + b"\n",
            "spectrum_numeric": lambda out: out.replace(b'"levels"', b'"level"'),
            "figure3": lambda out: out.replace(b",\n", b",0.5\n", 1),
            "stability": lambda out: out.replace(b"true", b"false"),
            "solve_oscillator": _shift_first_level,
        }
        for item in items:
            if item.command not in corruptions:
                continue
            with self.subTest(command=item.command):
                state = workloads.State(inputs=[item], warmup=None)
                good = wl.call_in_process(state, item)
                bad = corruptions[item.command](good)
                self.assertNotEqual(bad, good)
                for outputs in ([bad], [good, bad]):  # malformed; then not repeatable
                    state = workloads.State(inputs=[item] * len(outputs), warmup=None)
                    feed = iter(outputs)
                    phase = run.run_phase(wl, state, 0.0, lambda st, it: next(feed))
                    self.assertEqual(phase.failed, 1)

    def test_output_that_changes_between_runs(self):
        wl = workloads.WORKLOADS["cli-cold"]
        item = next(i for i in wl.inputs(7) if i.command == "stability")
        good = wl.call_in_process(workloads.State(inputs=[], warmup=None), item)
        feed = iter([good, good + b"\n"])  # still valid JSON, but not byte-identical
        state = workloads.State(inputs=[item, item], warmup=None)
        phase = run.run_phase(wl, state, 0.0, lambda st, it: next(feed))
        self.assertEqual((phase.attempted, phase.failed), (2, 1))


def _shift_first_level(artifact: bytes) -> bytes:
    obj = json.loads(artifact)
    obj["levels"][0]["numeric_re"] += 0.01
    return json.dumps(obj, indent=2).encode() + b"\n"


class ReferenceUnits(unittest.TestCase):
    def test_rate_per_reference_unit_ignores_host_speed(self):
        # a host twice as slow doubles the time of operations and reference units alike
        class Sleeper:
            def check(self, state, item, output):
                return workloads.Outcome(seeded=2, matched=1)

        rates = {}
        for slow in (1, 2):
            state = workloads.State(inputs=[0.004 * slow, 0.008 * slow], warmup=None)
            phase = run.run_phase(Sleeper(), state, 0.5, lambda st, item: time.sleep(item),
                                  reference=lambda st: time.sleep(0.005 * slow))
            self.assertEqual(phase.failed, 0)
            rates[slow] = (phase.per_ref(len(phase.times)), len(phase.times) / phase.op_time_s)
        self.assertAlmostEqual(rates[2][0] / rates[1][0], 1.0, delta=0.1)
        self.assertAlmostEqual(rates[2][1] / rates[1][1], 0.5, delta=0.05)


class Inputs(unittest.TestCase):
    def test_seed_fixes_the_inputs(self):
        for wl in workloads.WORKLOADS.values():
            with self.subTest(workload=wl.name):
                self.assertEqual(wl.inputs(3), wl.inputs(3))
                self.assertTrue(wl.inputs(3))

    def test_seeded_couplings_vary_and_avoid_integer_L(self):
        for name in ("validate-sweep", "cli-cold", "dense-probe"):
            wl = workloads.WORKLOADS[name]
            with self.subTest(workload=name):
                self.assertNotEqual(wl.inputs(3), wl.inputs(4))
                for item in wl.inputs(3):
                    self.assertGreater(abs(item.L - round(item.L)), 1e-9)


if __name__ == "__main__":
    unittest.main()
