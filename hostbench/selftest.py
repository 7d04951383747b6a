#!/usr/bin/env python3
"""Self-tests of the host-time benchmark's gate and reductions.

    python3 hostbench/selftest.py

Needs no build: the hostbench binary is replaced by synthetic results.
"""

import contextlib
import io
import json
import unittest
from unittest import mock

import run


def op(digest, broken=()):
    return {"digests": {"stats": digest}, "broken": list(broken)}


def rep(ops, traced=False, counts=None, deciles=()):
    return {"traced": traced, "setup_s": 0.5, "wall_s": 2.0, "work": 1000.0,
            "ops": ops, "counts": counts or {},
            "event_deciles": list(deciles)}


def span(name, begin, end, tid=1):
    return [{"ph": "B", "tid": tid, "ts": begin, "name": name},
            {"ph": "E", "tid": tid, "ts": end}]


class GateTest(unittest.TestCase):
    def test_matching_record_passes(self):
        attempted, failed, messages = run.gate(
            [rep([op("aa"), op("bb")])], [{"stats": "aa"}, {"stats": "bb"}])
        self.assertEqual((attempted, failed, messages), (2, 0, []))

    def test_wrong_recorded_digest_fails(self):
        attempted, failed, messages = run.gate(
            [rep([op("aa"), op("bb")])], [{"stats": "aa"}, {"stats": "cc"}])
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("!= recorded cc", messages[0])

    def test_repetition_that_differs_from_the_first_fails(self):
        _, failed, _ = run.gate([rep([op("aa")]), rep([op("ab")])], None)
        self.assertEqual(failed, 1)

    def test_broken_invariant_fails_without_a_record(self):
        _, failed, messages = run.gate([rep([op("aa", ["unclassified"])])],
                                       None)
        self.assertEqual(failed, 1)
        self.assertIn("unclassified", messages[0])


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_child_spans(self):
        events = [{"ph": "B", "tid": 1, "ts": 0.0, "name": "root"},
                  *span("a", 10.0, 30.0),
                  {"ph": "B", "tid": 1, "ts": 40.0, "name": "b"},
                  *span("c", 45.0, 55.0),
                  {"ph": "E", "tid": 1, "ts": 70.0},
                  {"ph": "E", "tid": 1, "ts": 100.0},
                  *span("root", 0.0, 8.0, tid=2)]
        selfs = run.span_self_times(events)
        self.assertAlmostEqual(selfs[1]["root"], 50e-6)
        self.assertAlmostEqual(selfs[1]["a"], 20e-6)
        self.assertAlmostEqual(selfs[1]["b"], 20e-6)
        self.assertAlmostEqual(selfs[1]["c"], 10e-6)
        self.assertAlmostEqual(selfs[2]["root"], 8e-6)

    def test_self_times_of_one_name_add_up(self):
        events = [{"ph": "B", "tid": 1, "ts": 0.0, "name": "root"},
                  *span("step", 1.0, 3.0), *span("step", 4.0, 9.0),
                  {"ph": "E", "tid": 1, "ts": 10.0}]
        selfs = run.span_self_times(events)[1]
        self.assertAlmostEqual(selfs["step"], 7e-6)
        self.assertAlmostEqual(selfs["root"], 3e-6)


def deciles_of(costs):
    """(event index, host us) at each tenth, sampled like hostbench.cc."""
    stamps = [0.0]
    for cost in costs:
        stamps.append(stamps[-1] + cost)
    n = len(costs)
    return [(n * tenth // 10, stamps[n * tenth // 10])
            for tenth in range(11)]


class CostGrowthTest(unittest.TestCase):
    def test_linear_series(self):
        # Cost of event k is 1 + 0.01 k us over 1000 events: the first
        # tenth averages 1.495 us, the last 10.495 us.
        costs = [1.0 + 0.01 * k for k in range(1000)]
        self.assertAlmostEqual(run.cost_growth(deciles_of(costs)),
                               10.495 / 1.495)

    def test_constant_cost_gives_one(self):
        self.assertAlmostEqual(run.cost_growth(deciles_of([6.7] * 997)), 1.0)


class MetricNamesTest(unittest.TestCase):
    """The printed result carries exactly BENCHMARK.json's metrics."""

    def printed(self, trace, result, events=None):
        argv = ["--workload", "fleet_replay", "--seed", "1", "--seconds",
                "1", "--trace", str(trace)]
        out = io.StringIO()
        with mock.patch.object(run, "build"), \
                mock.patch.object(run, "BUILD_DIR",
                                  run.BUILD_DIR / "selftest"), \
                mock.patch.object(run, "run_binary",
                                  return_value=(result, None)), \
                mock.patch.object(run, "load_json",
                                  side_effect=self.fake_load(events)), \
                contextlib.redirect_stdout(out):
            status = run.main(argv)
        self.assertEqual(status, 0, out.getvalue())
        return json.loads(out.getvalue().splitlines()[-1])

    def fake_load(self, events):
        real = run.load_json

        def load(path):
            if path.name == "manifest.json":
                return dict(real(path), digests={})
            if path.suffix == ".json" and path.parent.name == "traces":
                return {"traceEvents": events}
            return real(path)
        return load

    def names(self, section):
        spec = run.load_json(run.ROOT / "BENCHMARK.json")
        return {m["name"]: m["unit"] for m in spec[section]}

    def check(self, printed, section):
        self.assertEqual(
            {name: m["unit"] for name, m in printed["metrics"].items()},
            self.names(section))
        self.assertTrue(printed["correct"])

    def test_end_to_end(self):
        result = {"peak_rss_mb": 11.0, "reps": [rep([op("aa")])]}
        self.check(self.printed(0, result), "end_to_end")

    def test_per_layer(self):
        counts = {"sched.events": 100.0, "sched.busy_node_seconds": 10.0,
                  "sched.lost_node_seconds": 1.0}
        deciles = deciles_of([1.0 + 0.01 * k for k in range(100)])
        result = {"peak_rss_mb": 11.0, "reps": [
            rep([op("aa")]),
            rep([op("aa")], traced=True, counts=counts, deciles=deciles)]}
        events = [{"ph": "B", "tid": 1, "ts": 0.0, "name": "fleet_replay"},
                  *span("traces.generate", 1.0, 2.0),
                  *span("sched.run", 3.0, 9.0),
                  {"ph": "E", "tid": 1, "ts": 10.0}]
        printed = self.printed(1, result, events)
        self.check(printed, "per_layer")
        self.assertAlmostEqual(
            printed["metrics"]["sched.us_per_event"]["value"], 0.06)


if __name__ == "__main__":
    unittest.main()
