"""Self-test of the benchmark harness on one small cycle per workload.

    python3 bench/selftest.py

Checks that traced runs repeat their counts exactly, that every per-layer
metric in BENCHMARK.json is produced and wired to a span that runs, that
spans nest without double counting, that spans outside a timed call are
dropped, and that uninstalling the wrappers restores the package.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SEED = 7  # not the golden seed: outputs get the invariant checks only
TIMES = ("self_s", "total_s")


def traced_cycle(ap, workload: str):
    pool = workloads.build_pool(ap, workload, SEED, cycles=1)
    checker = run.Checker(ap, pool, None)
    rec, walls, plain_s, traced_s, good = run.traced_pass(ap, pool, len(pool), checker)
    return rec.spans, walls, plain_s, traced_s, good == 2 * len(pool), checker.problems


class TracedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ap = run.fresh_import()
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.names = [m["name"] for m in spec["per_layer"]]
        cls.runs = {
            w: [traced_cycle(cls.ap, w) for _ in range(2)] for w in workloads.WORKLOADS
        }

    def test_outputs_are_correct(self):
        for w, runs in self.runs.items():
            for *_, ok, problems in runs:
                self.assertTrue(ok, f"{w}: {problems}")

    def test_counts_repeat_exactly(self):
        for w, runs in self.runs.items():
            first, second = (spans.aggregate(r[0]) for r in runs)
            strip = lambda stats: {  # noqa: E731
                name: {k: v for k, v in row.items() if k not in TIMES}
                for name, row in stats.items()
            }
            self.assertEqual(strip(first), strip(second), w)

    def test_every_metric_emitted_and_wired(self):
        seen_nonzero = set()
        for w, runs in self.runs.items():
            recorded, _, plain_s, traced_s, *_ = runs[0]
            values = run.layer_values(self.names, recorded, plain_s, traced_s)
            self.assertEqual(sorted(values), sorted(self.names), w)
            for name, value in values.items():
                self.assertIsInstance(value, (int, float), f"{w} {name}")
                if value:
                    seen_nonzero.add(name)
        # a misspelt span or stat would read 0 on every workload
        self.assertEqual(sorted(set(self.names) - seen_nonzero), [])

    def test_spans_nest_without_double_counting(self):
        for w, runs in self.runs.items():
            recorded, walls, *_ = runs[0]
            own = spans.self_times(recorded)
            children: dict = {}
            for i, s in enumerate(recorded):
                self.assertLessEqual(s.start, s.end)
                self.assertGreaterEqual(own[i], -1e-9, f"{w} {s.name}")
                if s.parent is not None:
                    p = recorded[s.parent]
                    self.assertEqual(p.instance, s.instance)
                    self.assertTrue(p.start <= s.start and s.end <= p.end, f"{w} {s.name}")
                children.setdefault((s.instance, s.parent), []).append(s)
            for group in children.values():
                group.sort(key=lambda s: s.start)
                for a, b in zip(group, group[1:]):
                    self.assertLessEqual(a.end, b.start, f"{w} {a.name} overlaps {b.name}")
            outside = 0.0
            for i, wall in enumerate(walls):
                rooted = sum(
                    s.end - s.start for s in recorded
                    if s.instance == i and s.parent is None
                )
                self.assertGreaterEqual(wall - rooted, 0.0, w)
                outside += wall - rooted
            self.assertAlmostEqual(sum(own) + outside, sum(walls), places=6, msg=w)


class Expansion(unittest.TestCase):
    def test_black_box_matches_expand_multi(self):
        ap = run.fresh_import()
        for inst in workloads.build_pool(ap, "multivariate", SEED, cycles=1)[:2]:
            self.assertEqual(workloads._expand(ap, inst.expect), ap.expand_multi(inst.expect))

    def test_multivariate_forms_are_not_proportional(self):
        # proportional forms share a node on every axis: outside the
        # big_exponents regime, so multi_build refuses them
        ap = run.fresh_import()
        for inst in workloads.build_pool(ap, "multivariate", SEED):
            f1, f2 = (t.form for t in inst.expect.terms)
            self.assertFalse(workloads._proportional(f1, f2), inst.label)
        form = ap.LinearForm.of(1, [2, -3])
        self.assertTrue(workloads._proportional(form, ap.LinearForm.of(-2, [-4, 6])))


class Scaling(unittest.TestCase):
    def test_factor_uses_the_median_of_the_nearest_samples(self):
        probe = speed.Probe()
        probe.stamps = [float(t) for t in range(10)]
        probe.durations = [speed.REF_S] * 5 + [2 * speed.REF_S] * 5
        self.assertEqual(probe.factor(1.0), 1.0)
        self.assertEqual(probe.factor(8.5), 0.5)
        self.assertEqual(probe.scaled(8.0, 9.0), 0.5)

    def test_tail_percentile(self):
        lat = [float(i) for i in range(1, 101)]
        values, pct, beyond = run.call_metrics(100, lat, 85)
        self.assertEqual((values["latency_tail_ms"], pct, beyond), (85000.0, 85.0, 15))
        # too few calls beyond p95: the highest percentile with 10 beyond
        values, pct, beyond = run.call_metrics(100, lat, 95)
        self.assertEqual((values["latency_tail_ms"], beyond), (90000.0, 10))
        self.assertAlmostEqual(values["throughput_ips"], 100 / sum(lat))


class Installation(unittest.TestCase):
    def setUp(self):
        self.ap = run.fresh_import()

    def snapshot(self):
        mods = [m for n, m in sys.modules.items() if n.startswith("affinepowers")]
        state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        state.update({
            ("Decomposition", "expand"): self.ap.Decomposition.expand,
            ("BlackBox", "eval"): self.ap.BlackBox.eval,
        })
        return state

    def test_uninstall_restores_every_name(self):
        before = self.snapshot()
        rec = spans.Recorder()
        for _ in range(2):
            rec.install()
            self.assertIsNot(
                self.ap.decompose._STRATEGIES,
                before[("affinepowers.decompose", "_STRATEGIES")],
            )
            rec.uninstall()
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_aliases_are_wrapped(self):
        rec = spans.Recorder()
        rec.install()
        try:
            for owner, attr in (
                (self.ap.multivariate, "interpolate"),
                (self.ap.classic, "rational_roots_with_cofactor"),
                (self.ap, "decompose_auto"),
            ):
                self.assertTrue(hasattr(getattr(owner, attr), "__wrapped__"), attr)
            for _, fn in self.ap.decompose._STRATEGIES[:3]:
                self.assertTrue(hasattr(fn, "__wrapped__"))
        finally:
            rec.uninstall()

    def test_spans_outside_timed_calls_are_dropped(self):
        rec = spans.Recorder()
        rec.install()
        try:
            # generation runs Decomposition.expand inside check_conditions
            workloads.build_pool(self.ap, "planted", SEED, cycles=1)
        finally:
            rec.uninstall()
        self.assertEqual(rec.spans, [])


if __name__ == "__main__":
    unittest.main()
