#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py            # all, smoke run included
    python3 perfbench/test_perfbench.py -k names   # just the name checks

The smoke test builds itb_perfbench (about a minute the first time) and runs
every workload in both modes with tiny windows (seconds).
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, start, end, parent):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "rep": 0}


class NamesTest(unittest.TestCase):
    def test_names_and_units(self):
        spec = run.benchmark_spec()
        names = [w["name"] for w in spec["workloads"]]
        for kind in ("end_to_end", "per_layer"):
            names += [m["name"] for m in spec[kind]]
            for m in spec[kind]:
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_bounds(self):
        spec = run.benchmark_spec()
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            span("root", 0, 100, -1),
            span("a", 10, 40, 0),      # overlaps b: the union counts once
            span("a.1", 15, 20, 1),
            span("b", 30, 60, 0),
            span("c", 90, 120, 0),     # runs past its parent: clipped
            span("other", 200, 210, -1),
        ]
        self.assertEqual(run.self_times(spans), [40, 25, 5, 30, 30, 10])

    def test_leaf_and_nested_chain(self):
        spans = [span("p", 0, 50, -1), span("q", 0, 50, 0), span("r", 5, 45, 1)]
        self.assertEqual(run.self_times(spans), [0, 10, 40])


class EndToEndTest(unittest.TestCase):
    def test_seed_dependent_times_average_the_rounds(self):
        raw = {"samples": {"setup_s": [1.0, 3.0, 2.0],
                           "time_to_result_s": [2.0, 4.0, 9.0],
                           "point_wall_s": [[1.0, 2.0, 4.0], [0.5], [1.0, 1.0]]},
               "scalars": {"sim_us": 4.0, "peak_rss_mb": 5.0,
                           "latency_err_fracs": [0.1, 0.3]}}
        m = run.end_to_end(raw)
        self.assertEqual(m["setup_s"][0], 2.0)
        self.assertEqual(m["time_to_result_s"][0], 5.0)
        # Per-round median speeds 2, 8 and 4 us/s.
        self.assertAlmostEqual(m["sim_us_per_wall_s"][0], 14 / 3)
        self.assertEqual(m["sim_us_per_wall_s"][2], [2.0, 8.0, 4.0])
        self.assertAlmostEqual(m["latency_err_frac"][0], 0.2)


class SmokeTest(unittest.TestCase):
    def test_every_name_printed_with_unit(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke"],
            cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=600)
        self.assertEqual(proc.returncode, 0)
        lines = [json.loads(x) for x in proc.stdout.splitlines()]
        spec = run.benchmark_spec()
        summaries = [x for x in lines if "record" not in x]
        for w in spec["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                got = [s for s in summaries
                       if s["workload"] == w["name"] and s["trace"] == trace]
                self.assertEqual(len(got), 1, (w["name"], trace))
                self.assertTrue(got[0]["correct"], (w["name"], trace))
                for m in spec[kind]:
                    self.assertEqual(got[0]["metrics"][m["name"]]["unit"],
                                     m["unit"])
                    printed = [x for x in lines
                               if x.get("record") == "metric"
                               and x["workload"] == w["name"]
                               and x["trace"] == trace
                               and x["name"] == m["name"]]
                    self.assertEqual(len(printed), 1, m["name"])
                    self.assertEqual(printed[0]["unit"], m["unit"])
                    self.assertGreaterEqual(printed[0]["samples"], 1)


if __name__ == "__main__":
    unittest.main()
