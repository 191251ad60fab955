"""Self-test of the benchmark, in a few seconds.

    python3 perfbench/selftest.py

Each probe is fed a corrupted verdict and must count it as failed; every
workload then runs end to end at a tiny size, untraced and traced, and
must report exactly the metrics ``BENCHMARK.json`` lists.
"""

import dataclasses
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.prepare()

import bench  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from convexcodes import analysis, fileformat, instances, realization  # noqa: E402
from convexcodes.complexes import closure, face_of  # noqa: E402
from convexcodes.verdicts import TriStatus, Verdict  # noqa: E402

ORACLE = bench.load_oracle()
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def flipped(status: TriStatus) -> TriStatus:
    value = Verdict.NO if status.is_yes else Verdict.YES
    return dataclasses.replace(status, value=value)


class ProbesCatchCorruption(unittest.TestCase):
    def test_great_implies_good(self):
        report = analysis.classify(instances.intro_code())
        self.assertIsNone(probes.great_implies_good(report))
        bad = dataclasses.replace(report, locally_good=flipped(report.locally_good))
        self.assertIsNotNone(probes.great_implies_good(bad))

    def test_good_iff_goodcover(self):
        code = instances.connected_not_goodcover_code()
        report, cover = analysis.classify(code), realization.good_cover_check(code)
        self.assertIsNone(probes.good_iff_goodcover(report, cover))
        self.assertIsNotNone(probes.good_iff_goodcover(report, flipped(cover)))

    def test_realization_matches(self):
        code = instances.intro_code()
        realized = realization.realized_code_from_U(code)
        self.assertIsNone(probes.realization_matches(code, realized))
        short = dataclasses.replace(realized, words=realized.words - {face_of([2, 3])})
        self.assertIsNotNone(probes.realization_matches(code, short))

    def test_sphere_verdicts(self):
        code = instances.c_n(4)
        report = analysis.classify(code)
        self.assertIsNone(probes.sphere_verdicts(code, report))
        fewer = dataclasses.replace(report, mandatory_found=report.mandatory_found - {1})
        self.assertIsNotNone(probes.sphere_verdicts(code, fewer))
        not_great = dataclasses.replace(report, locally_great=flipped(report.locally_great))
        self.assertIsNotNone(probes.sphere_verdicts(code, not_great))

    def test_search_certificates(self):
        sphere = instances.c_n(5)  # drop word 1: its link, a 2-sphere, obstructs
        code = dataclasses.replace(sphere, words=sphere.words - {face_of([1])})
        report = analysis.classify(code, workloads.SEARCH7_BUDGET)
        self.assertEqual(report.locally_good.reason, "nonzero-betti")
        check = probes.search_certificates
        self.assertIsNone(check(code, report, workloads.SEARCH7_BUDGET, ORACLE))
        no_mandatory = dataclasses.replace(report, mandatory_found=frozenset())
        self.assertIsNotNone(check(code, no_mandatory, workloads.SEARCH7_BUDGET, ORACLE))
        bv = report.locally_good.certificate
        wrong = dataclasses.replace(bv, betti=tuple(b + 1 for b in bv.betti))
        forged = dataclasses.replace(
            report, locally_good=dataclasses.replace(report.locally_good, certificate=wrong))
        self.assertIsNotNone(check(code, forged, workloads.SEARCH7_BUDGET, ORACLE))

    def test_collapse_certificate_replay(self):
        cx = closure(instances.intro_code())
        steps = analysis.is_collapsible(cx).certificate
        self.assertIsNone(probes.collapse_replays(cx, steps))
        self.assertIsNotNone(probes.collapse_replays(cx, steps[:-1]))

    def test_roundtrip(self):
        self.assertIsNone(probes.roundtrip(instances.intro_code()))
        known = probes.roundtrip(instances.c_n(10))
        self.assertTrue(known.startswith(probes.KNOWN_DEFECT), known)
        parse = fileformat.parse_code
        drop_last = lambda text: parse("\n".join(text.splitlines()[:-1]))
        with mock.patch.object(fileformat, "parse_code", drop_last):
            lost = probes.roundtrip(instances.intro_code())
        self.assertIsNotNone(lost)
        self.assertFalse(lost.startswith(probes.KNOWN_DEFECT))

    def test_tally_separates_known_defect(self):
        tally = bench.Tally()
        tally.record([("file-roundtrip", probes.roundtrip(instances.c_n(10)))])
        tally.record([("sphere-verdicts", "corrupted")])
        tally.record([("sphere-verdicts", None)])
        self.assertEqual((tally.failed, tally.known, tally.unexpected), (2, 1, 1))

    def test_probe_counts_input_as_failed(self):
        wl = dataclasses.replace(
            workloads.WORKLOADS["spheres"],
            check=lambda code, report, oracle: [("sphere-verdicts", "corrupted")])
        pool, pass_len = wl.inputs(0, small=True)
        tally = bench.run_inputs(wl, pool, pass_len, 0.01, ORACLE)
        self.assertEqual(tally.failed, tally.attempted)
        self.assertEqual(tally.unexpected, tally.attempted)


class TinyWorkloads(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        e2e = [m["name"] for m in SPEC["end_to_end"]]
        per_layer = [m["name"] for m in SPEC["per_layer"]]
        self.assertEqual(list(bench.END_TO_END), e2e)
        self.assertEqual(list(tracing.PER_LAYER), per_layer)
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                pool, pass_len = wl.inputs(7, small=True)
                tally = bench.run_inputs(wl, pool, pass_len, 0.05, ORACLE)
                self.assertGreaterEqual(tally.attempted, 1)
                self.assertEqual(tally.unexpected, 0, tally.messages)
                self.assertEqual(list(bench.end_to_end(tally, 0.1)), e2e)

                tracer = tracing.Tracer()
                undo = tracing.install(tracer, bench.convexcodes)
                try:
                    traced = bench.run_inputs(wl, pool, pass_len, 0.05, ORACLE, tracer)
                finally:
                    tracing.uninstall(undo)
                self.assertFalse(hasattr(analysis.classify, "__wrapped__"))
                metrics = tracing.layer_metrics(tracer, traced.attempted, traced.timed_s, 1.0)
                self.assertEqual(list(metrics), per_layer)
                self.assertGreater(metrics["analysis.contractibility_status.calls"], 0)


if __name__ == "__main__":
    unittest.main()
