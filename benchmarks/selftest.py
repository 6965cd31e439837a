"""Self-tests of the benchmark: generator, correctness gate, tracer.

    python3 benchmarks/selftest.py

Runs on a small generated corpus in a few seconds. Kept out of the
project's pytest collection on purpose: it exercises the benchmark, not the
program.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import unittest

import corpusgen
import gate
import run
import tracer

# Every connective must also occur outside its nested extension: a form seen
# only inside a longer one makes the build stage fail (the occurrence-count
# defect the dense workload measures), so the small corpus keeps few of them.
SMALL = dataclasses.replace(run.DENSE, pairs=600, connectives=12)
CONFIG = {"model": "model2", "iterations": 2, "threads": 2, "min_freq": 3,
          "evidence_min_prob": 0, "seed": 3}
WORK = run.WORK / "selftest"


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        shutil.rmtree(WORK, ignore_errors=True)
        cls.cfg, truth = corpusgen.generate(WORK / "data", SMALL, 5, CONFIG)
        cls.expect = gate.Expect(
            truth.fr_counts, truth.en_count, truth.gold,
            frozenset(truth.relation_map), truth.relation_map, CONFIG["min_freq"],
        )
        cls.plain = WORK / "plain"
        cls.traced = WORK / "traced"
        cls.spans = WORK / "spans.json"
        argv = ["run", "all", "--config", str(cls.cfg), "--output"]
        cls.plain_child = run.run_child(
            ["-m", "dclex", *argv, str(cls.plain)], WORK / "plain.log", timeout=60
        )
        cls.traced_child = run.run_child(
            [str(run.ROOT / "benchmarks" / "tracer.py"), str(cls.spans), *argv, str(cls.traced)],
            WORK / "traced.log",
            timeout=60,
        )

    def test_generator_is_deterministic(self) -> None:
        root = WORK / "gen"
        corpusgen.generate(root, SMALL, 9, CONFIG)
        first = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
        shutil.rmtree(root)
        corpusgen.generate(root, SMALL, 9, CONFIG)
        second = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
        self.assertEqual(first, second)
        corpusgen.generate(root, SMALL, 10, CONFIG)
        self.assertNotEqual(first["corpus.fr"], (root / "corpus.fr").read_bytes())

    def test_generated_counts_use_longest_match(self) -> None:
        nested = [c for c in corpusgen.design(SMALL) if c.fr[-1].startswith("f")]
        self.assertTrue(nested, "the dense spec must produce nested French forms")
        words = ["f7", *nested[0].fr, "f9", *nested[0].fr[:-1], "f8"]
        found = list(corpusgen.longest_matches(words, [c.fr for c in corpusgen.design(SMALL)]))
        self.assertEqual(found, [(1, nested[0].fr), (2 + len(nested[0].fr), nested[0].fr[:-1])])

    def test_gate_accepts_a_clean_run(self) -> None:
        verdict = gate.check(self.plain, self.plain_child.code, self.expect)
        self.assertEqual(verdict.problems, ())
        traced = gate.check(self.traced, self.traced_child.code, self.expect)
        self.assertEqual(traced.problems, ())
        self.assertEqual(verdict.digest, traced.digest)

    def test_gate_rejects_tampered_lexicon(self) -> None:
        clean = gate.check(self.plain, 0, self.expect)
        tampered = WORK / "tampered"
        shutil.rmtree(tampered, ignore_errors=True)
        shutil.copytree(self.plain, tampered)
        lexicon = tampered / "lexicon.tsv"
        rows = lexicon.read_text(encoding="utf-8").splitlines()
        original = list(rows)

        fields = rows[0].split("\t")
        fields[3] = str(int(fields[3]) - 1)  # aligned count no longer matches prob
        rows[0] = "\t".join(fields)
        lexicon.write_text("\n".join(rows) + "\n", encoding="utf-8")
        verdict = gate.check(tampered, 0, self.expect)
        self.assertTrue(verdict.problems)
        self.assertNotEqual(verdict.digest, clean.digest)

        rows = original[1:] + original[:1]  # rank order broken
        lexicon.write_text("\n".join(rows) + "\n", encoding="utf-8")
        self.assertTrue(gate.check(tampered, 0, self.expect).problems)

        lexicon.unlink()
        self.assertTrue(gate.check(tampered, 0, self.expect).problems)
        self.assertTrue(gate.check(self.plain, 1, self.expect).problems)

    def test_self_times_sum_to_stage_time(self) -> None:
        doc = json.loads(self.spans.read_text(encoding="utf-8"))
        accounting = tracer.stage_accounting(doc)
        self.assertEqual(sorted(accounting), sorted(f"stage.{s}" for s in gate.STAGES))
        for stage, (duration, self_sum) in accounting.items():
            self.assertAlmostEqual(duration, self_sum, delta=1e-6, msg=stage)
        layers = tracer.self_times(doc)
        self.assertTrue(all(t >= -1e-9 for t in layers.values()), layers)
        top = sum(s["end"] - s["start"] for s in doc["spans"] if s["parent"] is None)
        self.assertAlmostEqual(sum(layers.values()), top, delta=1e-6)

    def test_layer_metrics_are_complete(self) -> None:
        doc = json.loads(self.spans.read_text(encoding="utf-8"))
        self.assertEqual(doc["notes"], [])
        metrics = tracer.layer_metrics(doc)
        for name in ("alignment.estep_s", "alignment.viterbi_s", "phrasetable.build_s",
                     "lexicon.evidence_s", "alignment.estep_cells", "corpus.matches"):
            self.assertGreater(metrics[name], 0, name)
        self.assertLessEqual(metrics["alignment.estep_s"], metrics["alignment.train_s"])
        self.assertGreater(metrics["parallel.efficiency"], 0)
        self.assertLessEqual(metrics["parallel.efficiency"], 1.0 + 1e-6)
        rates = tracer.alignment_rates(
            self.traced, [tuple(f.split()) for f in self.expect.fr_counts], self.expect.relations
        )
        self.assertTrue(0 < rates["alignment.fused_yield"] <= 1, rates)
        self.assertTrue(0 <= rates["alignment.null_rate"] < 1, rates)


if __name__ == "__main__":
    unittest.main()
