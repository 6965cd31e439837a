"""Ranked-retrieval metrics in exact rational arithmetic."""

import random
from fractions import Fraction

import pytest

from dclex.errors import PipelineError
from dclex.evaluation import RECALL_LEVELS, evaluate, interpolated_11pt, render_eval_report
from dclex.lexicon import LexiconEntry, RankedLexicon

from oracles import average_precision_reference, curve11_reference


def judged(flags, n):
    """`evaluate`'s arguments for a ranking judged as `flags` against n gold
    pairs: rank r retrieves the gold pair of dc{r} when flags[r], and the
    gold pairs no rank retrieves are those of missed{j}."""
    ranked = RankedLexicon(
        tuple(LexiconEntry(f"dc{i}", "REL", Fraction(1), 1, 1) for i in range(len(flags)))
    )
    hits = [f"dc{i}" for i, flag in enumerate(flags) if flag]
    missed = [f"missed{j}" for j in range(n - len(hits))]
    return ranked, frozenset((dc, "GOLD") for dc in hits + missed), {"REL": "GOLD"}


class TestWorkedExamples:
    def test_three_item_fixture(self):
        report = evaluate(*judged([1, 0, 1], n=2))
        assert report.avep == Fraction(5, 6)
        assert report.recall_final == 1
        assert report.curve11[:6] == (Fraction(1),) * 6
        assert report.curve11[6:] == (Fraction(2, 3),) * 5
        points = [
            (Fraction(1, 2), Fraction(1, 1)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 1), Fraction(2, 3)),
        ]
        assert interpolated_11pt(points) == report.curve11

    def test_single_hit(self):
        report = evaluate(*judged([1], n=1))
        assert report.avep == 1
        assert report.curve11 == (Fraction(1),) * 11

    def test_all_misses(self):
        report = evaluate(*judged([0, 0], n=3))
        assert report.avep == 0
        assert report.curve11 == (Fraction(0),) * 11

    def test_unretrieved_gold_pairs_drag_down_avep(self):
        assert evaluate(*judged([1], n=2)).avep == Fraction(1, 2)

    def test_empty_list_with_nonempty_gold(self):
        report = evaluate(*judged([], n=4))
        assert report.avep == 0
        assert report.curve11 == (Fraction(0),) * 11

    def test_empty_gold_set_is_fatal(self):
        ranked, _, relation_map = judged([1], n=1)
        with pytest.raises(PipelineError, match="empty gold set"):
            evaluate(ranked, frozenset(), relation_map)


class TestAgainstOracle:
    def test_random_lists_match_reference_exactly(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.randint(1, 40)
            length = rng.randint(0, 200)
            hits = rng.randint(0, min(n, length))
            flags = [True] * hits + [False] * (length - hits)
            rng.shuffle(flags)
            report = evaluate(*judged(flags, n))
            assert report.avep == average_precision_reference(flags, n)
            assert report.curve11 == curve11_reference(flags, n)

    def test_curve_is_non_increasing(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(1, 20)
            flags = [rng.random() < 0.4 for _ in range(rng.randint(1, 60))]
            while sum(flags) > n:
                flags[flags.index(True)] = False
            curve = evaluate(*judged(flags, n)).curve11
            assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_appending_misses_never_changes_recall(self):
        flags = [True, False, True]
        base = evaluate(*judged(flags, 4))
        extended = evaluate(*judged(flags + [False] * 5, 4))
        assert extended.recall_final == base.recall_final == Fraction(2, 4)
        assert extended.relevant_retrieved == base.relevant_retrieved
        assert extended.curve11 == base.curve11
        assert extended.avep == base.avep


def entry(fr_dc, relation, num, den):
    return LexiconEntry(fr_dc, relation, Fraction(num, den), num, den)


class TestRelevanceProjection:
    MAP = {"Comparison.Concession": "Concession"}

    def test_unmapped_relations_are_skipped(self):
        # The unmapped entry takes no rank, so the gold pair is found at rank 1.
        ranked = RankedLexicon(
            (
                entry("même si", "Temporal.Synchrony", 1, 2),
                entry("même si", "Comparison.Concession", 1, 3),
            )
        )
        gold = frozenset({("même si", "Concession")})
        report = evaluate(ranked, gold, self.MAP)
        assert report.avep == 1
        assert report.relevant_retrieved == report.total_relevant == 1

    def test_only_first_retrieval_of_a_gold_pair_is_relevant(self):
        # Two induced labels can project to the same gold pair. The second
        # retrieval is judged a miss and still takes a rank.
        amap = {"Comparison.Concession": "Concession", "Comparison.Contrast": "Concession"}
        ranked = RankedLexicon(
            (
                entry("même si", "Comparison.Concession", 2, 3),
                entry("même si", "Comparison.Contrast", 1, 3),
                entry("bien que", "Comparison.Concession", 1, 4),
            )
        )
        gold = frozenset({("même si", "Concession"), ("bien que", "Concession")})
        report = evaluate(ranked, gold, amap)
        assert report.relevant_retrieved == 2
        assert report.avep == (Fraction(1, 1) + Fraction(2, 3)) / 2

    def test_evaluate_reports_pair_and_connective_counts(self):
        amap = {"A.B": "X", "C.D": "Y"}
        ranked = RankedLexicon(
            (
                entry("un", "A.B", 3, 4),
                entry("deux", "C.D", 1, 2),
                entry("trois", "A.B", 1, 4),
            )
        )
        gold = frozenset({("un", "X"), ("un", "Y"), ("deux", "Y")})
        report = evaluate(ranked, gold, amap)
        assert report.relevant_retrieved == 2
        assert report.total_relevant == 3
        assert report.dc_retrieved == 2  # un, deux
        assert report.dc_total == 2
        assert report.recall_final == Fraction(2, 3)
        assert report.avep == (Fraction(1, 1) + Fraction(2, 2)) / 3


class TestRendering:
    def make_report(self):
        ranked = RankedLexicon((entry("un", "A.B", 1, 2),))
        return evaluate(ranked, frozenset({("un", "X")}), {"A.B": "X"})

    def test_report_sections_and_shape(self):
        text = render_eval_report(self.make_report())
        lines = text.splitlines()
        assert lines[0] == "# 11-point interpolated precision"
        level_rows = lines[1:12]
        assert [row.split("\t")[0] for row in level_rows] == [
            f"{float(level):.1f}" for level in RECALL_LEVELS
        ]
        assert "# average precision" in lines
        assert "avep\t1.000000" in lines
        assert "pair_recall\t1.000000" in lines
        assert "dc_recall\t1.000000" in lines
        assert lines[-1] == "dc_total\t1"
