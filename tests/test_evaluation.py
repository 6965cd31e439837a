"""Ranked-retrieval metrics in exact rational arithmetic."""

import random
from fractions import Fraction

import pytest

from dclex.errors import PipelineError
from dclex.evaluation import (
    RECALL_LEVELS,
    RelevanceItem,
    RelevanceList,
    average_precision,
    evaluate,
    interpolated_11pt,
    make_relevance_list,
    precision_recall_points,
    render_eval_report,
)
from dclex.inventory import GoldLexicon, RelationMap
from dclex.lexicon import LexiconEntry, RankedLexicon

from oracles import average_precision_reference, curve11_reference


def rlist(flags, n):
    items = tuple(
        RelevanceItem(f"dc{i}", "REL", bool(flag)) for i, flag in enumerate(flags)
    )
    return RelevanceList(items, n)


class TestWorkedExamples:
    def test_three_item_fixture(self):
        rel = rlist([1, 0, 1], n=2)
        points = precision_recall_points(rel)
        assert points == [
            (Fraction(1, 2), Fraction(1, 1)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 1), Fraction(2, 3)),
        ]
        assert average_precision(rel) == Fraction(5, 6)
        curve = interpolated_11pt(points)
        assert curve[:6] == (Fraction(1),) * 6
        assert curve[6:] == (Fraction(2, 3),) * 5

    def test_single_hit(self):
        rel = rlist([1], n=1)
        assert average_precision(rel) == 1
        assert interpolated_11pt(precision_recall_points(rel)) == (Fraction(1),) * 11

    def test_all_misses(self):
        rel = rlist([0, 0], n=3)
        assert average_precision(rel) == 0
        assert interpolated_11pt(precision_recall_points(rel)) == (Fraction(0),) * 11

    def test_unretrieved_gold_pairs_drag_down_avep(self):
        rel = rlist([1], n=2)
        assert average_precision(rel) == Fraction(1, 2)

    def test_empty_list_with_nonempty_gold(self):
        rel = rlist([], n=4)
        assert average_precision(rel) == 0
        assert interpolated_11pt(precision_recall_points(rel)) == (Fraction(0),) * 11

    def test_empty_gold_set_is_fatal(self):
        with pytest.raises(PipelineError, match="empty gold set"):
            precision_recall_points(rlist([1], n=0))
        with pytest.raises(PipelineError, match="empty gold set"):
            average_precision(rlist([1], n=0))


class TestAgainstOracle:
    def test_random_lists_match_reference_exactly(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.randint(1, 40)
            length = rng.randint(0, 200)
            hits = rng.randint(0, min(n, length))
            flags = [True] * hits + [False] * (length - hits)
            rng.shuffle(flags)
            rel = rlist(flags, n)
            assert average_precision(rel) == average_precision_reference(flags, n)
            got = interpolated_11pt(precision_recall_points(rel))
            assert got == curve11_reference(flags, n)

    def test_curve_is_non_increasing(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(1, 20)
            flags = [rng.random() < 0.4 for _ in range(rng.randint(1, 60))]
            while sum(flags) > n:
                flags[flags.index(True)] = False
            curve = interpolated_11pt(precision_recall_points(rlist(flags, n)))
            assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_appending_misses_never_changes_recall(self):
        flags = [True, False, True]
        base = precision_recall_points(rlist(flags, 4))
        extended = precision_recall_points(rlist(flags + [False] * 5, 4))
        assert extended[: len(base)] == base
        assert extended[-1][0] == base[-1][0]


def entry(fr_dc, relation, num, den):
    return LexiconEntry(fr_dc, relation, Fraction(num, den), num, den)


class TestRelevanceProjection:
    MAP = RelationMap({"Comparison.Concession": "Concession"})

    def test_unmapped_relations_are_skipped(self):
        ranked = RankedLexicon(
            (
                entry("même si", "Comparison.Concession", 1, 2),
                entry("même si", "Temporal.Synchrony", 1, 3),
            )
        )
        gold = GoldLexicon(frozenset({("même si", "Concession")}))
        rel = make_relevance_list(ranked, gold, self.MAP)
        assert len(rel.items) == 1
        assert rel.items[0].gold_relation == "Concession"
        assert rel.total_relevant == 1

    def test_only_first_retrieval_of_a_gold_pair_is_relevant(self):
        # Two induced labels can project to the same gold pair.
        amap = RelationMap(
            {"Comparison.Concession": "Concession", "Comparison.Contrast": "Concession"}
        )
        ranked = RankedLexicon(
            (
                entry("même si", "Comparison.Concession", 2, 3),
                entry("même si", "Comparison.Contrast", 1, 3),
            )
        )
        gold = GoldLexicon(frozenset({("même si", "Concession")}))
        rel = make_relevance_list(ranked, gold, amap)
        assert [item.is_relevant for item in rel.items] == [True, False]

    def test_evaluate_reports_pair_and_connective_counts(self):
        amap = RelationMap({"A.B": "X", "C.D": "Y"})
        ranked = RankedLexicon(
            (
                entry("un", "A.B", 3, 4),
                entry("deux", "C.D", 1, 2),
                entry("trois", "A.B", 1, 4),
            )
        )
        gold = GoldLexicon(frozenset({("un", "X"), ("un", "Y"), ("deux", "Y")}))
        report = evaluate(ranked, gold, amap)
        assert report.counts.relevant_retrieved == 2
        assert report.counts.total_relevant == 3
        assert report.counts.dc_retrieved == 2  # un, deux
        assert report.counts.dc_total == 2
        assert report.recall_final == Fraction(2, 3)
        assert report.avep == (Fraction(1, 1) + Fraction(2, 2)) / 3


class TestRendering:
    def make_report(self):
        amap = RelationMap({"A.B": "X"})
        ranked = RankedLexicon((entry("un", "A.B", 1, 2),))
        gold = GoldLexicon(frozenset({("un", "X")}))
        return evaluate(ranked, gold, amap)

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
