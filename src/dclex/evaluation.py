"""Ranked-retrieval evaluation of the induced lexicon against a gold lexicon.

Relevance is judged at (connective, relation) granularity after mapping
induced relation labels into the gold label space. All metrics are computed
in exact rational arithmetic; decimals appear only in rendered reports.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import PipelineError
from .fileio import atomic_write_text
from .inventory import GoldLexicon, RelationMap
from .lexicon import RankedLexicon

RECALL_LEVELS = tuple(Fraction(i, 10) for i in range(11))


@dataclass(frozen=True)
class RelevanceItem:
    fr_dc: str
    gold_relation: str
    is_relevant: bool


@dataclass(frozen=True)
class RelevanceList:
    """Ranked retrieval outcomes; `total_relevant` is the gold set size N."""

    items: tuple[RelevanceItem, ...]
    total_relevant: int


@dataclass(frozen=True)
class EvalCounts:
    relevant_retrieved: int
    total_relevant: int
    dc_retrieved: int
    dc_total: int


@dataclass(frozen=True)
class EvalReport:
    curve11: tuple[Fraction, ...]
    avep: Fraction
    recall_final: Fraction
    counts: EvalCounts


def make_relevance_list(
    ranked: RankedLexicon, gold: GoldLexicon, relation_map: RelationMap
) -> RelevanceList:
    """Project the ranked lexicon into gold space and judge each entry.

    Entries whose relation has no mapping are skipped. Only the first
    retrieval of a gold pair counts as relevant; `gold` is assumed to be
    already restricted to connectives above the frequency threshold.
    """
    items: list[RelevanceItem] = []
    seen: set[tuple[str, str]] = set()
    for entry in ranked.entries:
        gold_relation = relation_map.project(entry.relation)
        if gold_relation is None:
            continue
        key = (entry.fr_dc, gold_relation)
        relevant = key in gold.entries and key not in seen
        if relevant:
            seen.add(key)
        items.append(RelevanceItem(entry.fr_dc, gold_relation, relevant))
    return RelevanceList(tuple(items), len(gold.entries))


def precision_recall_points(
    relevance: RelevanceList,
) -> list[tuple[Fraction, Fraction]]:
    """(recall, precision) after each rank, as exact fractions."""
    n = relevance.total_relevant
    if n <= 0:
        raise PipelineError("empty gold set: precision/recall undefined")
    points = []
    hits = 0
    for rank, item in enumerate(relevance.items, start=1):
        if item.is_relevant:
            hits += 1
        points.append((Fraction(hits, n), Fraction(hits, rank)))
    return points


def interpolated_11pt(
    points: Sequence[tuple[Fraction, Fraction]],
) -> tuple[Fraction, ...]:
    """Interpolated precision at recall 0.0, 0.1, ..., 1.0.

    p(r) = max precision over points with recall >= r, or 0 when no point
    reaches r. Recall never decreases with rank, so the qualifying points
    form a suffix; precompute suffix maxima and binary-search each level.
    """
    recalls = [r for r, _ in points]
    suffix_max: list[Fraction] = [Fraction(0)] * len(points)
    best = None
    for idx in range(len(points) - 1, -1, -1):
        p = points[idx][1]
        best = p if best is None or p > best else best
        suffix_max[idx] = best
    curve = []
    for level in RECALL_LEVELS:
        idx = bisect_left(recalls, level)
        curve.append(suffix_max[idx] if idx < len(points) else Fraction(0))
    return tuple(curve)


def average_precision(relevance: RelevanceList) -> Fraction:
    """Mean over gold pairs of precision at their first retrieval rank;
    never-retrieved gold pairs contribute zero."""
    n = relevance.total_relevant
    if n <= 0:
        raise PipelineError("empty gold set: average precision undefined")
    total = Fraction(0)
    hits = 0
    for rank, item in enumerate(relevance.items, start=1):
        if item.is_relevant:
            hits += 1
            total += Fraction(hits, rank)
    return total / n


def evaluate(
    ranked: RankedLexicon, gold: GoldLexicon, relation_map: RelationMap
) -> EvalReport:
    """Full evaluation: 11-point curve, AveP, recall, counts.

    Recall is reported at pair level (gold pairs retrieved / N) and the
    counts allow connective-level recall (distinct gold connectives with at
    least one retrieved pair).
    """
    relevance = make_relevance_list(ranked, gold, relation_map)
    points = precision_recall_points(relevance)
    curve = interpolated_11pt(points)
    avep = average_precision(relevance)
    hits = sum(1 for item in relevance.items if item.is_relevant)
    recall_final = Fraction(hits, relevance.total_relevant)
    gold_dcs = {surface for surface, _ in gold.entries}
    retrieved_dcs = {item.fr_dc for item in relevance.items if item.is_relevant}
    counts = EvalCounts(hits, relevance.total_relevant, len(retrieved_dcs), len(gold_dcs))
    return EvalReport(curve, avep, recall_final, counts)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _dec(value: Fraction) -> str:
    return f"{float(value):.6f}"


def render_eval_report(report: EvalReport) -> str:
    lines = ["# 11-point interpolated precision"]
    for level, precision in zip(RECALL_LEVELS, report.curve11):
        lines.append(f"{float(level):.1f}\t{_dec(precision)}")
    lines.append("")
    lines.append("# average precision")
    lines.append(f"avep\t{_dec(report.avep)}")
    lines.append("")
    lines.append("# recall")
    lines.append(f"pair_recall\t{_dec(report.recall_final)}")
    dc_recall = (
        Fraction(report.counts.dc_retrieved, report.counts.dc_total)
        if report.counts.dc_total
        else Fraction(0)
    )
    lines.append(f"dc_recall\t{_dec(dc_recall)}")
    lines.append("")
    lines.append("# counts")
    lines.append(f"relevant_retrieved\t{report.counts.relevant_retrieved}")
    lines.append(f"total_relevant\t{report.counts.total_relevant}")
    lines.append(f"dc_retrieved\t{report.counts.dc_retrieved}")
    lines.append(f"dc_total\t{report.counts.dc_total}")
    return "\n".join(lines) + "\n"


def write_eval_report(report: EvalReport, path: str) -> None:
    atomic_write_text(path, render_eval_report(report))

