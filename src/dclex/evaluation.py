"""Ranked-retrieval evaluation of the induced lexicon against a gold lexicon.

Relevance is judged at (connective, relation) granularity after mapping
induced relation labels into the gold label space. All metrics are computed
in exact rational arithmetic; decimals appear only in rendered reports.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import PipelineError
from .fileio import atomic_write_text
from .lexicon import RankedLexicon

RECALL_LEVELS = tuple(Fraction(i, 10) for i in range(11))


class EvalReport(NamedTuple):
    """The 11-point curve, AveP and pair recall, and the counts behind them:
    gold pairs retrieved and in all, and gold connectives with a pair
    retrieved and in all."""

    curve11: tuple[Fraction, ...]
    avep: Fraction
    recall_final: Fraction
    relevant_retrieved: int
    total_relevant: int
    dc_retrieved: int
    dc_total: int


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


def evaluate(
    ranked: RankedLexicon,
    gold: frozenset[tuple[str, str]],
    relation_map: Mapping[str, str],
) -> EvalReport:
    """Judge each ranked entry once, in gold space, and report the 11-point
    curve, AveP, pair recall and the counts.

    An entry whose relation has no mapping is skipped and takes no rank.
    Only the first retrieval of a gold pair is relevant; `gold` is assumed
    to be already restricted to connectives above the frequency threshold.
    AveP is the mean over gold pairs of precision at their first retrieval
    rank, never-retrieved pairs counting zero. Connective-level recall
    counts distinct gold connectives with at least one pair retrieved.
    """
    n = len(gold)
    if not n:
        raise PipelineError("empty gold set: precision/recall undefined")
    found: set[tuple[str, str]] = set()
    points: list[tuple[Fraction, Fraction]] = []  # (recall, precision) after each rank
    precision_sum = Fraction(0)
    rank = 0
    for entry in ranked.entries:
        gold_relation = relation_map.get(entry.relation)
        if gold_relation is None:
            continue
        rank += 1
        key = (entry.fr_dc, gold_relation)
        if key in gold and key not in found:
            found.add(key)
            precision_sum += Fraction(len(found), rank)
        points.append((Fraction(len(found), n), Fraction(len(found), rank)))
    hits = len(found)
    return EvalReport(
        interpolated_11pt(points),
        precision_sum / n,
        Fraction(hits, n),
        hits,
        n,
        len({surface for surface, _ in found}),
        len({surface for surface, _ in gold}),
    )


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
        Fraction(report.dc_retrieved, report.dc_total)
        if report.dc_total
        else Fraction(0)
    )
    lines.append(f"dc_recall\t{_dec(dc_recall)}")
    lines.append("")
    lines.append("# counts")
    lines.append(f"relevant_retrieved\t{report.relevant_retrieved}")
    lines.append(f"total_relevant\t{report.total_relevant}")
    lines.append(f"dc_retrieved\t{report.dc_retrieved}")
    lines.append(f"dc_total\t{report.dc_total}")
    return "\n".join(lines) + "\n"


def write_eval_report(report: EvalReport, path: str) -> None:
    atomic_write_text(path, render_eval_report(report))

