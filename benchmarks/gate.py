"""Correctness gate for one `dclex run all` output directory.

Every check here is recomputed from the generated inputs and the ground
truth, not taken from the program's own reports:

- the exit code and the artifacts a later stage or the user reads;
- `freqs.tsv` against the connective counts the generator emitted;
- the number of fused source tokens against the connectives inserted;
- every lexicon row: prob = aligned / freq, freq matching `freqs.tsv`, and
  the documented rank order;
- average precision and pair recall, recomputed from the lexicon, the gold
  lexicon and the relation map, against `eval_report.txt`;
- for the planted corpus, the planted entry at rank 1 with prob 0.9 and
  AveP 1.0.

Runs of one workload and seed must also agree on `digest`; the caller
compares those across runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

STAGES = ("ingest", "tag", "align", "extract", "build", "eval", "evidence", "report")

# Artifacts that a later stage or the user reads. Intermediates no stage reads
# back (translation tables, one-direction alignments, the full phrase table)
# are left out on purpose: dropping them by default is a planned change.
REQUIRED = (
    "corpus.src",
    "corpus.tgt",
    "freqs.tsv",
    "fused.src",
    "alignments.sym.txt",
    "dc_records.tsv",
    "lexicon.tsv",
    "eval_report.txt",
    "evidence.txt",
    "table1.tsv",
    "manifest.json",
)


@dataclass(frozen=True)
class Expect:
    """What a correct run of one generated corpus must produce."""

    fr_counts: dict[str, int]  # French form -> longest-match occurrences
    en_count: int  # fused source tokens
    gold: frozenset[tuple[str, str]]  # (French form, gold relation)
    relations: frozenset[str]  # induced relation labels
    relation_map: dict[str, str]  # induced relation -> gold relation
    min_freq: int
    planted: tuple[str, str, Fraction] | None = None  # rank-1 (form, relation, prob)


@dataclass(frozen=True)
class Verdict:
    problems: tuple[str, ...]
    avep: float
    pair_recall: float
    digest: str


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _average_precision(
    lexicon: list[tuple[str, str]], gold: frozenset[tuple[str, str]], rmap: dict[str, str]
) -> tuple[Fraction, Fraction]:
    seen: set[tuple[str, str]] = set()
    hits = rank = 0
    total = Fraction(0)
    for fr, relation in lexicon:
        if relation not in rmap:
            continue
        rank += 1
        key = (fr, rmap[relation])
        if key in gold and key not in seen:
            seen.add(key)
            hits += 1
            total += Fraction(hits, rank)
    return total / len(gold), Fraction(hits, len(gold))


def _report_value(report: dict[str, str], key: str, problems: list[str]) -> float:
    try:
        return float(report[key])
    except (KeyError, ValueError):
        problems.append(f"eval_report.txt: no numeric {key!r}")
        return float("nan")


def check(out: Path, returncode: int, expect: Expect) -> Verdict:
    """Check one run's output directory; an empty `problems` means it passed."""
    try:
        return _check(out, returncode, expect)
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        return Verdict((f"unreadable output: {exc!r}",), float("nan"), float("nan"), "")


def _check(out: Path, returncode: int, expect: Expect) -> Verdict:
    problems: list[str] = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    missing = [name for name in REQUIRED if not (out / name).is_file()]
    if missing:
        problems.append(f"missing artifacts: {', '.join(missing)}")
        return Verdict(tuple(problems), float("nan"), float("nan"), "")

    stages = json.loads(_read(out / "manifest.json")).get("stages", {})
    absent = [s for s in STAGES if s not in stages]
    if absent:
        problems.append(f"manifest lacks stages: {', '.join(absent)}")

    freqs = {}
    for line in _read(out / "freqs.tsv").splitlines():
        form, count = line.split("\t")
        freqs[form] = int(count)
    if freqs != expect.fr_counts:
        wrong = sorted(f for f in expect.fr_counts if freqs.get(f) != expect.fr_counts[f])
        problems.append(f"freqs.tsv differs from the generated counts for {wrong[:5] or 'extra forms'}")

    fused = sum(
        tok.rpartition("-")[2] in expect.relations
        for line in _read(out / "fused.src").splitlines()
        for tok in line.split()
    )
    if fused != expect.en_count:
        problems.append(f"fused.src has {fused} fused tokens, expected {expect.en_count}")

    rows = [line.split("\t") for line in _read(out / "lexicon.tsv").splitlines()]
    if not rows:
        problems.append("lexicon.tsv is empty")
    ranked = []
    for n, row in enumerate(rows, start=1):
        if len(row) != 5:
            problems.append(f"lexicon.tsv line {n}: expected 5 fields")
            continue
        fr, relation, prob, aligned, freq = row[0], row[1], float(row[2]), int(row[3]), int(row[4])
        exact = Fraction(aligned, freq) if freq else Fraction(-1)
        if freq != freqs.get(fr) or freq < expect.min_freq or not 0 < exact <= 1:
            problems.append(f"lexicon.tsv line {n}: bad counts {aligned}/{freq} for {fr!r}")
        elif abs(prob - float(exact)) > 5e-7:
            problems.append(f"lexicon.tsv line {n}: prob {prob} != {aligned}/{freq}")
        ranked.append(((-exact, -aligned, fr, relation), (fr, relation)))
    if [key for key, _ in ranked] != sorted(key for key, _ in ranked):
        problems.append("lexicon.tsv is not in rank order")

    report = {}
    for line in _read(out / "eval_report.txt").splitlines():
        key, _, value = line.partition("\t")
        report[key] = value
    avep = _report_value(report, "avep", problems)
    recall = _report_value(report, "pair_recall", problems)
    gold = frozenset((fr, g) for fr, g in expect.gold if freqs.get(fr, 0) >= expect.min_freq)
    if gold:
        want_avep, want_recall = _average_precision(
            [pair for _, pair in ranked], gold, expect.relation_map
        )
        if abs(avep - float(want_avep)) > 5e-7 or abs(recall - float(want_recall)) > 5e-7:
            problems.append(
                f"eval_report.txt avep/recall {avep}/{recall} != recomputed "
                f"{float(want_avep):.6f}/{float(want_recall):.6f}"
            )
    else:
        problems.append("gold lexicon is empty after the frequency threshold")

    if expect.planted is not None:
        form, relation, prob = expect.planted
        top = tuple(rows[0][:3]) if rows else ()
        if top != (form, relation, f"{float(prob):.6f}") or avep != 1.0:
            problems.append(f"planted entry not at rank 1 with prob {float(prob)} and AveP 1: {top}")

    digest = hashlib.sha256()
    for name in ("lexicon.tsv", "eval_report.txt"):
        digest.update((out / name).read_bytes())
    return Verdict(tuple(problems), avep, recall, digest.hexdigest())
