"""Discourse-connective annotations and token fusion.

A tagged connective occurrence is collapsed into a single token
``surface_with_underscores-RelationLabel`` (e.g. ``even_though-Comparison.Concession``)
so that the word aligner sees one relation-bearing unit. Fusion is
reversible: split at the last '-', map underscores back to spaces.

The source side is fused on its ids (`fuse_corpus`): it goes in and comes
out as `TokenColumns`, the source side of the corpus's `Bitext`, and only
the tagged sentences change. Annotations name sentence k of that side, line
k of `corpus.src`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

from .corpus import (
    FormScan,
    Occurrences,
    TokenColumns,
    _spans,
    process_chunks,
    tokenize,
    write_token_file,
)
from .errors import PipelineError
from .fileio import atomic_write_text, iter_data_lines, read_text_strict
from .inventory import Connective

SURFACE_JOINER = "_"
SENSE_SEPARATOR = "-"

# The source side of a tokenized corpus; sentence k is line k of its file.
Sentences = Sequence[tuple[str, ...]]


@dataclass(frozen=True)
class DCAnnotation:
    """A connective occurrence on the source side; `start`..`end` inclusive."""

    sentence_id: int
    start: int
    end: int
    surface: tuple[str, ...]
    relation: str | None
    discourse_usage: bool

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise PipelineError(f"bad annotation span [{self.start}, {self.end}]")
        if len(self.surface) != self.end - self.start + 1:
            raise PipelineError(
                f"annotation surface {self.surface!r} does not cover span "
                f"[{self.start}, {self.end}]"
            )
        if self.discourse_usage != (self.relation is not None):
            raise PipelineError(
                "annotation must carry a relation exactly when discourse_usage is true"
            )
        if self.relation is not None:
            if any(map(str.isspace, self.relation)) or SENSE_SEPARATOR in self.relation:
                raise PipelineError(
                    f"relation label {self.relation!r} must not contain whitespace or '-'"
                )


def fuse_token(span_tokens: Sequence[str], relation: str) -> str:
    return SURFACE_JOINER.join(span_tokens) + SENSE_SEPARATOR + relation


def split_fused_token(token: str) -> tuple[tuple[str, ...], str] | None:
    """Inverse of `fuse_token`; None when `token` carries no sense tag."""
    head, sep, relation = token.rpartition(SENSE_SEPARATOR)
    if not sep or not head or not relation:
        return None
    return tuple(head.split(SURFACE_JOINER)), relation


def _check_span(tokens: Sequence[str], ann: DCAnnotation) -> None:
    """Check that `ann`'s span lies in `tokens`, its sentence, and spells its
    surface, case aside."""
    if ann.end >= len(tokens):
        raise PipelineError(
            f"sentence {ann.sentence_id}: span [{ann.start}, {ann.end}] out of bounds "
            f"(length {len(tokens)})"
        )
    actual = tuple(t.lower() for t in tokens[ann.start : ann.end + 1])
    expected = tuple(t.lower() for t in ann.surface)
    if actual != expected:
        raise PipelineError(
            f"sentence {ann.sentence_id}: tokens {actual!r} at [{ann.start}, {ann.end}] "
            f"do not match annotated surface {expected!r}"
        )


def fuse_corpus(sentences: Sentences, annotations: Sequence[DCAnnotation]) -> TokenColumns:
    """Replace each discourse-usage span with a single fused token, on the
    ids: the fused token is added to the vocabulary when new, and the rest
    of the span is dropped. Non-discourse annotations and untagged tokens
    pass through unchanged, and no sentence is rebuilt. `sentences` are
    interned first unless they are `TokenColumns` already.

    A sentence's annotations are checked in order of start: the first whose
    span `_check_span` rejects, or that overlaps the one before it, fails,
    and the first sentence holding such an annotation is the one reported.
    """
    import numpy as np

    columns = TokenColumns.of(sentences)
    n = len(columns)
    for ann in annotations:
        if not 0 <= ann.sentence_id < n:
            raise PipelineError(f"annotation references unknown sentence id {ann.sentence_id}")
    if not annotations:
        return columns
    sid, start, end = np.array(
        [(a.sentence_id, a.start, a.end) for a in annotations], np.int64
    ).T
    order = np.lexsort((start, sid))  # stable: annotations of one start stay in input order
    sid, start, end = sid[order], start[order], end[order]
    anns = [annotations[a] for a in order.tolist()]
    inside = end < columns.lengths()[sid]
    bad = ~inside
    bad[1:] |= (sid[1:] == sid[:-1]) & (start[1:] <= end[:-1])
    at = columns.offsets[sid] + start
    width = end - start + 1
    words = columns.ids[_spans(at[inside], width[inside])].tolist() if inside.any() else []
    vocab = columns.vocab
    # The lowercased words of each span and surface, and each fused token.
    lowered: dict[tuple, tuple[str, ...]] = {}
    fused: dict[tuple[tuple[int, ...], str], str] = {}
    tokens: list[str | None] = [None] * len(anns)
    lo = 0
    for a in np.flatnonzero(inside).tolist():
        ann = anns[a]
        span = tuple(words[lo : lo + len(ann.surface)])
        lo += len(span)
        if span not in lowered:
            lowered[span] = tuple(vocab[w].lower() for w in span)
        if ann.surface not in lowered:
            lowered[ann.surface] = tuple(t.lower() for t in ann.surface)
        if lowered[span] != lowered[ann.surface]:
            bad[a] = True
        elif ann.discourse_usage:
            assert ann.relation is not None
            key = (span, ann.relation)
            if key not in fused:
                fused[key] = fuse_token([vocab[w] for w in span], ann.relation)
            tokens[a] = fused[key]
    if bad.any():
        a = int(np.argmax(bad))
        _check_span(columns[int(sid[a])], anns[a])
        raise PipelineError(f"sentence {sid[a]}: overlapping annotation at {start[a]}")
    kept = np.flatnonzero([token is not None for token in tokens])
    if not len(kept):
        return columns
    index = dict(zip(vocab, range(len(vocab))))
    vocab = list(vocab)
    for token in dict.fromkeys(tokens[a] for a in kept.tolist()):
        if token not in index:
            index[token] = len(vocab)
            vocab.append(token)
    ids = columns.ids.copy()
    ids[at[kept]] = [index[tokens[a]] for a in kept.tolist()]
    dropped = width[kept] - 1
    keep = np.ones(len(ids), bool)
    if dropped.any():
        keep[_spans(at[kept] + 1, dropped)] = False
    lengths = columns.lengths() - np.bincount(sid[kept], dropped, len(columns)).astype(np.int64)
    return TokenColumns(vocab, ids[keep], np.append(0, np.cumsum(lengths)))


# ---------------------------------------------------------------------------
# Stand-off annotation files
# ---------------------------------------------------------------------------
#
# Tab-separated, one record per line:
#   sentence_id <TAB> start <TAB> end <TAB> surface <TAB> relation <TAB> usage
# `usage` is 1/0; `relation` is empty exactly when usage is 0. The surface is
# space-joined and refers to the tokenized corpus the annotator consumed.


def load_annotations(path: str, sentences: Sentences) -> list[DCAnnotation]:
    """Load and validate stand-off annotations against `sentences`."""
    annotations: list[DCAnnotation] = []
    for lineno, line in enumerate(read_text_strict(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise PipelineError(f"{path}: expected 6 fields at record {lineno}")
        try:
            sid, start, end = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise PipelineError(f"{path}: non-numeric field at record {lineno}") from exc
        surface = tuple(parts[3].split())
        relation = parts[4] or None
        if parts[5] not in ("0", "1"):
            raise PipelineError(f"{path}: usage flag must be 0 or 1 at record {lineno}")
        usage = parts[5] == "1"
        if not 0 <= sid < len(sentences):
            raise PipelineError(f"{path}: unknown sentence id {sid} at record {lineno}")
        try:
            ann = DCAnnotation(sid, start, end, surface, relation, usage)
            _check_span(sentences[sid], ann)
        except PipelineError as exc:
            raise PipelineError(f"{path}: record {lineno}: {exc}") from exc
        annotations.append(ann)
    annotations.sort(key=lambda a: (a.sentence_id, a.start))
    prev: DCAnnotation | None = None
    for ann in annotations:
        if prev is not None and ann.sentence_id == prev.sentence_id and ann.start <= prev.end:
            raise PipelineError(
                f"{path}: overlapping spans in sentence {ann.sentence_id} "
                f"([{prev.start}, {prev.end}] and [{ann.start}, {ann.end}])"
            )
        prev = ann
    return annotations


def write_annotations(annotations: Sequence[DCAnnotation], path: str) -> None:
    lines = []
    for ann in annotations:
        lines.append(
            f"{ann.sentence_id}\t{ann.start}\t{ann.end}\t{' '.join(ann.surface)}\t"
            f"{ann.relation or ''}\t{int(ann.discourse_usage)}\n"
        )
    atomic_write_text(path, "".join(lines))


def load_default_senses(path: str) -> dict[str, str]:
    """Load `surface<TAB>relation` defaults for the heuristic tagger. A
    surface is keyed by its lowercased tokens, space-joined, as the
    connective inventory keys its forms."""
    senses: dict[str, str] = {}
    for lineno, payload in iter_data_lines(read_text_strict(path)):
        parts = payload.split("\t")
        if len(parts) != 2:
            raise PipelineError(f"{path}: expected `surface<TAB>relation` at line {lineno}")
        surface = " ".join(tokenize(parts[0]))  # lowercased by default
        relation = parts[1].strip()
        if not surface or not relation:
            raise PipelineError(f"{path}: empty field at line {lineno}")
        if surface in senses and senses[surface] != relation:
            raise PipelineError(f"{path}: conflicting senses for {surface!r} at line {lineno}")
        senses[surface] = relation
    if not senses:
        raise PipelineError(f"{path}: empty default-sense table")
    return senses


def heuristic_tag(
    sentences: Sentences,
    inventory: Sequence[Connective],
    default_sense: Mapping[str, str],
) -> list[DCAnnotation]:
    """Tag source-side connectives by longest-match scan with default senses.

    A crude stand-in for a real discourse tagger: every match is treated as
    discourse usage and labeled with the surface's default relation.
    """
    columns = TokenColumns.of(sentences)
    scan = FormScan((c.surface for c in inventory), columns.vocab)
    found = Occurrences.concat(
        scan.forms, process_chunks(partial(scan, columns), range(len(columns)))
    )
    senses = [default_sense.get(" ".join(form)) for form in scan.forms]
    annotations: list[DCAnnotation] = []
    for k, start, f in zip(found.pair.tolist(), found.start.tolist(), found.form.tolist()):
        form, sense = scan.forms[f], senses[f]
        if sense is None:
            raise PipelineError(f"no default sense for connective {' '.join(form)!r}")
        annotations.append(DCAnnotation(k, start, start + len(form) - 1, form, sense, True))
    return annotations


def write_fused_corpus(sentences: Sentences, path: str) -> None:
    write_token_file(sentences, path)
