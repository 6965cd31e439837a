"""Connective tags and token fusion.

A tagged connective occurrence is collapsed into a single token
``surface_with_underscores-RelationLabel`` (e.g. ``even_though-Comparison.Concession``)
so that the word aligner sees one relation-bearing unit. Fusion is
reversible: split at the last '-', map underscores back to spaces. This
module alone knows that format: `fuse_token` makes a fused token,
`split_fused_token` and `fused_connective` read one, and `check_label` is
the rule a relation label must follow to be carried by one.

The tags of a corpus are `Tags`, spans as columns, which only
`heuristic_tag` (a longest-match scan) and `load_annotations` (a stand-off
file) make; each checks its spans as it makes them. The source side is
fused on its ids (`fuse_corpus`): it goes in and comes out as
`TokenColumns`, the source side of the corpus's `Bitext`, and only the
tagged sentences change. Sentence k of the tags is line k of `corpus.src`.
"""

from __future__ import annotations

from typing import Container, Mapping, Sequence

# `process_chunks` is bound here only for the benchmark's tracer to wrap;
# the scans run their chunks through `corpus.process_chunks`.
from .corpus import (
    Form,
    TokenColumns,
    _spans,
    find_occurrences,
    process_chunks,
    tokenize,
    write_token_file,
)
from .errors import PipelineError
from .fileio import atomic_write_text, iter_data_lines, read_text_strict

SURFACE_JOINER = "_"
SENSE_SEPARATOR = "-"

# The source side of a tokenized corpus; sentence k is line k of its file.
Sentences = Sequence[tuple[str, ...]]


class Tags:
    """Connective spans on the source side: span a covers tokens `start[a]`
    to `end[a]`, inclusive, of sentence `sentence[a]`, and `relation[a]` is
    its relation label, or None for a non-discourse reading. The columns
    are int64; the spans are in (sentence, start) order, lie in their
    sentences and do not overlap, as `fuse_corpus` relies on."""

    __slots__ = ("sentence", "start", "end", "relation")

    def __init__(self, sentence, start, end, relation: Sequence[str | None]) -> None:
        import numpy as np

        self.sentence, self.start, self.end = (
            np.asarray(column, np.int64) for column in (sentence, start, end)
        )
        self.relation = list(relation)

    def __len__(self) -> int:
        return len(self.relation)


def check_label(label: str, where: str = "") -> None:
    """Reject a relation label that a fused token cannot carry: one with
    whitespace or a '-'. `where` begins the error message."""
    if any(map(str.isspace, label)) or SENSE_SEPARATOR in label:
        raise PipelineError(f"{where}relation label {label!r} must not contain whitespace or '-'")


def fuse_token(span_tokens: Sequence[str], relation: str) -> str:
    return SURFACE_JOINER.join(span_tokens) + SENSE_SEPARATOR + relation


def split_fused_token(token: str) -> tuple[tuple[str, ...], str] | None:
    """Inverse of `fuse_token`; None when `token` carries no sense tag."""
    head, sep, relation = token.rpartition(SENSE_SEPARATOR)
    if not sep or not head or not relation:
        return None
    return tuple(head.split(SURFACE_JOINER)), relation


def fused_connective(
    token: str, src_forms: Container[Form], relations: Container[str]
) -> tuple[str, str] | None:
    """The (en_dc, relation) a fused source token stands for, or None for a
    plain token or one whose surface is not in the source inventory.

    A token that parses as `<known surface>-<label>` with an unknown label
    signals upstream corruption and is fatal.
    """
    parsed = split_fused_token(token)
    if parsed is None:
        return None  # plain token, e.g. an untagged connective occurrence
    surface = tuple(t.lower() for t in parsed[0])
    relation = parsed[1]
    if surface not in src_forms:
        return None
    if relation not in relations:
        raise PipelineError(
            f"malformed fused token {token!r}: unknown relation label {relation!r}"
        )
    return " ".join(surface), relation


def fuse_corpus(sentences: Sentences, tags: Tags) -> TokenColumns:
    """Replace each span that carries a relation with a single fused token,
    on the ids: the fused token is added to the vocabulary when new, and the
    rest of the span is dropped. Non-discourse spans and untagged tokens
    pass through unchanged, and no sentence is rebuilt. `sentences` are
    interned first unless they are `TokenColumns` already."""
    import numpy as np

    columns = TokenColumns.of(sentences)
    tagged = np.flatnonzero([relation is not None for relation in tags.relation])
    if not len(tagged):
        return columns
    sid = tags.sentence[tagged]
    at = columns.offsets[sid] + tags.start[tagged]
    width = tags.end[tagged] - tags.start[tagged] + 1
    words = columns.ids[_spans(at, width)].tolist()
    index = dict(zip(columns.vocab, range(len(columns.vocab))))
    vocab = list(columns.vocab)
    # The id of each span's fused token, keyed by its words and relation.
    fused: dict[tuple[tuple[int, ...], str], int] = {}
    ids_at: list[int] = []
    lo = 0
    for a, n in zip(tagged.tolist(), width.tolist()):
        key = (tuple(words[lo : lo + n]), tags.relation[a])
        lo += n
        if key not in fused:
            token = fuse_token([vocab[w] for w in key[0]], key[1])
            if token not in index:
                index[token] = len(vocab)
                vocab.append(token)
            fused[key] = index[token]
        ids_at.append(fused[key])
    ids = columns.ids.copy()
    ids[at] = ids_at
    dropped = width - 1
    keep = np.ones(len(ids), bool)
    if dropped.any():
        keep[_spans(at + 1, dropped)] = False
    lengths = columns.lengths() - np.bincount(sid, dropped, len(columns)).astype(np.int64)
    return TokenColumns(vocab, ids[keep], np.append(0, np.cumsum(lengths)))


# ---------------------------------------------------------------------------
# Stand-off annotation files
# ---------------------------------------------------------------------------
#
# Tab-separated, one record per line:
#   sentence_id <TAB> start <TAB> end <TAB> surface <TAB> relation <TAB> usage
# `usage` is 1/0; `relation` is empty exactly when usage is 0. The surface is
# space-joined and refers to the tokenized corpus the annotator consumed.


def _check_record(
    tokens: Sequence[str],
    sid: int,
    start: int,
    end: int,
    surface: tuple[str, ...],
    relation: str | None,
    usage: bool,
) -> None:
    """Check one record against `tokens`, sentence `sid`: its span lies in
    the sentence and spells `surface`, case aside, and it carries a
    relation, a well-formed one, exactly when `usage` is set."""
    if start < 0 or end < start:
        raise PipelineError(f"bad annotation span [{start}, {end}]")
    if len(surface) != end - start + 1:
        raise PipelineError(
            f"annotation surface {surface!r} does not cover span [{start}, {end}]"
        )
    if usage != (relation is not None):
        raise PipelineError(
            "annotation must carry a relation exactly when discourse_usage is true"
        )
    if relation is not None:
        check_label(relation)
    if end >= len(tokens):
        raise PipelineError(
            f"sentence {sid}: span [{start}, {end}] out of bounds (length {len(tokens)})"
        )
    actual = tuple(t.lower() for t in tokens[start : end + 1])
    expected = tuple(t.lower() for t in surface)
    if actual != expected:
        raise PipelineError(
            f"sentence {sid}: tokens {actual!r} at [{start}, {end}] "
            f"do not match annotated surface {expected!r}"
        )


def load_annotations(path: str, sentences: Sentences) -> Tags:
    """Load stand-off annotations and check each against its sentence of
    `sentences`."""
    rows: list[tuple[int, int, int, str | None]] = []
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
        relation = parts[4] or None
        if parts[5] not in ("0", "1"):
            raise PipelineError(f"{path}: usage flag must be 0 or 1 at record {lineno}")
        if not 0 <= sid < len(sentences):
            raise PipelineError(f"{path}: unknown sentence id {sid} at record {lineno}")
        surface = tuple(parts[3].split())
        try:
            _check_record(sentences[sid], sid, start, end, surface, relation, parts[5] == "1")
        except PipelineError as exc:
            raise PipelineError(f"{path}: record {lineno}: {exc}") from exc
        rows.append((sid, start, end, relation))
    rows.sort(key=lambda row: row[:2])
    for prev, row in zip(rows, rows[1:]):
        if row[0] == prev[0] and row[1] <= prev[2]:
            raise PipelineError(
                f"{path}: overlapping spans in sentence {row[0]} "
                f"([{prev[1]}, {prev[2]}] and [{row[1]}, {row[2]}])"
            )
    return Tags(*zip(*rows)) if rows else Tags([], [], [], [])


def write_annotations(tags: Tags, sentences: Sentences, path: str) -> None:
    """Write `tags` as a stand-off file, each surface read off its sentence
    of `sentences`."""
    lines = []
    for k, start, end, relation in zip(
        tags.sentence.tolist(), tags.start.tolist(), tags.end.tolist(), tags.relation
    ):
        surface = " ".join(sentences[k][start : end + 1])
        usage = int(relation is not None)
        lines.append(f"{k}\t{start}\t{end}\t{surface}\t{relation or ''}\t{usage}\n")
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
        check_label(relation, f"{path}: line {lineno}: ")
        if surface in senses and senses[surface] != relation:
            raise PipelineError(f"{path}: conflicting senses for {surface!r} at line {lineno}")
        senses[surface] = relation
    if not senses:
        raise PipelineError(f"{path}: empty default-sense table")
    return senses


def heuristic_tag(
    sentences: Sentences,
    inventory: Sequence[Form],
    default_sense: Mapping[str, str],
) -> Tags:
    """Tag source-side connectives by longest-match scan with default senses.

    A crude stand-in for a real discourse tagger: every match is treated as
    discourse usage and labeled with the surface's default relation.
    """
    found = find_occurrences(sentences, inventory)
    senses = [default_sense.get(" ".join(form)) for form in found.forms]
    relation = [senses[f] for f in found.form.tolist()]
    if None in relation:
        form = found.forms[found.form[relation.index(None)]]
        raise PipelineError(f"no default sense for connective {' '.join(form)!r}")
    return Tags(found.pair, found.start, found.start + found.lengths() - 1, relation)


def write_fused_corpus(sentences: Sentences, path: str) -> None:
    write_token_file(sentences, path)
