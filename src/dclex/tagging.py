"""Connective tags and token fusion.

A tagged connective occurrence is collapsed into a single token
``surface_with_underscores-RelationLabel`` (e.g. ``even_though-Comparison.Concession``)
so that the word aligner sees one relation-bearing unit. A fused token
reads back by a split at the last '-' and underscores mapped back to
spaces. This module alone knows that format: `fuse_token` makes a fused
token, `split_fused_token` reads one, `fused_connective` is the one rule
for a fused connective, `check_senses` checks that tag's senses make one
(`check_read_back` the half of it that needs no induced label),
`connective_pairs` finds the pairs that hold one and a target occurrence,
and `check_label` is the rule for the relation label of one.

The tags of a corpus are `Tags`, spans as columns, which only
`heuristic_tag` (a longest-match scan) and `load_annotations` (a stand-off
file) make; each checks its spans as it makes them. A stand-off file is
parsed once, as `Annotations`, with every check that needs no corpus;
`load_annotations` takes it, or its path, and checks the spans against the
corpus. The source side is fused on its ids (`fuse_corpus`): it goes in
and comes out as `TokenColumns`, the source side of the corpus's `Bitext`,
and only the tagged sentences change. Sentence k of the tags is line k of
`corpus.src`.
"""

from __future__ import annotations

from typing import Container, Iterable, Mapping, NamedTuple, Sequence

# `process_chunks` is bound here only for the benchmark's tracer to wrap;
# the scans run their chunks through `corpus.process_chunks`.
from .corpus import (
    Form,
    Occurrences,
    TokenColumns,
    _spans,
    find_occurrences,
    process_chunks,
    write_token_file,
)
from .errors import PipelineError
from .fileio import atomic_write_text, read_rows

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
    """The (en_dc, relation) of `token` if it is a fused connective: it
    splits at its last '-' into a surface whose lowercased tokens are a form
    of `src_forms` and a label of `relations`. Every other token, such as an
    untagged connective or "so-called", is a plain word and gives None."""
    parsed = split_fused_token(token)
    if parsed is None or parsed[1] not in relations:
        return None
    surface = tuple(t.lower() for t in parsed[0])
    return (" ".join(surface), parsed[1]) if surface in src_forms else None


def check_senses(
    senses: Iterable[tuple[Form, str | None]], src_forms: Container[Form], relations: Container[str]
) -> None:
    """Check the (surface, relation) that tag would give each source form:
    the relation is set, and the token they fuse into reads back as itself
    (`fused_connective`): as that connective if the surface is a form of
    `src_forms`, else as a plain word."""
    for surface, relation in senses:
        if relation is None:
            raise no_default_sense(surface)
        form, token = tuple(t.lower() for t in surface), fuse_token(surface, relation)
        known = form in src_forms
        read = fused_connective(token, src_forms, relations)
        if read == ((" ".join(form), relation) if known else None):
            continue
        if known and relation not in relations:
            raise PipelineError(
                f"malformed fused token {token!r}: unknown relation label {relation!r}"
            )
        raise _not_read_back(token, surface)


def check_read_back(senses: Iterable[tuple[Form, str]], src_forms: Container[Form]) -> None:
    """The half of `check_senses` that needs no induced label: the token
    that each (surface, relation) of `senses` whose surface is a form of
    `src_forms` fuses into splits back into that surface and relation."""
    for surface, relation in senses:
        token = fuse_token(surface, relation)
        known = tuple(t.lower() for t in surface) in src_forms
        if known and split_fused_token(token) != (surface, relation):
            raise _not_read_back(token, surface)


def _not_read_back(token: str, surface: Form) -> PipelineError:
    return PipelineError(f"fused token {token!r} does not read back as {' '.join(surface)!r}")


def connective_pairs(
    side: TokenColumns,
    src_inventory: Sequence[Form],
    relations: Sequence[str],
    occurrences: Occurrences,
):
    """The pairs that can give extract a site, ascending, as int64: those
    whose sentence of `side`, a fused source side, holds a fused connective
    of `src_inventory` and `relations` (`fused_connective`), and whose
    target side holds one of `occurrences`, the target connective
    occurrences of the same corpus. Only their links can box such a token
    with an occurrence, so align decodes them alone. Each word of the
    vocabulary is judged once, so the pairs do not depend on its order."""
    import numpy as np

    # Only a word with a separator can parse as a fused token.
    fused = [
        w
        for w, word in enumerate(side.vocab)
        if SENSE_SEPARATOR in word and fused_connective(word, src_inventory, relations)
    ]
    marked = np.zeros(len(side.vocab), bool)
    marked[fused] = True
    at = np.flatnonzero(marked[side.ids])
    held = np.zeros(len(side), bool)
    held[np.searchsorted(side.offsets, at, side="right") - 1] = True
    found = np.zeros(len(side), bool)
    found[occurrences.pair] = True
    return np.flatnonzero(held & found)


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


Record = tuple[int, int, int, int, tuple[str, ...], str | None]


class Annotations(NamedTuple):
    """The records of the stand-off file at `path`, in file order, each
    checked as far as it can be without a corpus (`_records`): (record
    number, sentence, start, end, surface, relation), the relation None for
    a non-discourse reading."""

    path: str
    records: list[Record]

    @classmethod
    def of(cls, annotations: str | Annotations) -> Annotations:
        """`annotations` itself if it is Annotations, else the file it names,
        read."""
        if isinstance(annotations, Annotations):
            return annotations
        return cls(annotations, _records(annotations))


def _check_record(
    start: int, end: int, surface: tuple[str, ...], relation: str | None, usage: bool
) -> None:
    """Check what one record says of itself: its span is well formed and as
    long as `surface`, and it carries a relation, a well-formed one,
    exactly when `usage` is set."""
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


def _records(path: str) -> list[Record]:
    """The `Annotations.records` of the stand-off file at `path`: its
    fields parsed, each record checked by `_check_record`, and no two spans
    of a sentence overlapping."""
    records: list[Record] = []
    for lineno, parts in read_rows(path, 6, "expected {width} fields at record {lineno}"):
        try:
            sid, start, end = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise PipelineError(f"{path}: non-numeric field at record {lineno}") from exc
        if parts[5] not in ("0", "1"):
            raise PipelineError(f"{path}: usage flag must be 0 or 1 at record {lineno}")
        surface, relation = tuple(parts[3].split()), parts[4] or None
        try:
            _check_record(start, end, surface, relation, parts[5] == "1")
        except PipelineError as exc:
            raise PipelineError(f"{path}: record {lineno}: {exc}") from exc
        records.append((lineno, sid, start, end, surface, relation))
    spans = sorted((record[1:4] for record in records), key=lambda span: span[:2])
    for prev, span in zip(spans, spans[1:]):
        if span[0] == prev[0] and span[1] <= prev[2]:
            raise PipelineError(
                f"{path}: overlapping spans in sentence {span[0]} "
                f"([{prev[1]}, {prev[2]}] and [{span[1]}, {span[2]}])"
            )
    return records


def annotated_senses(annotations: str | Annotations) -> list[tuple[tuple[str, ...], str]]:
    """The distinct (surface, relation) of the `annotations` records that
    carry a relation, in file order; `annotations` is a path or the
    `Annotations` read from one."""
    senses: dict[tuple[tuple[str, ...], str], None] = {}
    for *_, surface, relation in Annotations.of(annotations).records:
        if relation is not None:
            senses[surface, relation] = None
    return list(senses)


def load_annotations(annotations: str | Annotations, sentences: Sentences) -> Tags:
    """The `Tags` of stand-off annotations, `annotations` a path or the
    `Annotations` read from one, each record's span checked against its
    sentence of `sentences`."""
    annotations = Annotations.of(annotations)
    path = annotations.path
    rows: list[tuple[int, int, int, str | None]] = []
    for lineno, sid, start, end, surface, relation in annotations.records:
        if not 0 <= sid < len(sentences):
            raise PipelineError(f"{path}: unknown sentence id {sid} at record {lineno}")
        tokens, where = sentences[sid], f"{path}: record {lineno}: sentence {sid}:"
        if end >= len(tokens):
            raise PipelineError(
                f"{where} span [{start}, {end}] out of bounds (length {len(tokens)})"
            )
        actual = tuple(t.lower() for t in tokens[start : end + 1])
        expected = tuple(t.lower() for t in surface)
        if actual != expected:
            raise PipelineError(
                f"{where} tokens {actual!r} at [{start}, {end}] do not match annotated surface "
                f"{expected!r}"
            )
        rows.append((sid, start, end, relation))
    rows.sort(key=lambda row: row[:2])
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
        raise no_default_sense(found.forms[found.form[relation.index(None)]])
    return Tags(found.pair, found.start, found.start + found.lengths() - 1, relation)


def no_default_sense(form: Form) -> PipelineError:
    """The error for source connective `form`, which has no default sense."""
    return PipelineError(f"no default sense for connective {' '.join(form)!r}")


def write_fused_corpus(sentences: Sentences, path: str) -> None:
    write_token_file(sentences, path)
