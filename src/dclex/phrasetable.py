"""Consistent phrase pairs and the connective rows counted from them.

A phrase pair is any box (contiguous source span, contiguous target span)
that contains at least one alignment link and no link crossing its boundary
on either side; boxes may extend over unaligned boundary words. The phrase
table holds only the connective rows: target connective occurrences, found
as the corpus frequencies find them, paired with one fused source token.
Each counted occurrence is a site; `sites.tsv` lists them, and the phrase
table and the connective records are their aggregates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

# `process_chunks` is bound here only for the benchmark's tracer to wrap;
# the scans run their chunks through `corpus.process_chunks`.
from .corpus import Bitext, Form, Occurrences, find_occurrences, process_chunks
from .errors import PipelineError
from .fileio import atomic_write_text, read_text_strict
from .tagging import fused_connective

if TYPE_CHECKING:  # annotations only: building a lexicon need not load the aligner
    from .alignment import Links

# (pair index, fused source token, target start, target end), ends inclusive
Site = tuple[int, int, int, int]


@dataclass(frozen=True)
class PhraseTableEntry:
    src_phrase: Form
    tgt_phrase: Form
    count: int


@dataclass(frozen=True)
class PhraseTable:
    """Connective rows sorted by (src_phrase, tgt_phrase), the number of
    target connective occurrences scanned to find them, and the sites the
    rows count, in corpus order."""

    entries: tuple[PhraseTableEntry, ...]
    occurrences: int
    sites: tuple[Site, ...]

    def __iter__(self) -> Iterator[PhraseTableEntry]:
        return iter(self.entries)


@dataclass(frozen=True)
class DCAlignmentRecord:
    """A (target connective, source connective, relation) co-occurrence count."""

    fr_dc: str
    en_dc: str
    relation: str
    count: int


def connective_occurrences(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    links: Links,
    tgt_inventory: Sequence[Form],
    src_inventory: Sequence[Form],
    relations: Sequence[str],
    max_len: int = 7,
    occurrences: Occurrences | None = None,
) -> Iterator[tuple[int, int, Form, int | None, tuple[str, str] | None]]:
    """Yield (pair, start, form, source, dc) for each longest-match occurrence
    of a target form, in corpus order, found as the corpus counts find them:
    `occurrences` when given (`count_occurrences` of `tgt_inventory` on the
    target side of `pairs`), else scanned here. This is the one place that
    decides which fused source token, if any, an occurrence counts for.

    `source` is the one source token whose one-token box is consistent with
    exactly the occurrence span: every link into the span comes from it and
    all of its links lie inside. It is None when no token qualifies or the
    form is longer than `max_len`. `dc` is the (en_dc, relation) that
    `fused_connective` reads off that token, or None. `check_links` must
    have passed.
    """
    if max_len < 1:
        raise PipelineError(f"max_len must be >= 1, got {max_len}")
    pairs = Bitext.of(pairs)
    found = occurrences if occurrences is not None else find_occurrences(pairs.tgt, tgt_inventory)
    if not len(found):
        return
    src = pairs.src
    sources = _box_sources(links, found, max_len)
    boxed = sources >= 0
    words = sources.copy()
    words[boxed] = src.ids[src.offsets[found.pair[boxed]] + sources[boxed]]
    src_forms = set(src_inventory)
    known_relations = set(relations)
    dcs: dict[int, tuple[str, str] | None] = {}
    for (k, start, form), source, word in zip(found, sources.tolist(), words.tolist()):
        if source < 0:
            yield k, start, form, None, None
            continue
        if word not in dcs:
            dcs[word] = fused_connective(src.vocab[word], src_forms, known_relations)
        yield k, start, form, source, dcs[word]


def _box_sources(links: Links, found: Occurrences, max_len: int):
    """The source token of each occurrence, or -1, in one pass over the
    link columns (see `connective_occurrences`)."""
    import numpy as np

    if not links.total:
        return np.full(len(found), -1, np.int64)
    pair, start, length = found.pair, found.start, found.lengths()
    # Key (pair, target position) as one integer, in corpus order.
    width = max(int(links.tgt.max()), int((start + length).max())) + 1
    first = pair * width + start
    link_pair = links.pair_index()
    at = link_pair * width + links.tgt
    # The occurrence each link's target falls in, or -1.
    occ = np.searchsorted(first, at, side="right") - 1
    occ[(occ < 0) | (at >= first[occ] + length[occ])] = -1
    # The least and greatest source linked into each occurrence.
    inside = occ >= 0
    lo = np.full(len(found), np.iinfo(np.int32).max, np.int64)
    hi = np.full(len(found), -1, np.int64)
    np.minimum.at(lo, occ[inside], links.src[inside])
    np.maximum.at(hi, occ[inside], links.src[inside])
    # Links come sorted by (pair, src): each source token's links are one
    # run, and the run is held by an occurrence when all of it falls there.
    runs = np.flatnonzero(
        np.r_[True, (link_pair[1:] != link_pair[:-1]) | (links.src[1:] != links.src[:-1])]
    )
    run_lo, run_hi = np.minimum.reduceat(occ, runs), np.maximum.reduceat(occ, runs)
    held = np.zeros(len(found), bool)
    held[run_lo[(run_lo == run_hi) & (run_lo >= 0)]] = True
    ok = held & (lo == hi) & (length <= max_len)
    return np.where(ok, hi, -1)


def check_links(pairs: Sequence[tuple[Sequence[str], Sequence[str]]], links: Links) -> None:
    """Fail unless `links` has one entry per pair and every link lies in its
    pair, whether or not a scan would read it."""
    if len(pairs) != len(links):
        raise PipelineError(
            f"corpus and alignments must be parallel: {len(pairs)} vs {len(links)} pairs"
        )
    pairs = Bitext.of(pairs)
    links.check_bounds(pairs.src.lengths(), pairs.tgt.lengths())


def build_phrase_table(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    links: Links,
    tgt_inventory: Sequence[Form],
    src_inventory: Sequence[Form],
    relations: Sequence[str],
    max_len: int = 7,
    occurrences: Occurrences | None = None,
) -> PhraseTable:
    """Count, over all target connective occurrences, the fused source token
    each one counts for (see `connective_occurrences`, which `occurrences`
    is passed to). Where no inventory forms nest or overlap, these are the
    consistent phrase pairs with one fused source token and an inventory
    form on the target side, less those whose token `fused_connective`
    rejects. The sites are the occurrences those rows count."""
    import numpy as np

    pairs = Bitext.of(pairs)
    check_links(pairs, links)
    sites: list[Site] = []
    forms: list[Form] = []
    count = 0
    for k, start, form, i, dc in connective_occurrences(
        pairs, links, tgt_inventory, src_inventory, relations, max_len, occurrences
    ):
        count += 1
        if dc is not None:
            sites.append((k, i, start, start + len(form) - 1))
            forms.append(form)
    rows: Counter = Counter()
    if sites:
        src = pairs.src
        at = np.array(sites, np.int64)
        words = src.ids[src.offsets[at[:, 0]] + at[:, 1]].tolist()
        rows.update(zip([(src.vocab[w],) for w in words], forms))
    entries = tuple(PhraseTableEntry(src, tgt, rows[(src, tgt)]) for src, tgt in sorted(rows))
    return PhraseTable(entries, count, tuple(sites))


def filter_dc_entries(
    table: Iterable[PhraseTableEntry],
    src_inventory: Sequence[Form],
    relations: Sequence[str],
) -> list[DCAlignmentRecord]:
    """Turn connective rows into records, keeping the fused source tokens
    that `fused_connective` accepts."""
    src_forms = set(src_inventory)
    known_relations = set(relations)
    counts: dict[tuple[str, str, str], int] = {}
    for entry in table:
        dc = fused_connective(entry.src_phrase[0], src_forms, known_relations)
        if dc is None:
            continue
        key = (" ".join(entry.tgt_phrase).lower(), *dc)
        counts[key] = counts.get(key, 0) + entry.count
    return [
        DCAlignmentRecord(fr_dc, en_dc, relation, counts[(fr_dc, en_dc, relation)])
        for fr_dc, en_dc, relation in sorted(counts)
    ]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_phrase_table(table: Iterable[PhraseTableEntry], path: str) -> None:
    """Export `src ||| tgt ||| count` in table order."""
    lines = [
        f"{' '.join(e.src_phrase)} ||| {' '.join(e.tgt_phrase)} ||| {e.count}\n"
        for e in table
    ]
    atomic_write_text(path, "".join(lines))


def write_sites(sites: Iterable[Site], path: str) -> None:
    """Export `pair<TAB>source<TAB>target start<TAB>target end`, one counted
    occurrence per line, in corpus order."""
    atomic_write_text(path, "".join(f"{k}\t{i}\t{start}\t{end}\n" for k, i, start, end in sites))


def read_sites(path: str) -> list[Site]:
    """Reload `write_sites` output; every line must hold four integers."""
    sites: list[Site] = []
    for lineno, line in enumerate(read_text_strict(path).splitlines(), start=1):
        parts = line.split("\t")
        try:
            if len(parts) != 4:
                raise ValueError
            k, i, start, end = map(int, parts)
        except ValueError as exc:
            raise PipelineError(f"{path}: expected 4 integers at line {lineno}") from exc
        sites.append((k, i, start, end))
    return sites


def write_dc_records(records: Sequence[DCAlignmentRecord], path: str) -> None:
    lines = [f"{r.fr_dc}\t{r.en_dc}\t{r.relation}\t{r.count}\n" for r in records]
    atomic_write_text(path, "".join(lines))


def read_dc_records(path: str) -> list[DCAlignmentRecord]:
    records = []
    for lineno, line in enumerate(read_text_strict(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise PipelineError(f"{path}: expected 4 fields at line {lineno}")
        try:
            records.append(DCAlignmentRecord(parts[0], parts[1], parts[2], int(parts[3])))
        except ValueError as exc:
            raise PipelineError(f"{path}: bad count at line {lineno}") from exc
    return records
