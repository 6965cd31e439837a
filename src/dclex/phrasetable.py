"""Consistent phrase pairs and the connective rows counted from them.

A phrase pair is any box (contiguous source span, contiguous target span)
that contains at least one alignment link and no link crossing its boundary
on either side; boxes may extend over unaligned boundary words. The phrase
table holds only the connective rows: target connective occurrences, found
as the corpus frequencies find them, paired with one fused source token.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Sequence

from .alignment import Alignment, Links
from .corpus import build_match_table, scan_matches
from .errors import PipelineError
from .fileio import atomic_write_text, read_text_strict
from .inventory import Connective
from .parallel import process_chunks
from .tagging import split_fused_token

Phrase = tuple[str, ...]


@dataclass(frozen=True)
class PhraseTableEntry:
    src_phrase: Phrase
    tgt_phrase: Phrase
    count: int


@dataclass(frozen=True)
class PhraseTable:
    """Connective rows sorted by (src_phrase, tgt_phrase), and the number of
    target connective occurrences scanned to find them."""

    entries: tuple[PhraseTableEntry, ...]
    occurrences: int

    def __iter__(self) -> Iterator[PhraseTableEntry]:
        return iter(self.entries)


@dataclass(frozen=True)
class DCAlignmentRecord:
    """A (target connective, source connective, relation) co-occurrence count."""

    fr_dc: str
    en_dc: str
    relation: str
    count: int


def extract_phrase_pairs(
    src_tokens: Sequence[str],
    tgt_tokens: Sequence[str],
    alignment: Alignment,
    max_len: int = 7,
) -> list[tuple[Phrase, Phrase]]:
    """Enumerate all consistent phrase pairs up to `max_len` tokens per side.

    For each source span the aligned target words are projected to a minimal
    target span; if no link leaks out of the box it is emitted along with
    every extension over unaligned target boundary words. Source-side
    extensions arise from enumerating all source spans. Each box is emitted
    once; identical token phrases from distinct boxes are kept.
    """
    if max_len < 1:
        raise PipelineError(f"max_len must be >= 1, got {max_len}")
    n, m = len(src_tokens), len(tgt_tokens)
    links = sorted(alignment.links)
    for i, j in links:
        if not (0 <= i < n and 0 <= j < m):
            raise PipelineError(f"alignment link {i}-{j} out of bounds for {n}x{m} pair")
    if not links:
        return []

    tgt_of_src: list[list[int]] = [[] for _ in range(n)]
    src_of_tgt: list[list[int]] = [[] for _ in range(m)]
    for i, j in links:
        tgt_of_src[i].append(j)
        src_of_tgt[j].append(i)
    tgt_aligned = [bool(src_of_tgt[j]) for j in range(m)]

    out: list[tuple[Phrase, Phrase]] = []
    for i1 in range(n):
        jlo, jhi = m, -1
        for i2 in range(i1, min(i1 + max_len, n)):
            for j in tgt_of_src[i2]:
                jlo = min(jlo, j)
                jhi = max(jhi, j)
            if jhi < 0:
                continue  # no link yet; a wider span may pick one up
            if jhi - jlo + 1 > max_len:
                break  # projection only widens with i2
            consistent = True
            for j in range(jlo, jhi + 1):
                if any(i < i1 or i > i2 for i in src_of_tgt[j]):
                    consistent = False
                    break
            if not consistent:
                continue
            src_phrase = tuple(src_tokens[i1 : i2 + 1])
            js = jlo
            while True:
                je = jhi
                while je < m and je - js + 1 <= max_len:
                    out.append((src_phrase, tuple(tgt_tokens[js : je + 1])))
                    je += 1
                    if je >= m or tgt_aligned[je]:
                        break
                js -= 1
                if js < 0 or tgt_aligned[js] or jhi - js + 1 > max_len:
                    break
    return out


def connective_occurrences(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    links: Links,
    tgt_inventory: Sequence[Connective],
    src_inventory: Sequence[Connective],
    relations: Sequence[str],
    max_len: int = 7,
) -> Iterator[tuple[int, int, Phrase, int | None, tuple[str, str] | None]]:
    """Yield (pair, start, form, source, dc) for each longest-match occurrence
    of a target form, pair by pair, scanning the lowercased target as the
    corpus counts do. This is the one place that decides which fused source
    token, if any, an occurrence counts for.

    `source` is the one source token whose one-token box is consistent with
    exactly the occurrence span: every link into the span comes from it and
    all of its links lie inside. It is None when no token qualifies or the
    form is longer than `max_len`. `dc` is the (en_dc, relation) that
    `fused_connective` reads off that token, or None. The links of a pair
    are read only when its target has an occurrence; `check_links` must
    have passed.
    """
    if max_len < 1:
        raise PipelineError(f"max_len must be >= 1, got {max_len}")
    forms = build_match_table(c.surface for c in tgt_inventory)
    src_forms = {c.surface for c in src_inventory}
    known_relations = set(relations)
    for k, (src_tokens, tgt_tokens) in enumerate(pairs):
        matches = list(scan_matches(tuple(t.lower() for t in tgt_tokens), forms))
        if not matches:
            continue
        sources_of: dict[int, set[int]] = {}
        targets_of: dict[int, list[int]] = {}
        for i, j in links.pair(k):
            sources_of.setdefault(j, set()).add(i)
            targets_of.setdefault(i, []).append(j)
        for start, form in matches:
            end = start + len(form) - 1
            linked = {i for j in range(start, end + 1) for i in sources_of.get(j, ())}
            consistent = len(form) <= max_len and len(linked) == 1 and all(
                start <= j <= end for i in linked for j in targets_of[i]
            )
            source = min(linked) if consistent else None
            dc = None if source is None else fused_connective(
                src_tokens[source], src_forms, known_relations
            )
            yield k, start, form, source, dc


def check_links(pairs: Sequence[tuple[Sequence[str], Sequence[str]]], links: Links) -> None:
    """Fail unless `links` has one entry per pair and every link lies in its
    pair, whether or not a scan would read it."""
    if len(pairs) != len(links):
        raise PipelineError(
            f"corpus and alignments must be parallel: {len(pairs)} vs {len(links)} pairs"
        )
    links.check_bounds([len(src) for src, _ in pairs], [len(tgt) for _, tgt in pairs])


def build_phrase_table(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    links: Links,
    tgt_inventory: Sequence[Connective],
    src_inventory: Sequence[Connective],
    relations: Sequence[str],
    max_len: int = 7,
    threads: int = 1,
) -> PhraseTable:
    """Count, over all target connective occurrences, the fused source token
    each one counts for (see `connective_occurrences`). Where no inventory
    forms nest or overlap, these are the `extract_phrase_pairs` rows with one
    fused source token and an inventory form on the target side, less those
    whose token `fused_connective` rejects."""
    check_links(pairs, links)

    def count_chunk(chunk: range) -> tuple[Counter, int]:
        rows: Counter = Counter()
        occurrences = 0
        lo, hi = chunk.start, chunk.stop
        for k, _, form, i, dc in connective_occurrences(
            pairs[lo:hi], links[lo:hi], tgt_inventory, src_inventory, relations, max_len
        ):
            occurrences += 1
            if dc is not None:
                rows[((pairs[lo + k][0][i],), form)] += 1
        return rows, occurrences

    totals: Counter = Counter()
    occurrences = 0
    for rows, count in process_chunks(count_chunk, range(len(pairs)), threads):
        totals.update(rows)
        occurrences += count
    rows = tuple(PhraseTableEntry(src, tgt, totals[(src, tgt)]) for src, tgt in sorted(totals))
    return PhraseTable(rows, occurrences)


def fused_connective(
    token: str, src_forms: Container[Phrase], relations: Container[str]
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


def filter_dc_entries(
    table: Iterable[PhraseTableEntry],
    src_inventory: Sequence[Connective],
    relations: Sequence[str],
) -> list[DCAlignmentRecord]:
    """Turn connective rows into records, keeping the fused source tokens
    that `fused_connective` accepts."""
    src_forms = {c.surface for c in src_inventory}
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
