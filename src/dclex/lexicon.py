"""Ranked connective-relation lexicon and evidence sampling.

Each lexicon entry scores a (target connective, relation) pair by
aligned_count / corpus_freq, computed in exact integer arithmetic. Counts
are summed across source connectives: the evidence that `en_dc` signalled
the relation transfers to whatever target phrase it aligned to.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .corpus import Bitext, Corpus, Form, FrequencyTable
from .errors import PipelineError
from .fileio import atomic_write_text, read_rows
from .phrasetable import DCAlignmentRecord, Site
from .tagging import fused_connective


class LexiconEntry(NamedTuple):
    fr_dc: str
    relation: str
    prob: Fraction
    aligned_count: int
    corpus_freq: int


class RankedLexicon(NamedTuple):
    """Entries sorted by descending prob, then descending aligned_count,
    then (fr_dc, relation)."""

    entries: tuple[LexiconEntry, ...]


def build_lexicon(
    records: Sequence[DCAlignmentRecord],
    freqs: FrequencyTable,
    min_freq: int = 50,
) -> RankedLexicon:
    """Aggregate alignment records into a ranked lexicon.

    Connectives occurring fewer than `min_freq` times are dropped. Extraction
    counts each corpus occurrence at most once, so a connective whose aligned
    counts exceed its frequency means the records and the frequencies come
    from different runs; that is fatal.
    """
    if min_freq < 0:
        raise PipelineError(f"min_freq must be >= 0, got {min_freq}")
    by_dc: dict[str, dict[str, int]] = {}
    for record in records:
        if record.count < 0:
            raise PipelineError(f"negative count in record {record!r}")
        rels = by_dc.setdefault(record.fr_dc, {})
        rels[record.relation] = rels.get(record.relation, 0) + record.count

    entries: list[LexiconEntry] = []
    for fr_dc in sorted(by_dc):
        freq = freqs.count(fr_dc)
        total = sum(by_dc[fr_dc].values())
        if total > freq:
            raise PipelineError(
                f"{fr_dc!r} has {total} aligned occurrences but corpus frequency {freq}: "
                "alignment records and frequencies come from different runs"
            )
        if freq < min_freq:
            continue
        for relation, count in by_dc[fr_dc].items():
            if count >= 1:
                entries.append(LexiconEntry(fr_dc, relation, Fraction(count, freq), count, freq))
    entries.sort(key=lambda e: (-e.prob, -e.aligned_count, e.fr_dc, e.relation))
    return RankedLexicon(tuple(entries))


def write_ranked_lexicon(lexicon: RankedLexicon, path: str) -> None:
    """Export `fr_dc<TAB>relation<TAB>prob<TAB>aligned_count<TAB>corpus_freq`
    in rank order; prob rendered with six decimals."""
    lines = [
        f"{e.fr_dc}\t{e.relation}\t{float(e.prob):.6f}\t{e.aligned_count}\t{e.corpus_freq}\n"
        for e in lexicon.entries
    ]
    atomic_write_text(path, "".join(lines))


def read_ranked_lexicon(path: str) -> RankedLexicon:
    """Reload an exported lexicon; probabilities are rebuilt exactly from the
    integer columns rather than the rendered decimals."""
    entries = []
    for lineno, parts in read_rows(path, 5):
        try:
            aligned, freq = int(parts[3]), int(parts[4])
        except ValueError as exc:
            raise PipelineError(f"{path}: bad counts at line {lineno}") from exc
        if freq <= 0 or aligned < 0:
            raise PipelineError(f"{path}: invalid counts at line {lineno}")
        entries.append(LexiconEntry(parts[0], parts[1], Fraction(aligned, freq), aligned, freq))
    return RankedLexicon(tuple(entries))


# ---------------------------------------------------------------------------
# Evidence sampling
# ---------------------------------------------------------------------------


class EvidenceExcerpt(NamedTuple):
    """Pair `pair_id` (line `pair_id` of the token files, 0-based) with both
    connectives highlighted as __span__."""

    pair_id: int
    src_text: str
    tgt_text: str


def _highlight(tokens: Sequence[str], start: int, end: int) -> str:
    parts = list(tokens[:start])
    parts.append("__" + " ".join(tokens[start : end + 1]) + "__")
    parts.extend(tokens[end + 1 :])
    return " ".join(parts)


def group_sites(
    corpus: Bitext,
    sites: Iterable[Site],
    tgt_inventory: Sequence[Form],
    src_inventory: Sequence[Form],
    relations: Sequence[str],
) -> dict[tuple[str, str], list[Site]]:
    """Group counted sites, given in corpus order, by the (fr_dc, relation)
    their tokens spell; the first site of a key in a pair is its site.

    A site out of corpus order, outside its pair, over a span that is no
    target inventory form or on a source token that `fused_connective`
    rejects cannot have been counted on this corpus, and is fatal; errors
    name the site by its 1-based row.
    """
    forms = set(tgt_inventory)
    dcs: dict[str, tuple[str, str] | None] = {}
    grouped: dict[tuple[str, str], list[Site]] = {}
    n = len(corpus)
    last = (-1, -1)
    for row, site in enumerate(sites, start=1):
        index, i, start, end = site
        if (index, start) <= last:
            raise PipelineError(f"site {row}: not in corpus order")
        last = (index, start)
        if not 0 <= index < n:
            raise PipelineError(f"site {row}: no pair {index} in a corpus of {n}")
        src, tgt = corpus[index]  # one pair at a time: the sites may name most pairs
        if not (0 <= i < len(src) and 0 <= start <= end < len(tgt)):
            raise PipelineError(
                f"site {row}: {i} / {start}-{end} out of bounds "
                f"for {len(src)}x{len(tgt)} pair {index}"
            )
        form = tuple(map(str.lower, tgt[start : end + 1]))
        if form not in forms:
            raise PipelineError(f"site {row}: {' '.join(form)!r} is no target inventory form")
        if src[i] not in dcs:
            dcs[src[i]] = fused_connective(src[i], src_inventory, relations)
        dc = dcs[src[i]]
        if dc is None:
            raise PipelineError(f"site {row}: {src[i]!r} is no fused source connective")
        found = grouped.setdefault((" ".join(form), dc[1]), [])
        if not found or found[-1][0] != index:
            found.append(site)
    return grouped


def sample_evidence(
    corpus: Corpus, sites: Sequence[Site], k: int, seed: int
) -> list[EvidenceExcerpt]:
    """Sample up to `k` of one entry's sites and highlight both connectives.

    Sampling is uniform without replacement and fully determined by `seed`;
    fewer than `k` sites means all of them are returned.
    """
    if k < 1:
        raise PipelineError(f"sample size must be >= 1, got {k}")
    chosen = list(sites) if len(sites) <= k else random.Random(seed).sample(sites, k)
    excerpts = []
    for index, i, start, end in chosen:
        src, tgt = corpus.pairs[index]
        excerpts.append(EvidenceExcerpt(index, _highlight(src, i, i), _highlight(tgt, start, end)))
    return excerpts


def format_evidence(
    fr_dc: str, relation: str, excerpts: Sequence[EvidenceExcerpt]
) -> str:
    """Render excerpts as text blocks with FR:/EN: lines (target, source)."""
    blocks = []
    for ex in excerpts:
        blocks.append(
            f"# {fr_dc}\t{relation}\tpair {ex.pair_id}\n"
            f"FR: {ex.tgt_text}\n"
            f"EN: {ex.src_text}\n"
        )
    return "\n".join(blocks)
