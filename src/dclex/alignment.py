"""Word alignment: IBM Model 1 (optionally Model 2), Viterbi, symmetrization,
and the `i-j` link file format.

Training is plain EM over a sparse lexical table t(f|e); Model 2 adds a
positional table q(i|j,l,m). Both models run one numpy kernel over interned
sentence pairs. Each co-occurring (e, f) gets an integer slot, numbered in
order of first appearance, and each pair contributes its cells, one per
target position and source candidate, to one flat array of slots. The
E-step runs in fixed-size chunks and returns each chunk's cell posteriors;
the M-step adds them into the counts in corpus order. Every sum that feeds
t, q or the log-likelihood is a running sum in a fixed order (`bincount`
and `add.at` add their inputs one by one, from 0.0), never a pairwise or
vectorized reduction, so results are bit-identical for any worker count and
equal, float for float, to adding them up in a Python loop. A NULL source
token (virtual index -1) absorbs target words with no counterpart; Viterbi
links decoded to NULL are dropped.

The links of a corpus travel as one `Links`: per-pair offsets into int32
source and target columns. Viterbi decoding, `transpose`, `symmetrize`,
`write_alignments` and `read_alignments` all work on the columns, so no
Python object is made per link. Only the scans that read the links of a
pair with a connective occurrence (phrasetable) turn them into tuples. This
module is the only one that knows the text format. The per-pair `Alignment`
and decoders (`viterbi_align`, `viterbi_align_model2`) are the reference
definitions that the columnar path is tested against.

numpy is imported when training or link handling starts, not with this
module, so loading the CLI does not pay for it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import PipelineError
from .fileio import atomic_write_text
from .parallel import CHUNK_SIZE, process_chunks

NULL_TOKEN = "<NULL>"
PROB_FLOOR = 1e-12

SentenceTokens = Sequence[str]
TokenPair = tuple[SentenceTokens, SentenceTokens]

HEURISTICS = ("intersection", "union", "grow-diag-final")


@dataclass(frozen=True, slots=True)
class Alignment:
    """Link set for one sentence pair, as (src_index, tgt_index) pairs."""

    links: frozenset[tuple[int, int]]


class Links:
    """The word links of a corpus, pair after pair, in three arrays: pair k
    has the links (src[a], tgt[a]) for a in offsets[k]:offsets[k + 1],
    ascending by (src, tgt), each once. `offsets` is int64, `src` and `tgt`
    are int32."""

    __slots__ = ("offsets", "src", "tgt")

    def __init__(self, offsets, src, tgt) -> None:
        self.offsets, self.src, self.tgt = offsets, src, tgt

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def total(self) -> int:
        """The number of links over all pairs."""
        return int(self.offsets[-1])

    def __getitem__(self, pairs: slice) -> Links:
        """The links of a contiguous run of pairs, renumbered from 0."""
        lo, hi, step = pairs.indices(len(self))
        if step != 1:
            raise ValueError("Links slices must be contiguous")
        offsets = self.offsets[lo : max(lo, hi) + 1]
        first, last = offsets[0], offsets[-1]
        return Links(offsets - first, self.src[first:last], self.tgt[first:last])

    def pair(self, k: int) -> list[tuple[int, int]]:
        """The links of pair k as (src, tgt) tuples, ascending."""
        lo, hi = self.offsets[k], self.offsets[k + 1]
        return list(zip(self.src[lo:hi].tolist(), self.tgt[lo:hi].tolist()))

    def pair_index(self):
        """The pair of each link."""
        import numpy as np

        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def check_bounds(self, src_lengths: Sequence[int], tgt_lengths: Sequence[int]) -> None:
        """Fail on the first link outside its pair's src x tgt grid."""
        import numpy as np

        counts = np.diff(self.offsets)
        n = np.repeat(np.asarray(src_lengths, np.int64), counts)
        m = np.repeat(np.asarray(tgt_lengths, np.int64), counts)
        bad = np.flatnonzero((self.src < 0) | (self.src >= n) | (self.tgt < 0) | (self.tgt >= m))
        if len(bad):
            a = bad[0]
            pair = np.searchsorted(self.offsets, a, side="right") - 1
            raise PipelineError(
                f"alignment link {self.src[a]}-{self.tgt[a]} out of bounds "
                f"for {n[a]}x{m[a]} pair {pair}"
            )

    @classmethod
    def of(cls, link_sets: Iterable[Iterable[tuple[int, int]]]) -> Links:
        """Links from one collection of (src, tgt) links per pair."""
        import numpy as np

        sets = [list(links) for links in link_sets]
        pair = np.repeat(np.arange(len(sets)), np.array([len(links) for links in sets], np.int64))
        cells = np.array([cell for links in sets for cell in links], np.int64).reshape(-1, 2)
        return _collect(pair, cells[:, 0], cells[:, 1], len(sets))

    @classmethod
    def concat(cls, parts: Iterable[Links]) -> Links:
        """The pairs of `parts`, one run after the other."""
        import numpy as np

        offsets = [np.zeros(1, np.int64)]
        src, tgt = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
        for part in parts:
            offsets.append(part.offsets[1:] + offsets[-1][-1])
            src.append(part.src)
            tgt.append(part.tgt)
        return cls(np.concatenate(offsets), np.concatenate(src), np.concatenate(tgt))


def _collect(pair, src, tgt, n_pairs: int) -> Links:
    """Links of `n_pairs` pairs from per-link pair, src and tgt columns in
    any order; repeated links count once."""
    import numpy as np

    order = np.lexsort((tgt, src, pair))
    pair, src, tgt = pair[order], src[order], tgt[order]
    fresh = np.ones(len(pair), bool)
    fresh[1:] = (pair[1:] != pair[:-1]) | (src[1:] != src[:-1]) | (tgt[1:] != tgt[:-1])
    if not fresh.all():
        pair, src, tgt = pair[fresh], src[fresh], tgt[fresh]
    return _sorted_links(pair, src, tgt, n_pairs)


def _sorted_links(pair, src, tgt, n_pairs: int) -> Links:
    """Links of `n_pairs` pairs from columns already in Links order."""
    import numpy as np

    offsets = np.zeros(n_pairs + 1, np.int64)
    np.cumsum(np.bincount(pair, minlength=n_pairs), out=offsets[1:])
    return Links(offsets, src.astype(np.int32, copy=False), tgt.astype(np.int32, copy=False))


def _spans(starts, lengths):
    """The ranges [start, start + length), concatenated in order."""
    import numpy as np

    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1])


class _Slots:
    """Integer slots for int64 keys, numbered in order of first appearance
    over the chunks fed to `number`."""

    def __init__(self) -> None:
        import numpy as np

        self.known = np.empty(0, np.int64)  # keys that have a slot, sorted
        self.known_slots = np.empty(0, np.int32)
        self.new_keys: list = []  # keys of the slots, in slot order, per chunk
        self.count = 0

    def number(self, keys):
        """The slot of each key; keys not seen before get the next slots."""
        import numpy as np

        uniq, inverse = np.unique(keys, return_inverse=True)
        first = np.full(len(uniq), len(keys))
        np.minimum.at(first, inverse, np.arange(len(keys)))
        at = np.searchsorted(self.known, uniq)
        seen = at < len(self.known)
        seen[seen] = self.known[at[seen]] == uniq[seen]
        slots = np.empty(len(uniq), np.int32)
        slots[seen] = self.known_slots[at[seen]]
        fresh = ~seen
        # New keys take the next slots in the order of their first occurrence.
        is_new = np.zeros(len(keys), bool)
        is_new[first[fresh]] = True
        slots[fresh] = self.count + np.cumsum(is_new)[first[fresh]] - 1
        self.new_keys.append(keys[is_new])
        self.count += len(self.new_keys[-1])
        self.known = np.insert(self.known, at[fresh], uniq[fresh])
        self.known_slots = np.insert(self.known_slots, at[fresh], slots[fresh])
        return slots[inverse]

    def keys(self):
        import numpy as np

        return np.concatenate(self.new_keys)


class _Table:
    """Probabilities over slots. Each slot belongs to one row; the table
    starts uniform over each row's slots, and the M-step renormalizes rows."""

    def __init__(self, row_of, n_rows: int) -> None:
        import numpy as np

        self.row_of = row_of
        self.n_rows = n_rows
        self.values = 1.0 / np.bincount(row_of, minlength=n_rows)[row_of]

    def m_step(self, counts) -> None:
        """Divide each slot's count by its row's total, the counts of the
        row's slots added up in slot order."""
        import numpy as np

        totals = np.bincount(self.row_of, weights=counts, minlength=self.n_rows)
        self.values = counts / totals[self.row_of]


def _intern(sentences: Iterable[SentenceTokens], first: tuple[str, ...] = ()):
    """The distinct words of `first` and then `sentences`, in order of first
    appearance, and the number of each token of `sentences`."""
    import numpy as np

    tokens = list(chain.from_iterable(sentences))
    words = list(dict.fromkeys(chain(first, tokens)))
    ids = dict(zip(words, range(len(words))))
    return words, np.fromiter(map(ids.__getitem__, tokens), np.int64, len(tokens))


class _Chunk(NamedTuple):
    """Up to CHUNK_SIZE consecutive pairs: their cells and their target rows."""

    cells: slice
    rows: slice


class _Fit:
    """EM state of one alignment direction over its interned training pairs.

    The rows of t are source words (NULL first, when used); the rows of q
    are (l, m, j) and its slots the candidates NULL, 0, ..., l - 1. Cells run
    pair after pair, target-major: a pair with n candidates (source words
    plus NULL) and m target words has m rows of n cells. Per cell, `cells`
    holds its t slot and `q_cells` its q slot (Model 2); `widths` holds each
    row's number of cells. int32 keeps them small."""

    def __init__(self, pairs: Sequence[TokenPair], use_null: bool, positional: bool) -> None:
        import numpy as np

        ls = np.array([len(src) for src, _ in pairs], np.int64)
        ms = np.array([len(tgt) for _, tgt in pairs], np.int64)
        empty = np.flatnonzero((ls == 0) | (ms == 0))
        if len(empty):
            raise PipelineError(f"empty sentence in training pair {empty[0]}")

        self.use_null = use_null
        null = 1 if use_null else 0
        self.e_words, src_ids = _intern((src for src, _ in pairs), (NULL_TOKEN,) if use_null else ())
        self.f_words, tgt_ids = _intern(tgt for _, tgt in pairs)
        nf = len(self.f_words)

        ns = ls + null
        sizes = ns * ms
        self.n, self.m = ns.astype(np.int32), ms.astype(np.int32)
        self.widths = np.repeat(self.n, ms)
        # math.log(n) for n = 0, 1, ...: Model 1's log of its alignment prior 1/n.
        self.log_n = np.array([-math.inf, *map(math.log, range(1, int(ns.max()) + 1))])
        cell_at = np.append(0, np.cumsum(sizes))
        row_at = np.append(0, np.cumsum(ms))
        src_at = np.append(0, np.cumsum(ls))
        self.first_cell = cell_at[:-1]
        bounds = [*range(0, len(pairs), CHUNK_SIZE), len(pairs)]
        self.chunks = [
            _Chunk(slice(cell_at[lo], cell_at[hi]), slice(row_at[lo], row_at[hi]))
            for lo, hi in zip(bounds, bounds[1:])
        ]

        self.shapes: list[tuple[int, int]] = []
        self.q = None
        if positional:
            # One block of q slots per (l, m), in order of first appearance; a
            # pair's cells take the slots of its block in order.
            blocks = _Slots()
            span = int(ms.max()) + 1
            block_of = blocks.number(ls * span + ms)
            block_l, block_m = np.divmod(blocks.keys(), span)
            self.shapes = list(zip(block_l.tolist(), block_m.tolist()))
            block_sizes = (block_l + null) * block_m
            q_at = (np.cumsum(block_sizes) - block_sizes)[block_of]
            q_widths = np.repeat(block_l + null, block_m)
            q_rows = len(q_widths)
            self.q = _Table(np.repeat(np.arange(q_rows, dtype=np.int32), q_widths), q_rows)
            self.q_cells = np.empty(cell_at[-1], np.int32)

        # Chunk by chunk, so that no temporary grows with the corpus: the key
        # e * nf + f of each cell, then its slot.
        self.cells = np.empty(cell_at[-1], np.int32)
        slots = _Slots()
        for lo, hi, chunk in zip(bounds, bounds[1:], self.chunks):
            n = ns[lo:hi]
            # Candidates of each pair: NULL (word 0) first when used, then its source words.
            cand_at = np.cumsum(n) - n
            cand = np.zeros(cand_at[-1] + n[-1], np.int64)
            cand[_spans(cand_at + null, ls[lo:hi])] = src_ids[src_at[lo] : src_at[hi]]
            widths = self.widths[chunk.rows]
            keys = cand[_spans(np.repeat(cand_at, ms[lo:hi]), widths)] * nf
            keys += np.repeat(tgt_ids[chunk.rows], widths)
            self.cells[chunk.cells] = slots.number(keys)
            if positional:
                self.q_cells[chunk.cells] = _spans(q_at[lo:hi], sizes[lo:hi])
        slot_keys = slots.keys()
        del slots
        self.t = _Table((slot_keys // nf).astype(np.int32), len(self.e_words))
        self.t_cols = (slot_keys % nf).astype(np.int32)
        self.history: list[float] = []

    def train(self, iterations: int, threads: int) -> None:
        """EM iterations. The E-steps of the chunks may run in any order; their
        posteriors are added into the counts in corpus order."""
        import numpy as np

        for _ in range(iterations):
            results = process_chunks(self._estep, self.chunks, threads, chunk_size=1)
            ll = 0.0
            t_counts = np.zeros(len(self.t.values))
            q_counts = np.zeros(len(self.q.values)) if self.q is not None else None
            for chunk, (part_ll, posteriors) in zip(self.chunks, results):
                ll += part_ll
                np.add.at(t_counts, self.cells[chunk.cells], posteriors)
                if q_counts is not None:
                    np.add.at(q_counts, self.q_cells[chunk.cells], posteriors)
            del results
            self.history.append(ll)
            self.t.m_step(t_counts)
            if q_counts is not None:
                self.q.m_step(q_counts)

    def _estep(self, batch: Sequence[_Chunk]):
        """Log-likelihood and cell posteriors of one chunk, in cell order. A
        cell's posterior is its score over its row's total z; Model 1 scores
        t, Model 2 scores t * q. z and the log-likelihood are running sums."""
        import numpy as np

        (chunk,) = batch
        scores = self.t.values[self.cells[chunk.cells]]
        if self.q is not None:
            scores *= self.q.values[self.q_cells[chunk.cells]]
        widths = self.widths[chunk.rows]
        rows = np.repeat(np.arange(len(widths)), widths)
        z = np.bincount(rows, weights=scores)
        terms = np.fromiter(map(math.log, z.tolist()), np.float64, len(z))
        if self.q is None:
            # Model 1's uniform alignment prior 1/n; Model 2's is inside q.
            terms -= self.log_n[widths]
        ll = 0.0
        for term in terms.tolist():
            ll += term
        return ll, scores / z[rows]

    def decode(self, indices: Iterable[int]) -> Links:
        """Viterbi links of the training pairs at `indices`, in order: each
        target position links to its best candidate, the first on ties, with
        t and q floored at PROB_FLOOR. With NULL, candidate 0 is NULL and its
        links are dropped."""
        import numpy as np

        pairs = np.fromiter(indices, np.int64)
        if not len(pairs):
            return _collect(pairs, pairs, pairs, 0)
        ns, ms = self.n[pairs], self.m[pairs]
        cells = _spans(self.first_cell[pairs], ns * ms)
        scores = np.maximum(self.t.values[self.cells[cells]], PROB_FLOOR)
        if self.q is not None:
            scores *= np.maximum(self.q.values[self.q_cells[cells]], PROB_FLOOR)
        widths = np.repeat(ns, ms)
        starts = np.cumsum(widths) - widths
        best = np.repeat(np.maximum.reduceat(scores, starts), widths)
        candidate = np.arange(len(scores)) - np.repeat(starts, widths)
        first_best = np.minimum.reduceat(np.where(scores == best, candidate, len(scores)), starts)
        # Per row: its pair, its target position and its source; rows decoded
        # to NULL drop out.
        rows_of = np.repeat(np.arange(len(pairs)), ms)
        targets = np.arange(len(widths)) - np.repeat(np.cumsum(ms) - ms, ms)
        sources = first_best - (1 if self.use_null else 0)
        linked = sources >= 0
        return _collect(rows_of[linked], sources[linked], targets[linked], len(pairs))

    def lexical_probs(self) -> dict[str, dict[str, float]]:
        probs: dict[str, dict[str, float]] = {}
        e_words, f_words = self.e_words, self.f_words
        for e, f, p in zip(self.t.row_of.tolist(), self.t_cols.tolist(), self.t.values.tolist()):
            probs.setdefault(e_words[e], {})[f_words[f]] = p
        return probs

    def distortion(self) -> dict[tuple[int, int, int], dict[int, float]]:
        if self.q is None:
            return {}
        values = iter(self.q.values.tolist())
        first = -1 if self.use_null else 0
        return {
            (l, m, j): {i: next(values) for i in range(first, l)}
            for l, m in self.shapes
            for j in range(m)
        }


def _viterbi(scores: Sequence[float], n: int, use_null: bool) -> Alignment:
    """Viterbi decoding over target-major rows of `n` candidate scores: each
    target position links to its best candidate, the first one on ties.
    With NULL, candidate 0 is NULL and its links are dropped."""
    shift = 1 if use_null else 0
    links = set()
    for j, lo in enumerate(range(0, len(scores), n)):
        row = scores[lo : lo + n]
        i = row.index(max(row)) - shift
        if i >= 0:
            links.add((i, j))
    return Alignment(frozenset(links))


class TranslationTable:
    """Lexical translation probabilities t(f|e), sparse over co-occurring
    pairs, and for a Model 2 table the positional distortion q(i|j,l,m)
    (empty for Model 1).

    A table returned by training keeps its interned EM state and builds the
    string-keyed `probs` and `distortion` on first read."""

    def __init__(
        self,
        probs: dict[str, dict[str, float]] | None,
        use_null: bool,
        log_likelihoods: Sequence[float] = (),
        fit: _Fit | None = None,
    ) -> None:
        self._probs = probs
        self.use_null = use_null
        self.log_likelihoods = tuple(log_likelihoods)
        self._fit = fit
        self._distortion: dict[tuple[int, int, int], dict[int, float]] | None = (
            None if fit is not None else {}
        )

    @property
    def probs(self) -> dict[str, dict[str, float]]:
        if self._probs is None:
            self._probs = self._fit.lexical_probs()
        return self._probs

    @property
    def distortion(self) -> dict[tuple[int, int, int], dict[int, float]]:
        if self._distortion is None:
            self._distortion = self._fit.distortion()
        return self._distortion

    def prob(self, e: str, f: str) -> float:
        """Stored probability, or the floor for unknown pairs."""
        p = self.probs.get(e, {}).get(f, 0.0)
        return p if p > PROB_FLOOR else PROB_FLOOR

    def viterbi_training_pairs(self, indices: Iterable[int]) -> Links:
        """Viterbi alignments of the training pairs at `indices`, decoded
        with the model that trained this table (Model 2 includes q)."""
        return self._fit.decode(indices)


def _validate_training_input(pairs: Sequence[TokenPair], iterations: int) -> None:
    if iterations < 1:
        raise PipelineError(f"iterations must be >= 1, got {iterations}")
    if not pairs:
        raise PipelineError("empty corpus: nothing to train on")


def _train(
    pairs: Sequence[TokenPair], iterations: int, use_null: bool, threads: int, positional: bool
) -> TranslationTable:
    _validate_training_input(pairs, iterations)
    fit = _Fit(pairs, use_null, positional)
    fit.train(iterations, threads)
    return TranslationTable(None, use_null, fit.history, fit)


def train_model1(
    pairs: Sequence[TokenPair],
    iterations: int = 5,
    use_null: bool = True,
    threads: int = 1,
) -> TranslationTable:
    """EM-train t(f|e). Every source row stays normalized to 1; the recorded
    per-iteration corpus log-likelihood is non-decreasing."""
    return _train(pairs, iterations, use_null, threads, positional=False)


def train_model2(
    pairs: Sequence[TokenPair],
    iterations: int = 5,
    use_null: bool = True,
    threads: int = 1,
) -> TranslationTable:
    """EM-train Model 2: t(f|e) plus distortion q(i|j,l,m) over source positions.

    Same contracts as Model 1: normalized rows, non-decreasing log-likelihood.
    Source position -1 stands for NULL.
    """
    return _train(pairs, iterations, use_null, threads, positional=True)


def _source_side(src: SentenceTokens, use_null: bool) -> list[str]:
    return [NULL_TOKEN, *src] if use_null else list(src)


def viterbi_align(
    pair: TokenPair,
    table: TranslationTable,
    use_null: bool | None = None,
) -> Alignment:
    """Link each target token to its most probable source token.

    Ties break to the lowest source index; NULL occupies virtual index -1,
    so a target word whose best candidate is NULL ends up unaligned.
    """
    src, tgt = pair
    if use_null is None:
        use_null = table.use_null
    if not src and not use_null:
        raise PipelineError("cannot align against an empty source sentence")
    words = _source_side(src, use_null)
    return _viterbi([table.prob(e, f) for f in tgt for e in words], len(words), use_null)


def viterbi_align_model2(
    pair: TokenPair,
    table: TranslationTable,
    use_null: bool | None = None,
) -> Alignment:
    """Model 2 decoding: argmax over t(f|e) * q(i|j,l,m); unseen length
    configurations fall back to uniform distortion."""
    src, tgt = pair
    if use_null is None:
        use_null = table.use_null
    if not src and not use_null:
        raise PipelineError("cannot align against an empty source sentence")
    l, m = len(src), len(tgt)
    words = _source_side(src, use_null)
    positions = range(-1 if use_null else 0, l)
    uniform = 1.0 / len(words)
    scores = []
    for j, f in enumerate(tgt):
        qrow = table.distortion.get((l, m, j))
        for i, e in zip(positions, words):
            q = qrow.get(i, 0.0) if qrow is not None else uniform
            scores.append(table.prob(e, f) * max(q, PROB_FLOOR))
    return _viterbi(scores, len(words), use_null)


def transpose(links: Links) -> Links:
    """The links with source and target swapped."""
    import numpy as np

    order = np.lexsort((links.src, links.tgt, links.pair_index()))
    return Links(links.offsets, links.tgt[order], links.src[order])


_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def symmetrize(forward: Links, backward: Links, heuristic: str) -> Links:
    """Combine the forward and backward links of each pair.

    `backward` must already be transposed into (src, tgt) orientation.
    grow-diag-final: start from the intersection; repeatedly add union links
    8-adjacent to the current set while either endpoint is unaligned; finish
    with one pass adding union links with an unaligned src or tgt endpoint.
    Scans go in ascending (src, tgt) order and take effect immediately.

    Every link becomes a cell key base[k] + i * width[k] + j, one numbering
    of the cells of all pairs that sorts as the links do, so intersection
    and union are set operations on sorted keys. Only pairs with union links
    outside the intersection run the grow-diag-final scan.
    """
    import numpy as np

    if heuristic not in HEURISTICS:
        raise PipelineError(f"unknown symmetrization heuristic {heuristic!r}")
    if len(forward) != len(backward):
        raise PipelineError(
            f"forward/backward alignment length mismatch: {len(forward)} vs {len(backward)}"
        )
    height, width = np.zeros(len(forward), np.int64), np.zeros(len(forward), np.int64)
    for links in (forward, backward):
        pair = links.pair_index()
        np.maximum.at(height, pair, links.src + 1)
        np.maximum.at(width, pair, links.tgt + 1)
    base = np.cumsum(height * width) - height * width

    def keys(links: Links):
        pair = links.pair_index()
        return base[pair] + links.src * width[pair] + links.tgt

    # Each side holds a key at most once: a key seen twice is in both.
    both = np.sort(np.concatenate((keys(forward), keys(backward))), kind="stable")
    twice = both[1:] == both[:-1]
    if heuristic == "union":
        first = np.ones(len(both), bool)
        first[1:] = ~twice
        chosen = both[first]
    else:
        chosen = both[1:][twice]
        if heuristic == "grow-diag-final":
            once = np.ones(len(both), bool)
            once[1:] &= ~twice
            once[:-1] &= ~twice
            chosen = _grow_diag_final(chosen, both[once], base, width)
    # The last pair whose cells start at or below a key holds it: pairs that
    # share a base with a later pair have no cells.
    pair = np.searchsorted(base, chosen, side="right") - 1
    src, tgt = np.divmod(chosen - base[pair], width[pair])
    return _sorted_links(pair, src, tgt, len(forward))


def _grow_diag_final(inter, candidates, base, width):
    """The keys of `inter` and of the `candidates`, the union links outside
    it, that the grow-diag-final scans of `symmetrize` adopt, pair by pair.
    Both are sorted."""
    import numpy as np

    if not len(candidates):
        return inter
    cand_pair = np.searchsorted(base, candidates, side="right") - 1
    seed_pair = np.searchsorted(base, inter, side="right") - 1
    pairs, cand_at = np.unique(cand_pair, return_index=True)
    cand_end = np.append(cand_at[1:], len(candidates))
    seed_at = np.searchsorted(seed_pair, pairs, side="left")
    seed_end = np.searchsorted(seed_pair, pairs, side="right")
    cand_cells = (candidates - base[cand_pair]).tolist()
    seed_cells = (inter - base[seed_pair]).tolist()
    adopted = []
    for b, w, c0, c1, s0, s1 in zip(
        base[pairs].tolist(),
        width[pairs].tolist(),
        cand_at.tolist(),
        cand_end.tolist(),
        seed_at.tolist(),
        seed_end.tolist(),
    ):
        links = {divmod(cell, w) for cell in seed_cells[s0:s1]}
        grown = _grow_pair(links, [divmod(cell, w) for cell in cand_cells[c0:c1]])
        adopted.extend(b + i * w + j for i, j in grown)
    return np.sort(np.concatenate((inter, np.array(adopted, np.int64))), kind="stable")


def _grow_pair(links: set[tuple[int, int]], candidates: list[tuple[int, int]]):
    """grow-diag-final on one pair: `links` starts as the intersection and
    `candidates` are the other union links, ascending. Returns the adopted
    links; `links` ends up holding the result."""
    src_aligned = {i for i, _ in links}
    tgt_aligned = {j for _, j in links}
    adopted = []

    def adopt(i: int, j: int) -> None:
        links.add((i, j))
        src_aligned.add(i)
        tgt_aligned.add(j)
        adopted.append((i, j))

    changed = True
    while changed:
        changed = False
        for i, j in candidates:
            if (i, j) in links:
                continue
            if i in src_aligned and j in tgt_aligned:
                continue
            if any((i + di, j + dj) in links for di, dj in _NEIGHBORS):
                adopt(i, j)
                changed = True
    for i, j in candidates:
        if (i, j) not in links and (i not in src_aligned or j not in tgt_aligned):
            adopt(i, j)
    return adopted


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_DIGIT, _DASH, _SPACE, _NEWLINE = ord("0"), ord("-"), ord(" "), ord("\n")
# Bytes that separate links on a line: bytes.split()'s whitespace but "\n".
_BLANKS = tuple(b" \t\r\x0b\x0c")
_MAX_DIGITS = 9  # any longer index is beyond int32, so out of bounds
_BLOCK = 1 << 20


def format_alignments(links: Links) -> str:
    """One line per pair: its links as space-separated `i-j`, ascending."""
    import numpy as np

    counts = np.diff(links.offsets)
    values = np.empty(2 * links.total, np.int32)
    values[0::2], values[1::2] = links.src, links.tgt
    digits = np.ones(len(values), np.int8)
    power = 10
    while power <= values.max(initial=0):
        digits += values >= power
        power *= 10
    # Each number is followed by one byte: "-" after a source index, " "
    # after a target index but the last of its pair, else "\n". A pair with
    # no links is a bare "\n", a byte the numbers of later pairs skip.
    empty = counts == 0
    ends = np.cumsum(digits + 1, dtype=np.int64)
    ends += np.repeat(np.repeat(np.cumsum(empty) - empty, counts), 2)
    size = len(values) + int(digits.sum(dtype=np.int64)) + int(empty.sum())
    out = np.full(size, _NEWLINE, np.uint8)
    out[ends[0::2] - 1] = _DASH
    spaced = np.ones(links.total, bool)
    spaced[links.offsets[1:][~empty] - 1] = False
    out[ends[1::2][spaced] - 1] = _SPACE
    for place in range(int(digits.max(initial=0))):
        has = digits > place
        out[ends[has] - 2 - place] = _DIGIT + values[has] % 10
        values //= 10
    return out.tobytes().decode("ascii")


def write_alignments(links: Links, path: str) -> None:
    """Write `format_alignments(links)` to `path`."""
    atomic_write_text(path, format_alignments(links))


def read_alignments(path: str) -> Links:
    """Read one pair per line, lines split on "\n" only. A line holds its
    links as `i-j` tokens of ASCII digits, separated by blanks, in any order;
    a repeated link counts once. A malformed token is fatal and names its
    line. The file is parsed as bytes, vectorized, in blocks of whole lines
    of about _BLOCK bytes, so that no temporary grows with the file."""
    import numpy as np

    data = Path(path).read_bytes()
    if data and not data.endswith(b"\n"):
        data += b"\n"
    text = np.frombuffer(data, np.uint8)
    newlines = np.flatnonzero(text == _NEWLINE)
    columns = [(np.empty(0, np.int64), np.empty(0, np.int32), np.empty(0, np.int32))]
    lo = 0
    while lo < len(text):
        hi = int(newlines[np.searchsorted(newlines, min(lo + _BLOCK, len(text) - 1))]) + 1
        columns.append(_parse_block(path, data, lo, hi, newlines))
        lo = hi
    line, src, tgt = (np.concatenate(column) for column in zip(*columns))
    return _collect(line, src, tgt, len(newlines))


def _parse_block(path: str, data: bytes, lo: int, hi: int, newlines):
    """(line, src, tgt) of each link in data[lo:hi], whole lines."""
    import numpy as np

    text = np.frombuffer(data, np.uint8, hi - lo, lo)
    digit = (text >= _DIGIT) & (text <= _DIGIT + 9)
    dash = text == _DASH
    blank = np.isin(text, _BLANKS) | (text == _NEWLINE)
    # Digit runs [start, stop); the block ends in "\n", so a run always has
    # a byte after it. The tokens are all `i-j` exactly when every byte is a
    # digit, a dash or a blank, each dash has a digit on both sides, and
    # each digit run touches exactly one dash.
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, stops = edges[0::2], edges[1::2]
    dash_before = np.zeros(len(starts), bool)
    dash_before[starts > 0] = dash[starts[starts > 0] - 1]
    wrong = [
        where[0]
        for where in (
            np.flatnonzero(~(digit | dash | blank)),
            np.flatnonzero(dash & ~(np.roll(digit, 1) & np.roll(digit, -1))),
            starts[dash_before == dash[stops]],
        )
        if len(where)
    ]
    if wrong:
        _fail_at_token(path, data, newlines, lo + min(wrong))
    lengths = stops - starts
    if lengths.max(initial=0) > _MAX_DIGITS:
        at = int(np.searchsorted(newlines, lo + starts[lengths > _MAX_DIGITS][0]))
        raise PipelineError(f"{path}: alignment link out of bounds at line {at + 1}")
    values = np.zeros(len(starts), np.int32)
    for place in range(int(lengths.max(initial=0))):
        has = lengths > place
        values[has] = values[has] * 10 + (text[starts[has] + place] - _DIGIT)
    return np.searchsorted(newlines, lo + starts[0::2]), values[0::2], values[1::2]


def _fail_at_token(path: str, data: bytes, newlines, at: int) -> None:
    """Raise for the first malformed token of the line holding byte `at`."""
    import numpy as np

    line = int(np.searchsorted(newlines, at))
    start = int(newlines[line - 1]) + 1 if line else 0
    for token in data[start : int(newlines[line])].split():
        if not re.fullmatch(rb"[0-9]+-[0-9]+", token):
            shown = token.decode("utf-8", "replace")
            raise PipelineError(f"{path}: bad link {shown!r} at line {line + 1}")
    raise AssertionError("no malformed token on the line")


def write_translation_table(table: TranslationTable, path: str) -> None:
    """Export `e<TAB>f<TAB>prob` sorted by source word, then descending prob."""
    lines = []
    for e in sorted(table.probs):
        row = table.probs[e]
        for f, p in sorted(row.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"{e}\t{f}\t{p!r}\n")
    atomic_write_text(path, "".join(lines))
