"""Word alignment: IBM Model 1 (optionally Model 2), Viterbi, symmetrization.

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

numpy is imported when training starts, not with this module, so loading
the CLI does not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .errors import PipelineError
from .fileio import atomic_write_text, read_text_strict
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

        self.use_null = use_null
        null = 1 if use_null else 0
        self.e_words, src_ids = _intern((src for src, _ in pairs), (NULL_TOKEN,) if use_null else ())
        self.f_words, tgt_ids = _intern(tgt for _, tgt in pairs)
        nf = len(self.f_words)

        ls = np.array([len(src) for src, _ in pairs], np.int64)
        ms = np.array([len(tgt) for _, tgt in pairs], np.int64)
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

    def decode(self, indices: Iterable[int]) -> list[Alignment]:
        """Viterbi links of the training pairs at `indices`, in order: each
        target position links to its best candidate, the first on ties, with
        t and q floored at PROB_FLOOR. With NULL, candidate 0 is NULL and its
        links are dropped."""
        import numpy as np

        pairs = np.fromiter(indices, np.int64)
        if not len(pairs):
            return []
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
        # Per row: its target position and its pair; rows decoded to NULL drop out.
        targets = np.arange(len(widths)) - np.repeat(np.cumsum(ms) - ms, ms)
        sources = first_best - (1 if self.use_null else 0)
        linked = sources >= 0
        per_pair = np.bincount(np.repeat(np.arange(len(pairs)), ms)[linked], minlength=len(pairs))
        sources, targets = sources[linked].tolist(), targets[linked].tolist()
        out = []
        at = 0
        for k in per_pair.tolist():
            # frozenset of a set sizes its table to fit; built link by link it
            # would keep the slack of every resize.
            out.append(Alignment(frozenset(set(zip(sources[at : at + k], targets[at : at + k])))))
            at += k
        return out

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

    def viterbi_training_pairs(self, indices: Iterable[int]) -> list[Alignment]:
        """Viterbi alignments of the training pairs at `indices`, decoded
        with the model that trained this table (Model 2 includes q)."""
        return self._fit.decode(indices)


def _validate_training_input(pairs: Sequence[TokenPair], iterations: int) -> None:
    if iterations < 1:
        raise PipelineError(f"iterations must be >= 1, got {iterations}")
    if not pairs:
        raise PipelineError("empty corpus: nothing to train on")
    for idx, (src, tgt) in enumerate(pairs):
        if not src or not tgt:
            raise PipelineError(f"empty sentence in training pair {idx}")


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


def transpose(alignment: Alignment) -> Alignment:
    return Alignment(frozenset({(j, i) for i, j in alignment.links}))


_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def symmetrize(forward: Alignment, backward: Alignment, heuristic: str) -> Alignment:
    """Combine forward and backward link sets.

    `backward` must already be transposed into (src, tgt) orientation.
    grow-diag-final: start from the intersection; repeatedly add union links
    8-adjacent to the current set while either endpoint is unaligned; finish
    with one pass adding union links with an unaligned src or tgt endpoint.
    Scans go in ascending (src, tgt) order and take effect immediately.
    """
    if heuristic not in HEURISTICS:
        raise PipelineError(f"unknown symmetrization heuristic {heuristic!r}")
    fwd, bwd = forward.links, backward.links
    if heuristic == "intersection":
        return Alignment(frozenset(fwd & bwd))
    if heuristic == "union":
        return Alignment(frozenset(fwd | bwd))

    union = sorted(fwd | bwd)
    links = set(fwd & bwd)
    src_aligned = {i for i, _ in links}
    tgt_aligned = {j for _, j in links}

    def adopt(i: int, j: int) -> None:
        links.add((i, j))
        src_aligned.add(i)
        tgt_aligned.add(j)

    changed = True
    while changed:
        changed = False
        for i, j in union:
            if (i, j) in links:
                continue
            if i in src_aligned and j in tgt_aligned:
                continue
            if any((i + di, j + dj) in links for di, dj in _NEIGHBORS):
                adopt(i, j)
                changed = True
    for i, j in union:
        if (i, j) not in links and (i not in src_aligned or j not in tgt_aligned):
            adopt(i, j)
    return Alignment(frozenset(links))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def format_alignment(alignment: Alignment) -> str:
    return " ".join(f"{i}-{j}" for i, j in sorted(alignment.links))


def write_alignments(alignments: Iterable[Alignment], path: str) -> None:
    """One line per sentence pair: space-separated `i-j` links, ascending."""
    atomic_write_text(path, "".join(format_alignment(a) + "\n" for a in alignments))


def read_alignments(path: str) -> list[Alignment]:
    alignments = []
    for lineno, line in enumerate(read_text_strict(path).splitlines(), start=1):
        links = set()
        for token in line.split():
            try:
                i, j = token.split("-")
                links.add((int(i), int(j)))
            except ValueError as exc:
                raise PipelineError(f"{path}: bad link {token!r} at line {lineno}") from exc
        alignments.append(Alignment(frozenset(links)))
    return alignments


def write_translation_table(table: TranslationTable, path: str) -> None:
    """Export `e<TAB>f<TAB>prob` sorted by source word, then descending prob."""
    lines = []
    for e in sorted(table.probs):
        row = table.probs[e]
        for f, p in sorted(row.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"{e}\t{f}\t{p!r}\n")
    atomic_write_text(path, "".join(lines))
