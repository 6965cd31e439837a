"""Word alignment: IBM Model 1 (optionally Model 2), Viterbi, symmetrization.

Training is plain EM over a sparse lexical table t(f|e); Model 2 adds a
positional table q(i|j,l,m). Both models run one kernel over interned
sentence pairs: each co-occurring (e, f) gets an integer slot, and each pair
stores its cells, one per target position and source candidate, as a flat
list of slots. The E-step runs in fixed-size chunks and returns each chunk's
cell posteriors; one M-step adds them into the counts in corpus order, so
results are bit-identical for any worker count. A NULL source token (virtual
index -1) absorbs target words with no counterpart; Viterbi links decoded to
NULL are dropped.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import PipelineError
from .fileio import atomic_write_text, read_text_strict
from .parallel import CHUNK_SIZE, process_chunks

NULL_TOKEN = "<NULL>"
PROB_FLOOR = 1e-12

SentenceTokens = Sequence[str]
TokenPair = tuple[SentenceTokens, SentenceTokens]

HEURISTICS = ("intersection", "union", "grow-diag-final")


@dataclass(frozen=True)
class Alignment:
    """Link set for one sentence pair, as (src_index, tgt_index) pairs."""

    links: frozenset[tuple[int, int]]


class _Table:
    """Probabilities over slots. Each slot belongs to one row; the table
    starts uniform over each row's slots, and the M-step renormalizes rows."""

    def __init__(self, row_of: array, n_rows: int) -> None:
        self.row_of = row_of
        self.n_rows = n_rows
        uniform = {r: 1.0 / width for r, width in Counter(row_of).items()}
        self.values = list(map(uniform.__getitem__, row_of))

    def m_step(self, counts: list[float]) -> None:
        """Divide each slot's count by its row's total, the counts of the
        row's slots added up in slot order."""
        totals = [0.0] * self.n_rows
        for r, c in zip(self.row_of, counts):
            totals[r] += c
        self.values = [c / totals[r] for c, r in zip(counts, self.row_of)]


def _number(keys: Iterable, numbers: dict) -> list[int]:
    """Number the keys not yet in `numbers` in order of first appearance,
    after those already there; return the number of each key."""
    add = numbers.setdefault
    return [add(key, len(numbers)) for key in keys]


class _Chunk(NamedTuple):
    """Up to CHUNK_SIZE interned pairs."""

    cells: list[int]  # t slot of each cell, pair after pair, target-major
    # Per pair: its number of source candidates, its first and end cell, and
    # its first q slot (0 under Model 1).
    pairs: list[tuple[int, int, int, int]]


class _Fit:
    """EM state of one alignment direction over its interned training pairs.

    The rows of t are source words (NULL first, when used); the rows of q
    are (l, m, j) and its slots the candidates NULL, 0, ..., l - 1. A pair's
    cells and its q slots run in the same order, so cell k of a pair whose
    first cell is `first` has q slot `q_at + k - first`."""

    def __init__(self, pairs: Sequence[TokenPair], use_null: bool, positional: bool) -> None:
        self.use_null = use_null
        e_ids: dict[str, int] = {NULL_TOKEN: 0} if use_null else {}
        f_ids: dict[str, int] = {}
        src_ids = _number((e for src, _ in pairs for e in src), e_ids)
        tgt_ids = _number((f for _, tgt in pairs for f in tgt), f_ids)
        nf = len(f_ids)
        null = [0] if use_null else []
        t_map: dict[int, int] = {}  # e * nf + f -> t slot
        blocks: dict[tuple[int, int], int] = {}  # (l, m) -> first q slot
        q_size = 0
        s_at = f_at = 0
        self.chunks: list[_Chunk] = []
        for lo in range(0, len(pairs), CHUNK_SIZE):
            cells: list[int] = []
            chunk_pairs = []
            for src, tgt in pairs[lo : lo + CHUNK_SIZE]:
                l, m = len(src), len(tgt)
                scaled = [e * nf for e in null + src_ids[s_at : s_at + l]]
                fs = tgt_ids[f_at : f_at + m]
                s_at += l
                f_at += m
                first_cell = len(cells)
                cells += _number((k + f for f in fs for k in scaled), t_map)
                q_at = 0
                if positional:
                    if (l, m) not in blocks:
                        blocks[(l, m)] = q_size
                        q_size += len(scaled) * m
                    q_at = blocks[(l, m)]
                chunk_pairs.append((len(scaled), first_cell, len(cells), q_at))
            self.chunks.append(_Chunk(cells, chunk_pairs))

        self.e_words = list(e_ids)
        self.f_words = list(f_ids)
        self.t_cols = array("i", map(nf.__rmod__, t_map))
        self.t = _Table(array("i", map(nf.__rfloordiv__, t_map)), len(e_ids))
        self.shapes = list(blocks)
        self.q = None
        if positional:
            row_of = array("i")
            q_rows = 0
            for l, m in blocks:
                for _ in range(m):
                    row_of.extend([q_rows] * (l + len(null)))
                    q_rows += 1
            self.q = _Table(row_of, q_rows)
        self.history: list[float] = []

    def train(self, iterations: int, threads: int) -> None:
        """EM iterations. The E-steps of the chunks may run in any order; their
        posteriors are added into the counts in corpus order."""
        for _ in range(iterations):
            results = process_chunks(self._estep, self.chunks, threads, chunk_size=1)
            ll = 0.0
            t_counts = [0.0] * len(self.t.values)
            q_counts = [0.0] * len(self.q.values) if self.q is not None else None
            for chunk, (part_ll, posteriors) in zip(self.chunks, results):
                ll += part_ll
                for s, c in zip(chunk.cells, posteriors):
                    t_counts[s] += c
                if q_counts is not None:
                    for _, first, end, q_at in chunk.pairs:
                        q_end = q_at + end - first
                        q_counts[q_at:q_end] = [
                            a + c for a, c in zip(q_counts[q_at:q_end], posteriors[first:end])
                        ]
            self.history.append(ll)
            self.t.m_step(t_counts)
            if q_counts is not None:
                self.q.m_step(q_counts)

    def _estep(self, batch: Sequence[_Chunk]) -> tuple[float, array]:
        """Log-likelihood and cell posteriors of one chunk, in cell order. A
        cell's posterior is its score over the target word's total z, added
        up left to right; Model 1 scores t, Model 2 scores t * q."""
        (chunk,) = batch
        t = self.t.values
        positional = self.q is not None
        q = self.q.values if positional else []
        cells = chunk.cells
        posteriors = array("d")
        ll = 0.0
        for n, first, end, q_at in chunk.pairs:
            # Model 1's uniform alignment prior 1/n; Model 2's is inside q.
            norm = 0.0 if positional else math.log(n)
            for lo in range(first, end, n):
                row = cells[lo : lo + n]
                if positional:
                    k = q_at + lo - first
                    ps = [t[s] * w for s, w in zip(row, q[k : k + n])]
                else:
                    ps = [t[s] for s in row]
                z = 0.0
                for p in ps:
                    z += p
                ll += math.log(z) - norm
                posteriors.extend([p / z for p in ps])
        return ll, posteriors

    def decode(self, indices: Iterable[int]) -> list[Alignment]:
        """Viterbi links of the training pairs at `indices`, in order."""
        t = self.t.values
        q = self.q.values if self.q is not None else None
        out = []
        for index in indices:
            chunk_index, pair_index = divmod(index, CHUNK_SIZE)
            chunk = self.chunks[chunk_index]
            n, first, end, q_at = chunk.pairs[pair_index]
            ps = map(t.__getitem__, chunk.cells[first:end])
            scores = [p if p > PROB_FLOOR else PROB_FLOOR for p in ps]
            if q is not None:
                ws = q[q_at : q_at + end - first]
                scores = [p * (w if w > PROB_FLOOR else PROB_FLOOR) for p, w in zip(scores, ws)]
            out.append(_viterbi(scores, n, self.use_null))
        return out

    def lexical_probs(self) -> dict[str, dict[str, float]]:
        probs: dict[str, dict[str, float]] = {}
        e_words, f_words = self.e_words, self.f_words
        for e, f, p in zip(self.t.row_of, self.t_cols, self.t.values):
            probs.setdefault(e_words[e], {})[f_words[f]] = p
        return probs

    def distortion(self) -> dict[tuple[int, int, int], dict[int, float]]:
        if self.q is None:
            return {}
        values = iter(self.q.values)
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
    return Alignment(frozenset((j, i) for i, j in alignment.links))


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
