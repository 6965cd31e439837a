"""Word alignment: IBM Model 1 (optionally Model 2), Viterbi, symmetrization.

Training is plain EM over a sparse lexical table t(f|e); Model 2 adds a
positional table q(i|j,l,m). Both models run one kernel over interned
sentence pairs: each co-occurring (e, f) gets an integer slot, and each pair
stores its cells, one per target position and source candidate, as a flat
array of slots. The E-step runs in fixed-size chunks whose partial counts are
merged in chunk order, so results are bit-identical for any worker count. A
NULL source token (virtual index -1) absorbs target words with no
counterpart; Viterbi links decoded to NULL are dropped.
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

    def m_step(self, parts: Sequence[tuple[array, array, list[float], list[float]]]) -> None:
        """Add up per-chunk (slot map, row map, counts, row totals) in chunk
        order, then divide each count by its row total. The first chunk's
        numbers are the global ones, so its lists are extended in place."""
        (_, _, counts, totals), *rest = parts
        counts.extend([0.0] * (len(self.values) - len(counts)))
        totals.extend([0.0] * (self.n_rows - len(totals)))
        for slots, rows, part_counts, part_totals in rest:
            for g, c in zip(slots, part_counts):
                counts[g] += c
            for g, c in zip(rows, part_totals):
                totals[g] += c
        self.values = [c / totals[r] for c, r in zip(counts, self.row_of)]

    def gather(self, slots: array, floor: float = 0.0) -> list[float]:
        """The values at `slots`, none below `floor`."""
        values = self.values
        return [p if p > floor else floor for p in map(values.__getitem__, slots)]


def _number(keys: Iterable, numbers: dict) -> list[int]:
    """Number the keys not yet in `numbers` in order of first appearance,
    after those already there; return the number of each key."""
    add = numbers.setdefault
    return [add(key, len(numbers)) for key in keys]


class _Chunk(NamedTuple):
    """Up to CHUNK_SIZE interned pairs. Slots and rows are numbered within
    the chunk, so partial counts grow with the chunk, not with the corpus;
    `t_slots`, `t_rows`, `q_slots` and `q_rows` map them to global numbers.
    The first chunk's numbers are the global ones."""

    cells: list[int]  # t slot of each cell, pair after pair, target-major
    # Per pair: t rows of its source candidates, its first and end cell,
    # and its first q cell and first q row (0, 0 under Model 1).
    pairs: list[tuple[list[int], int, int, int, int]]
    t_slots: array
    t_rows: array
    q_slots: array
    q_rows: array


class _Fit:
    """EM state of one alignment direction over its interned training pairs.

    The rows of t are source words (NULL first, when used); the rows of q
    are (l, m, j) and its slots the candidates NULL, 0, ..., l - 1."""

    def __init__(self, pairs: Sequence[TokenPair], use_null: bool, positional: bool) -> None:
        self.use_null = use_null
        e_ids: dict[str, int] = {NULL_TOKEN: 0} if use_null else {}
        f_ids: dict[str, int] = {}
        src_ids = _number((e for src, _ in pairs for e in src), e_ids)
        tgt_ids = _number((f for _, tgt in pairs for f in tgt), f_ids)
        nf = len(f_ids)
        null = [0] if use_null else []
        t_map: dict[int, int] = {}  # e * nf + f -> global t slot
        blocks: dict[tuple[int, int], tuple[int, int]] = {}  # (l, m) -> first q slot, row
        q_size = q_rows_size = 0
        s_at = f_at = 0
        self.chunks: list[_Chunk] = []
        for lo in range(0, len(pairs), CHUNK_SIZE):
            cells_of: dict[int, int] = {}  # e * nf + f -> chunk slot
            cells: list[int] = []
            rows_of: dict[int, int] = {}
            local_blocks: dict[tuple[int, int], tuple[int, int]] = {}
            q_slots, q_rows = array("i"), array("i")
            chunk_pairs = []
            for src, tgt in pairs[lo : lo + CHUNK_SIZE]:
                l, m = len(src), len(tgt)
                es = null + src_ids[s_at : s_at + l]
                fs = tgt_ids[f_at : f_at + m]
                s_at += l
                f_at += m
                scaled = [e * nf for e in es]
                first_cell = len(cells)
                cells += _number((k + f for f in fs for k in scaled), cells_of)
                first_q = (0, 0)
                if positional:
                    n = len(es)
                    if (l, m) not in local_blocks:
                        if (l, m) not in blocks:
                            blocks[(l, m)] = (q_size, q_rows_size)
                            q_size += n * m
                            q_rows_size += m
                        g_slot, g_row = blocks[(l, m)]
                        local_blocks[(l, m)] = (len(q_slots), len(q_rows))
                        q_slots.extend(range(g_slot, g_slot + n * m))
                        q_rows.extend(range(g_row, g_row + m))
                    first_q = local_blocks[(l, m)]
                chunk_pairs.append((_number(es, rows_of), first_cell, len(cells), *first_q))
            if t_map:
                t_slots = array("i", _number(cells_of, t_map))
            else:  # the first chunk's numbers become the global ones
                t_map = cells_of
                t_slots = array("i", range(len(t_map)))
            self.chunks.append(
                _Chunk(cells, chunk_pairs, t_slots, array("i", rows_of), q_slots, q_rows)
            )

        self.e_words = list(e_ids)
        self.f_words = list(f_ids)
        self.t_cols = array("i", map(nf.__rmod__, t_map))
        self.t = _Table(array("i", map(nf.__rfloordiv__, t_map)), len(e_ids))
        self.shapes = list(blocks)
        self.q = None
        if positional:
            row_of = array("i")
            for (l, m), (_, g_row) in blocks.items():
                for j in range(m):
                    row_of.extend([g_row + j] * (l + len(null)))
            self.q = _Table(row_of, q_rows_size)
        self.history: list[float] = []

    def train(self, iterations: int, threads: int) -> None:
        for _ in range(iterations):
            results = process_chunks(self._estep, self.chunks, threads, chunk_size=1)
            ll = 0.0
            for part_ll, _, _ in results:
                ll += part_ll
            self.history.append(ll)
            chunks = list(zip(self.chunks, results))
            self.t.m_step([(c.t_slots, c.t_rows, *t) for c, (_, t, _) in chunks])
            if self.q is not None:
                self.q.m_step([(c.q_slots, c.q_rows, *q) for c, (_, _, q) in chunks])

    def _estep(self, batch: Sequence[_Chunk]) -> tuple[float, tuple, tuple]:
        """Expected counts of one chunk. A cell's posterior is its score over
        the target word's total z, added up left to right; Model 1 scores t,
        Model 2 scores t * q."""
        (chunk,) = batch
        t = self.t.gather(chunk.t_slots)
        t_counts = [0.0] * len(t)
        t_totals = [0.0] * len(chunk.t_rows)
        positional = self.q is not None
        q = self.q.gather(chunk.q_slots) if positional else []
        q_counts = [0.0] * len(q)
        q_totals = [0.0] * len(chunk.q_rows)
        cells = chunk.cells
        ll = 0.0
        for es, first, end, q_at, q_row in chunk.pairs:
            n = len(es)
            # Model 1's uniform alignment prior 1/n; Model 2's is inside q.
            norm = 0.0 if positional else math.log(n)
            for j, lo in enumerate(range(first, end, n)):
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
                cs = [p / z for p in ps]
                for s, e, c in zip(row, es, cs):
                    t_counts[s] += c
                    t_totals[e] += c
                if positional:
                    q_counts[k : k + n] = [a + c for a, c in zip(q_counts[k : k + n], cs)]
                    total = q_totals[q_row + j]
                    for c in cs:
                        total += c
                    q_totals[q_row + j] = total
        return ll, (t_counts, t_totals), (q_counts, q_totals)

    def decode(self, indices: Iterable[int]) -> list[Alignment]:
        """Viterbi links of the training pairs at `indices`, in order."""
        out = []
        current = -1
        for index in indices:
            chunk_index, pair_index = divmod(index, CHUNK_SIZE)
            if chunk_index != current:
                current, chunk = chunk_index, self.chunks[chunk_index]
                t = self.t.gather(chunk.t_slots, PROB_FLOOR)
                q = self.q.gather(chunk.q_slots, PROB_FLOOR) if self.q is not None else None
            es, first, end, q_at, _ = chunk.pairs[pair_index]
            cells = chunk.cells[first:end]
            if q is None:
                scores = [t[s] for s in cells]
            else:
                scores = [t[s] * w for s, w in zip(cells, q[q_at : q_at + len(cells)])]
            out.append(_viterbi(scores, len(es), self.use_null))
        return out

    def lexical_probs(self) -> dict[str, dict[str, float]]:
        probs: dict[str, dict[str, float]] = {}
        e_words, f_words = self.e_words, self.f_words
        for e, f, p in zip(self.t.row_of, self.t_cols, self.t.values):
            probs.setdefault(e_words[e], {})[f_words[f]] = p
        return probs

    def distortion(self) -> dict[tuple[int, int, int], dict[int, float]]:
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
    """Lexical translation probabilities t(f|e), sparse over co-occurring pairs.

    A table returned by training keeps its interned EM state and builds the
    string-keyed `probs` on first read."""

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

    @property
    def probs(self) -> dict[str, dict[str, float]]:
        if self._probs is None:
            self._probs = self._fit.lexical_probs()
        return self._probs

    def prob(self, e: str, f: str) -> float:
        """Stored probability, or the floor for unknown pairs."""
        p = self.probs.get(e, {}).get(f, 0.0)
        return p if p > PROB_FLOOR else PROB_FLOOR

    def viterbi_training_pairs(self, indices: Iterable[int]) -> list[Alignment]:
        """Viterbi alignments of the training pairs at `indices`, decoded
        with the model that trained this table (Model 2 includes q)."""
        return self._fit.decode(indices)


class Model2Tables:
    """Model 2 parameters: lexical table plus positional distortion
    q(i|j,l,m), which is built on first read."""

    def __init__(self, lexical: TranslationTable) -> None:
        self.lexical = lexical
        self._distortion: dict[tuple[int, int, int], dict[int, float]] | None = None

    @property
    def distortion(self) -> dict[tuple[int, int, int], dict[int, float]]:
        if self._distortion is None:
            self._distortion = self.lexical._fit.distortion()
        return self._distortion

    def viterbi_training_pairs(self, indices: Iterable[int]) -> list[Alignment]:
        """Viterbi alignments of the training pairs at `indices`."""
        return self.lexical.viterbi_training_pairs(indices)


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
) -> Model2Tables:
    """EM-train Model 2: t(f|e) plus distortion q(i|j,l,m) over source positions.

    Same contracts as Model 1: normalized rows, non-decreasing log-likelihood.
    Source position -1 stands for NULL.
    """
    return Model2Tables(_train(pairs, iterations, use_null, threads, positional=True))


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
    tables: Model2Tables,
    use_null: bool | None = None,
) -> Alignment:
    """Model 2 decoding: argmax over t(f|e) * q(i|j,l,m); unseen length
    configurations fall back to uniform distortion."""
    src, tgt = pair
    table = tables.lexical
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
        qrow = tables.distortion.get((l, m, j))
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
