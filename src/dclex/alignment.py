"""Word alignment: IBM Model 1 (optionally Model 2), Viterbi, symmetrization,
and the `i-j` link file format.

Training is plain EM over a sparse lexical table t(f|e); Model 2 adds a
positional table q(i|j,l,m). Both models run one numpy kernel over interned
sentence pairs. Each co-occurring (e, f) gets an integer slot, numbered in
order of first appearance, and each pair contributes its cells, one per
target position and source candidate, to one flat array of slots.
`_first_appearance` does the numbering chunk by chunk: one sort of each
chunk's keys, packed with their positions, and a hash table of the slots of
earlier chunks, so its cost grows with the cells, not with chunks x slots.

The E-step runs over fixed-size chunks, one after another: each writes its
cell posteriors into one buffer, the size of the widest chunk, and adds
them into the counts before the next chunk runs, so the counts take the
posteriors in corpus order. The posterior, count and Model 2 cell place
buffers are allocated once per fit, the M-step divides in place, and the
E-step works through its chunk in blocks of rows, so no EM temporary grows
with the corpus, and only Model 2's q slots grow with the chunk. The M-step
adds up its row totals with `add.at` into a buffer of one float per row,
which reads each slot's int32 row as it is, and gathers them back a block
of slots at a time. Every sum that feeds t, q or the log-likelihood is a
running sum in a fixed order (`bincount` and `add.at` add their inputs one
by one, from 0.0, and `cumsum` adds left to right), never a pairwise or
vectorized reduction, so t and q are bit-identical for any chunk size and
equal, float for float, to adding them up in a Python loop. The
log-likelihood is one running sum over the rows in corpus order, carried
from chunk to chunk, so it does not depend on the chunking either; but it
takes each row's log with `np.log`, whose last bit may differ by host
(numpy picks its vectorized log, AVX-512 or not, by CPU), so its last bits
depend on the host, where t, q and the links do not. A NULL source token
(virtual index -1) absorbs target words with no counterpart; Viterbi links
decoded to NULL are dropped. With NULL, a corpus token spelled `<NULL>` is
an error, so NULL's row is never a word's too.

The backward direction trains on the same pairs with the sides swapped, so
its cells are the forward's transposed. Trained with `inverse=` the forward
table, it keeps the forward's numbering: each cell takes its forward cell's
slot, less the slots of the forward's NULL row, and the NULL slots follow,
one per target word in order of first appearance. The slot ids are not the
ones interning the words gives, but the order of each row's slots, all that
EM reads of them, is: both directions order a row's words by the first pair
holding both, then by the partner's first position in that pair. The
forward table releases its EM state before the backward table is made.

The links of a corpus travel as one `Links`: per-pair offsets into int32
source and target columns. Viterbi decoding, `transpose` and `symmetrize`
work on the columns, so no Python object is made per link. The link file
is a token file whose words are the distinct links: `write_alignments` and
`read_alignments` go through the corpus's token-file code
(`TokenColumns.to_bytes`, `corpus.parse_token_file`), which makes one
Python string per distinct link, not per link. Each pair's links depend on
that pair alone, so `decode` takes any ascending list of distinct pairs,
the results of a subset go through `transpose` and `symmetrize` as a
corpus of their own, and `Links.spread` puts them back in place among
pairs with no links: the align stage decodes only the pairs that hold both
a fused source connective and a target connective occurrence.
grow-diag-final scans the pairs in lock-step, candidate k of every pair at
step k, over per-pair bool grids. The phrasetable scan reads the columns
too (`_box_sources`); only tests turn a pair's links into tuples
(`Links.pair`). This module is the only one that knows the `i-j` shape
of a link token.
`viterbi_align_model2`, a per-pair Model 2 decoder, and
`tests/oracles.viterbi_reference` and `symmetrize_reference` are the
reference definitions that the columnar path is tested against.

numpy is imported when training or link handling starts, not with this
module; the CLI imports this module only when align or extract runs, so
loading the CLI pays for neither.
"""

from __future__ import annotations

import math
import re
from functools import partial
from typing import Iterable, NamedTuple, Sequence

from . import corpus
from .corpus import Bitext, TokenColumns, _spans, process_chunks
from .errors import PipelineError
from .fileio import atomic_write_text, read_text_strict

NULL_TOKEN = "<NULL>"
PROB_FLOOR = 1e-12
# The E-step's rows go in blocks of about this many cells.
_BLOCK_CELLS = 1 << 15

SentenceTokens = Sequence[str]
TokenPair = tuple[SentenceTokens, SentenceTokens]

HEURISTICS = ("intersection", "union", "grow-diag-final")


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

    def pair(self, k: int) -> list[tuple[int, int]]:
        """The links of pair k as (src, tgt) tuples, ascending."""
        lo, hi = self.offsets[k], self.offsets[k + 1]
        return list(zip(self.src[lo:hi].tolist(), self.tgt[lo:hi].tolist()))

    def pair_index(self, dtype: str = "int64"):
        """The pair of each link."""
        return _pair_index(self.offsets, dtype)

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

    def spread(self, pairs, n_pairs: int) -> Links:
        """These links in a corpus of `n_pairs` pairs: pair k's at pair
        `pairs[k]`, and no links at the others. `pairs` ascend."""
        import numpy as np

        counts = np.zeros(n_pairs, np.int64)
        counts[pairs] = np.diff(self.offsets)
        offsets = np.zeros(n_pairs + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        return Links(offsets, self.src, self.tgt)

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


def _pair_index(offsets, dtype: str = "int64"):
    """The pair of each link, from per-pair `offsets`."""
    import numpy as np

    return np.repeat(np.arange(len(offsets) - 1, dtype=dtype), np.diff(offsets))


def _sorted_links(pair, src, tgt, n_pairs: int) -> Links:
    """Links of `n_pairs` pairs from columns already in Links order."""
    import numpy as np

    offsets = np.zeros(n_pairs + 1, np.int64)
    np.cumsum(np.bincount(pair, minlength=n_pairs), out=offsets[1:])
    return Links(offsets, src.astype(np.int32, copy=False), tgt.astype(np.int32, copy=False))


def _packing_shift(keys) -> int | None:
    """The shift p that packs each key with its position into one int64,
    key << p | position, so that one sort orders by key and then by
    position; None when some key is too wide for that."""
    p = max(1, (len(keys) - 1).bit_length())
    if p > 62:
        return None
    lo, hi = int(keys.min()), int(keys.max())
    return p if -(1 << (63 - p)) <= lo and hi < 1 << (63 - p) else None


# Fibonacci hashing: a key's home cell is the top 32 bits of key * _GOLDEN
# (2**64 over the golden ratio), modulo 2**64, scaled to the table size.
_GOLDEN = 0x9E3779B97F4A7C15


def _first_appearance(chunks: Iterable, out):
    """Number the int64 keys of `chunks` in order of first appearance over
    all of them: write the slot of each key to `out`, chunk after chunk, and
    return the keys in slot order. The chunks are overwritten.

    Each chunk is sorted once, its keys packed with their positions (stable
    `argsort` when they do not fit), which gives its distinct keys and where
    each first appears. Keys of earlier chunks are looked up in an
    open-addressing hash table of slots with linear probing, so the work per
    chunk does not grow with the slots numbered before it. A chunk's new
    keys go into the table while it stays at most half full; otherwise the
    next chunk rebuilds it, four cells per key, in order of home cell."""
    import numpy as np

    # The keys in slot order. Pages are touched only as slots are numbered,
    # so the room for one slot per key costs no memory.
    known = np.empty(len(out), np.int64)
    slot_at = np.zeros(0, np.int32)  # the slot in each table cell, -1 if empty
    count = filled = at = 0  # slots numbered, slots in the table, keys seen

    def home(keys):
        hashed = keys.view(np.uint64) * np.uint64(_GOLDEN)
        hashed >>= np.uint64(32)
        hashed *= np.uint64(len(slot_at))
        hashed >>= np.uint64(32)
        return hashed.view(np.int64)

    def step(cell) -> None:
        cell += 1
        cell[cell == len(slot_at)] = 0

    def probe(keys):
        """The cell of each key and the slot in it: the cell that holds the
        key's slot, or the empty cell (slot -1) where its probe sequence
        ends."""
        cell = home(keys)
        slots = slot_at[cell]
        todo = np.flatnonzero(slots >= 0)
        todo = todo[known[slots[todo]] != keys[todo]]
        while len(todo):
            c = cell[todo]
            step(c)
            cell[todo] = c
            s = slot_at[c]
            slots[todo] = s
            taken = s >= 0
            todo = todo[taken]
            todo = todo[known[s[taken]] != keys[todo]]
        return cell, slots

    def insert(slots, cell) -> None:
        """Put `slots`, none of them held, into the first empty cell from
        `cell` on. Slots that meet at a cell race for it; the losers move on."""
        while len(slots):
            busy = np.flatnonzero(slot_at[cell] >= 0)
            while len(busy):
                c = cell[busy]
                step(c)
                cell[busy] = c
                busy = busy[slot_at[c] >= 0]
            slot_at[cell] = slots
            lost = np.flatnonzero(slot_at[cell] != slots)
            slots, cell = slots[lost], cell[lost]

    def rebuild() -> None:
        """A table of all slots numbered so far. Taken in order of home cell,
        each key's cell is max(home, previous cell + 1), as linear probing
        would place them; those past the end wrap round."""
        nonlocal slot_at
        slot_at = None  # the old table goes before the new one is made
        slot_at = np.full(4 * count, -1, np.int32)
        p = max(1, (count - 1).bit_length())
        order = home(known[:count]) << p
        order |= np.arange(count)
        order.sort()
        slots, cell = order & ((1 << p) - 1), order >> p
        del order
        steps = np.arange(count)
        cell -= steps
        np.maximum.accumulate(cell, out=cell)
        cell += steps
        end = np.searchsorted(cell, len(slot_at))
        slot_at[cell[:end]] = slots[:end]
        insert(slots[end:], np.zeros(count - end, np.int64))

    for keys in chunks:
        n = len(keys)
        if not n:
            continue
        p = _packing_shift(keys)
        if p is None:
            pos = np.argsort(keys, kind="stable")
            keys_sorted = keys[pos]
        else:
            keys_sorted = keys  # packed and sorted in place
            keys_sorted <<= p
            keys_sorted |= np.arange(n)
            keys_sorted.sort()
            pos = np.empty(n, np.int32)
            np.bitwise_and(keys_sorted, (1 << p) - 1, out=pos, casting="unsafe")
            keys_sorted >>= p
        starts = np.empty(n, bool)
        starts[0] = True
        np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=starts[1:])
        starts = np.flatnonzero(starts)
        distinct, first = keys_sorted[starts], pos[starts]
        del keys_sorted

        if count:
            if filled < count:
                rebuild()
                filled = count
            cell, slots = probe(distinct)
            fresh = np.flatnonzero(slots < 0)
        else:  # every key is new
            slots = np.empty(len(distinct), np.int32)
            fresh = slice(None)
        # New keys take the next slots in the order of their first positions.
        is_new = np.zeros(n, bool)
        new = first[fresh]
        is_new[new] = True
        del first
        slots[fresh] = count - 1 + np.cumsum(is_new, dtype=np.int32)[new]
        del is_new
        known[slots[fresh]] = distinct[fresh]
        count += len(new)
        if filled and 2 * count <= len(slot_at):
            insert(slots[fresh], cell[fresh])
            filled = count
        out[at : at + n][pos] = np.repeat(slots, np.diff(starts, append=n))
        at += n
    return known[:count]


class _Table:
    """Probabilities over slots. Each slot belongs to one row; the table
    starts uniform over each row's slots, and the M-step renormalizes rows."""

    def __init__(self, row_of, n_rows: int) -> None:
        import numpy as np

        self.row_of = row_of
        self.totals = np.empty(n_rows)
        self.values = np.empty(len(row_of))
        self._gather_totals(1.0)
        np.divide(1.0, self.values, out=self.values)

    def m_step(self, counts) -> None:
        """Divide each slot's count by its row's total, the counts of the
        row's slots added up in slot order, in place."""
        import numpy as np

        self._gather_totals(counts)
        np.divide(counts, self.values, out=self.values)

    def _gather_totals(self, counts) -> None:
        """Add up each row's `counts` (one per slot, or one for all) in slot
        order, from 0.0, and put each slot's row total in `values`. The
        int32 `row_of` is read as it is: `add.at` takes it without a copy,
        and the totals are gathered _BLOCK_CELLS slots at a time, since
        `take` copies its indices to intp."""
        import numpy as np

        self.totals.fill(0.0)
        np.add.at(self.totals, self.row_of, counts)
        for lo in range(0, len(self.row_of), _BLOCK_CELLS):
            hi = lo + _BLOCK_CELLS
            np.take(self.totals, self.row_of[lo:hi], out=self.values[lo:hi], mode="clip")


class _Chunk(NamedTuple):
    """Up to `corpus.CHUNK_SIZE` consecutive pairs: the pairs, their cells
    and their target rows."""

    pairs: slice
    cells: slice
    rows: slice


class TranslationTable:
    """An IBM model of one alignment direction, EM-trained on its pairs as
    `train_model1` and `train_model2` make it: lexical translation
    probabilities t(f|e), sparse over co-occurring pairs, and for Model 2
    the positional distortion q(i|j,l,m) (empty for Model 1).

    The table holds the EM state over its interned training pairs. The rows
    of t are source words (NULL first, when used); the rows of q are
    (l, m, j) and its slots the candidates NULL, 0, ..., l - 1. Cells run
    pair after pair, target-major: a pair with n candidates (source words
    plus NULL) and m target words has m rows of n cells. `widths` holds each
    row's number of cells and `cells` each cell's int32 t slot, the only
    per-cell array: a cell's Model 2 q slot derives from its pair (`_q_slots`).

    `log_likelihoods` (one per EM iteration) and `entries` (the number of
    (e, f) entries of t, one per co-occurring pair) are plain attributes;
    the string-keyed `probs` and `distortion` are built on first read.

    With `inverse`, a table of the same pairs with the sides swapped, the
    cells are the inverse's transposed (`_transpose_cells`) instead of
    interned from the words; they train the same. The inverse then
    releases its EM state and keeps only the `probs` and `distortion` it
    has built."""

    def __init__(
        self,
        pairs: Sequence[TokenPair],
        iterations: int,
        use_null: bool,
        positional: bool,
        inverse: TranslationTable | None = None,
    ) -> None:
        import numpy as np

        if iterations < 1:
            raise PipelineError(f"iterations must be >= 1, got {iterations}")
        if not pairs:
            raise PipelineError("empty corpus: nothing to train on")
        pairs = Bitext.of(pairs)
        ls, ms = pairs.src.lengths(), pairs.tgt.lengths()
        empty = np.flatnonzero((ls == 0) | (ms == 0))
        if len(empty):
            raise PipelineError(f"empty sentence in training pair {empty[0]}")
        null = 1 if use_null else 0
        if inverse is not None:
            inverse._check_held()
            if inverse.use_null != use_null:
                raise PipelineError(
                    f"the inverse table was trained with use_null={inverse.use_null}, "
                    f"not {use_null}"
                )
            swapped = len(inverse.m) == len(pairs)
            if not swapped or (inverse.m != ls).any() or (inverse.n != ms + null).any():
                raise PipelineError("the inverse table was not trained on these pairs swapped")

        self.use_null = use_null
        ns = ls + null
        sizes = ns * ms
        self.n, self.m = ns.astype(np.int32), ms.astype(np.int32)
        self.widths = np.repeat(self.n, ms)
        # math.log(n) for n = 0, 1, ...: Model 1's log of its alignment prior 1/n.
        self.log_n = np.array([-math.inf, *map(math.log, range(1, int(ns.max()) + 1))])
        cell_at = np.append(0, np.cumsum(sizes))
        row_at = np.append(0, np.cumsum(ms))
        self.first_cell = cell_at[:-1]
        starts = range(0, len(pairs), corpus.CHUNK_SIZE)
        self.chunks = [
            _Chunk(slice(lo, hi), slice(cell_at[lo], cell_at[hi]), slice(row_at[lo], row_at[hi]))
            for lo, hi in zip(starts, [*starts[1:], len(pairs)])
        ]

        self.shapes: list[tuple[int, int]] = []
        self.q = self.q_at = None
        if positional:
            # One block of q slots per (l, m), in order of first appearance; a
            # pair's cells take the slots of its block in order (`_q_slots`).
            span = int(ms.max()) + 1
            block_of = np.empty(len(pairs), np.int32)
            block_l, block_m = np.divmod(_first_appearance([ls * span + ms], block_of), span)
            self.shapes = list(zip(block_l.tolist(), block_m.tolist()))
            block_sizes = (block_l + null) * block_m
            self.q_at = (np.cumsum(block_sizes) - block_sizes)[block_of]
            q_widths = np.repeat(block_l + null, block_m)
            q_rows = len(q_widths)
            self.q = _Table(np.repeat(np.arange(q_rows, dtype=np.int32), q_widths), q_rows)

        if inverse is None:
            self._intern_cells(pairs, ls, ms)
        else:
            self._transpose_cells(inverse)
        self.entries = len(self.t_cols)
        self._probs: dict[str, dict[str, float]] | None = None
        self._distortion: dict[tuple[int, int, int], dict[int, float]] | None = None
        self._train(iterations)

    def _check_held(self) -> None:
        if self.cells is None:
            raise PipelineError("the translation table holds no EM state")

    def _intern_cells(self, pairs: Bitext, ls, ms) -> None:
        """Number the co-occurring (e, f) of the cells, taking the words as
        the columns number them, NULL first when used. Chunk by chunk, so
        that no temporary grows with the corpus: the key e * nf + f of each
        cell, then its slot. With NULL, no word may be spelled like it."""
        import numpy as np

        null = 1 if self.use_null else 0
        src, tgt = pairs.src, pairs.tgt
        for side in (src, tgt) if null else ():
            if NULL_TOKEN in side.vocab:
                at = np.flatnonzero(side.ids == side.vocab.index(NULL_TOKEN))
                if len(at):
                    pair = np.searchsorted(side.offsets, at[0], side="right") - 1
                    raise PipelineError(
                        f"training pair {pair} holds the token {NULL_TOKEN}, the name of "
                        "the NULL word; set use_null = false to align it as a word"
                    )
        self.e_words = [NULL_TOKEN, *src.vocab] if null else list(src.vocab)
        self.f_words = tgt.vocab
        src_ids, tgt_ids = src.ids.astype(np.int64), tgt.ids
        if null:
            src_ids += 1
        nf = len(self.f_words)
        src_at = np.append(0, np.cumsum(ls))

        def chunk_keys():
            for chunk in self.chunks:
                lo, hi = chunk.pairs.start, chunk.pairs.stop
                n = ls[lo:hi] + null
                # Candidates of each pair: NULL (word 0) first when used, then its source words.
                cand_at = np.cumsum(n) - n
                cand = np.zeros(cand_at[-1] + n[-1], np.int64)
                cand[_spans(cand_at + null, ls[lo:hi])] = src_ids[src_at[lo] : src_at[hi]] * nf
                widths = self.widths[chunk.rows]
                keys = cand[_spans(np.repeat(cand_at, ms[lo:hi]), widths)]
                keys += np.repeat(tgt_ids[chunk.rows], widths)
                yield keys

        self.cells = np.empty(self.chunks[-1].cells.stop, np.int32)
        keys = _first_appearance(chunk_keys(), self.cells)
        rows, self.t_cols = np.empty(len(keys), np.int32), np.empty(len(keys), np.int32)
        np.divmod(keys, nf, out=(rows, self.t_cols), casting="unsafe")
        del keys
        self.t = _Table(rows, len(self.e_words))

    def _transpose_cells(self, inverse: TranslationTable) -> None:
        """Take the cells from `inverse`, a table of the same pairs with the
        sides swapped, and release its EM state. This direction's words are
        the inverse's with the sides swapped, so a cell (pair, target i,
        source j) is the word pair of the inverse's cell (pair, target j,
        source i), and it takes that cell's slot: the word-pair slots are the
        inverse's, in its order, less those of its NULL row. The NULL slots
        follow, one per target word, in order of first appearance. EM reads
        only the order of a row's slots, and both directions order a row's
        words as interning them would: by the first pair that holds both
        words, then by the partner's first position in that pair."""
        import numpy as np

        null = 1 if self.use_null else 0
        self.e_words = [NULL_TOKEN, *inverse.f_words] if null else list(inverse.f_words)
        self.f_words = inverse.e_words[null:]
        # What is not read here goes now.
        inverse.t.values = inverse.q = inverse.q_at = None
        # This direction's slot of each of the inverse's word-pair slots.
        rank = np.cumsum(inverse.t.row_of >= null, dtype=np.int32) - 1
        self.cells = np.empty(self.chunks[-1].cells.stop, np.int32)

        def null_words():
            """Fill the cells chunk by chunk; with NULL, yield the inverse's
            row of each row's target word."""
            for chunk in self.chunks:
                widths = self.widths[chunk.rows]
                heads = np.cumsum(widths) - widths
                # Per row: the inverse's cell of (target row 0, candidate i)
                # and its stride, the inverse's row width.
                ms = self.m[chunk.pairs]
                row_pair = np.repeat(np.arange(chunk.pairs.start, chunk.pairs.stop), ms)
                i = np.arange(len(widths)) - np.repeat(np.cumsum(ms) - ms, ms)
                origin = inverse.first_cell[row_pair] + i + null
                stride = inverse.n[row_pair].astype(np.int64)
                # Candidate c >= null of a row is the inverse's target row
                # c - null, so its cell is origin + (c - null) * stride; the
                # NULL candidate reads row 0 for the word of its target. The
                # cells of a row step by its stride (by 0 from NULL), so they
                # are a running sum.
                cell = np.repeat(stride, widths)
                last = origin + (widths - 1 - null) * stride
                cell[heads[0]] = origin[0]
                cell[heads[1:]] = origin[1:] - last[:-1]
                if null:
                    cell[heads + 1] = 0
                keys = np.take(inverse.cells, np.cumsum(cell, out=cell), mode="clip")
                del cell
                np.take(rank, keys, out=self.cells[chunk.cells], mode="clip")
                if null:
                    yield np.take(inverse.t.row_of, keys[heads], mode="clip").astype(np.int64)

        null_slots = np.empty(len(self.widths) if null else 0, np.int32)
        words = _first_appearance(null_words(), null_slots)
        inverse.cells = rank = None
        # A word-pair slot's row and column are the inverse's column and row;
        # a NULL slot's are row 0 and its word.
        word = inverse.t.row_of >= null
        rows = np.concatenate((inverse.t_cols[word] + null, np.zeros(len(words), np.int32)))
        self.t_cols = np.concatenate((inverse.t.row_of[word] - null, words.astype(np.int32) - null))
        del word
        inverse.t = inverse.t_cols = inverse.widths = None
        inverse.first_cell = inverse.n = inverse.m = inverse.chunks = None
        if null:
            null_slots += len(rows) - len(words)
            self.cells[np.cumsum(self.widths, dtype=np.int64) - self.widths] = null_slots
        self.t = _Table(rows, len(self.e_words))

    def _train(self, iterations: int) -> None:
        """EM iterations. Each chunk's E-step adds its posteriors into the
        counts before the next chunk runs, so the counts take them in corpus
        order and one posterior buffer, the size of the widest chunk, serves
        every chunk, as one array of cell places does Model 2's q slots. The
        buffers are allocated once and go when training ends."""
        import numpy as np

        posteriors = np.empty(max(chunk.cells.stop - chunk.cells.start for chunk in self.chunks))
        places = np.arange(len(posteriors)) if self.q is not None else None
        tables = [self.t] + ([self.q] if self.q is not None else [])
        counts = [np.empty(len(table.values)) for table in tables]
        log_likelihood = [0.0]  # the running sum, carried from chunk to chunk
        estep = partial(self._estep, posteriors, places, counts, log_likelihood)
        history = []
        for _ in range(iterations):
            for c in counts:
                c.fill(0.0)
            log_likelihood[0] = 0.0
            process_chunks(estep, self.chunks, chunk_size=1)
            history.append(log_likelihood[0])
            for table, c in zip(tables, counts):
                table.m_step(c)
        self.log_likelihoods = tuple(history)

    def _estep(self, posteriors, places, counts, log_likelihood, batch) -> None:
        """Write the cell posteriors of one chunk into the front of
        `posteriors`, add them into each table's counts and add the chunk's
        rows to the running log-likelihood in `log_likelihood[0]`. A cell's
        posterior is its score over its row's total z; Model 1 scores t,
        Model 2 scores t * q. z and the log-likelihood are running sums. The
        rows go in blocks of about _BLOCK_CELLS cells, so that no temporary
        grows with the chunk."""
        import numpy as np

        (chunk,) = batch
        scores = posteriors[: chunk.cells.stop - chunk.cells.start]
        widths = self.widths[chunk.rows]
        heads = np.cumsum(widths, dtype=np.int64) - widths
        cuts = np.searchsorted(heads, np.arange(0, heads[-1] + widths[-1], _BLOCK_CELLS))
        cuts = [*cuts.tolist(), len(widths)]
        z = np.empty(len(widths))
        cells = self.cells[chunk.cells]
        q_slots = None if places is None else self._q_slots(chunk.pairs, places)
        for r0, r1 in zip(cuts, cuts[1:]):
            if r0 == r1:
                continue
            block = slice(heads[r0], heads[r1 - 1] + widths[r1 - 1])
            part = scores[block]
            np.take(self.t.values, cells[block], out=part, mode="clip")
            if q_slots is not None:
                part *= np.take(self.q.values, q_slots[block], mode="clip")
            row_widths = widths[r0:r1]
            rows = np.repeat(np.arange(r1 - r0), row_widths)
            z[r0:r1] = np.bincount(rows, weights=part, minlength=r1 - r0)
            part /= np.repeat(z[r0:r1], row_widths)
        for table_counts, slots in zip(counts, (cells, q_slots)):
            np.add.at(table_counts, slots, scores)
        terms = np.log(z)
        if self.q is None:
            # Model 1's uniform alignment prior 1/n; Model 2's is inside q.
            terms -= self.log_n[widths]
        terms[0] += log_likelihood[0]
        log_likelihood[0] = float(np.cumsum(terms)[-1])

    def decode(self, indices: Iterable[int]) -> Links:
        """Viterbi links of the training pairs at `indices`, which must be
        ascending and distinct, in order: each target position links to its
        best candidate, the first on ties, with t and q floored at
        PROB_FLOOR. With NULL, candidate 0 is NULL and its links are
        dropped."""
        import numpy as np

        self._check_held()
        pairs = np.fromiter(indices, np.int64)
        if not len(pairs):
            return _collect(pairs, pairs, pairs, 0)
        if not ((np.diff(pairs) > 0).all() and 0 <= pairs[0] and pairs[-1] < len(self.n)):
            raise PipelineError("decode takes ascending, distinct indices of training pairs")
        ns, ms = self.n[pairs], self.m[pairs]
        # The cells from the first pair's to the last's, less those of the
        # pairs between them that are not asked for.
        lo, hi = pairs[0], pairs[-1] + 1
        window = slice(self.first_cell[lo], self.first_cell[hi - 1] + int(ns[-1]) * int(ms[-1]))
        wanted = np.zeros(hi - lo, bool)
        wanted[pairs - lo] = True
        keep = np.repeat(wanted, self.n[lo:hi].astype(np.int64) * self.m[lo:hi])

        scores = np.take(self.t.values, self.cells[window][keep], mode="clip")
        np.maximum(scores, PROB_FLOOR, out=scores)
        if self.q is not None:
            q = np.take(self.q.values, self._q_slots(pairs, np.arange(len(scores))), mode="clip")
            scores *= np.maximum(q, PROB_FLOOR, out=q)
            del q
        widths = np.repeat(ns, ms)
        starts = np.cumsum(widths) - widths
        # The first best candidate of a row is the first cell from the row's
        # start on that holds the row's maximum.
        best = np.flatnonzero(scores == np.repeat(np.maximum.reduceat(scores, starts), widths))
        first_best = best[np.searchsorted(best, starts)] - starts
        # Per row: its pair, its target position and its source; rows decoded
        # to NULL drop out. A row has one link, so the links are distinct, and
        # in target order within each pair: one stable sort by (pair, source)
        # puts them in Links order.
        rows_of = np.repeat(np.arange(len(pairs)), ms)
        targets = np.arange(len(widths)) - np.repeat(np.cumsum(ms) - ms, ms)
        sources = first_best - (1 if self.use_null else 0)
        linked = np.flatnonzero(sources >= 0)
        rows_of, sources, targets = rows_of[linked], sources[linked], targets[linked]
        order = np.argsort(rows_of * int(ns.max()) + sources, kind="stable")
        return _sorted_links(rows_of[order], sources[order], targets[order], len(pairs))

    def _q_slots(self, pairs, places):
        """The q slot of each cell of `pairs`, a slice or ascending indices:
        its pair's q block start plus its place in the pair, counted by
        `places`, which holds 0, 1, ... for at least that many cells."""
        import numpy as np

        sizes = self.n[pairs].astype(np.int64) * self.m[pairs]
        slots = np.repeat(self.q_at[pairs] - (np.cumsum(sizes) - sizes), sizes)
        return np.add(slots, places[: len(slots)], out=slots)

    @property
    def probs(self) -> dict[str, dict[str, float]]:
        if self._probs is None:
            self._check_held()
            self._probs = {}
            e_words, f_words, t = self.e_words, self.f_words, self.t
            for e, f, p in zip(t.row_of.tolist(), self.t_cols.tolist(), t.values.tolist()):
                self._probs.setdefault(e_words[e], {})[f_words[f]] = p
        return self._probs

    @property
    def distortion(self) -> dict[tuple[int, int, int], dict[int, float]]:
        if self._distortion is None:
            self._check_held()
            values = iter(self.q.values.tolist() if self.q is not None else ())
            first = -1 if self.use_null else 0
            self._distortion = {
                (l, m, j): {i: next(values) for i in range(first, l)}
                for l, m in self.shapes
                for j in range(m)
            }
        return self._distortion

    def prob(self, e: str, f: str) -> float:
        """Stored probability, or the floor for unknown pairs."""
        p = self.probs.get(e, {}).get(f, 0.0)
        return p if p > PROB_FLOOR else PROB_FLOOR


def train_model1(
    pairs: Sequence[TokenPair],
    iterations: int = 5,
    use_null: bool = True,
    inverse: TranslationTable | None = None,
) -> TranslationTable:
    """EM-train t(f|e). Every source row stays normalized to 1; the recorded
    per-iteration corpus log-likelihood is non-decreasing.

    `inverse`, a table trained on `pairs` with the sides swapped (same
    `use_null`), seeds this table's cells without interning the corpus
    again, and releases its EM state. The result is the same as without it;
    `inverse` keeps only the `probs` and `distortion` it has built."""
    return TranslationTable(pairs, iterations, use_null, False, inverse)


def train_model2(
    pairs: Sequence[TokenPair],
    iterations: int = 5,
    use_null: bool = True,
    inverse: TranslationTable | None = None,
) -> TranslationTable:
    """EM-train Model 2: t(f|e) plus distortion q(i|j,l,m) over source positions.

    Same contracts as Model 1: normalized rows, non-decreasing log-likelihood.
    Source position -1 stands for NULL. `inverse` works as in `train_model1`.
    """
    return TranslationTable(pairs, iterations, use_null, True, inverse)


def viterbi_align_model2(
    pair: TokenPair,
    table: TranslationTable,
    use_null: bool | None = None,
) -> frozenset[tuple[int, int]]:
    """The (src, tgt) links of one pair under Model 2: each target token
    links to the source token with the greatest t(f|e) * q(i|j,l,m), the
    lowest index on ties. NULL is source index -1, so a target token whose
    best candidate is NULL stays unlinked. A length configuration unseen in
    training falls back to uniform distortion."""
    src, tgt = pair
    if use_null is None:
        use_null = table.use_null
    if not src and not use_null:
        raise PipelineError("cannot align against an empty source sentence")
    l, m = len(src), len(tgt)
    candidates = list(enumerate(src))
    if use_null:
        candidates.insert(0, (-1, NULL_TOKEN))
    uniform = 1.0 / len(candidates)
    links = set()
    for j, f in enumerate(tgt):
        qrow = table.distortion.get((l, m, j))
        scores = []
        for i, e in candidates:
            q = qrow.get(i, 0.0) if qrow is not None else uniform
            scores.append(table.prob(e, f) * max(q, PROB_FLOOR))
        i = candidates[scores.index(max(scores))][0]
        if i >= 0:
            links.add((i, j))
    return frozenset(links)


def transpose(links: Links) -> Links:
    """The links with source and target swapped."""
    import numpy as np

    # Within a pair the links ascend by source, so one stable sort by
    # (pair, target) orders them by (target, source).
    width = int(links.tgt.max(initial=-1)) + 1
    order = np.argsort(links.pair_index() * width + links.tgt, kind="stable")
    return Links(links.offsets, links.tgt[order], links.src[order])


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
    outside the intersection take part in the grow-diag-final scans. Each
    side's pair index is made once, as int32, next to the int64 keys.
    """
    import numpy as np

    if heuristic not in HEURISTICS:
        raise PipelineError(f"unknown symmetrization heuristic {heuristic!r}")
    if len(forward) != len(backward):
        raise PipelineError(
            f"forward/backward alignment length mismatch: {len(forward)} vs {len(backward)}"
        )
    n = len(forward)
    height, width = np.zeros(n, np.int64), np.zeros(n, np.int64)
    for links in (forward, backward):
        linked = np.flatnonzero(np.diff(links.offsets))
        if len(linked):
            # A pair's links ascend by source, so its last one has the
            # greatest source; the greatest target is a reduction per pair.
            last_src = links.src[links.offsets[linked + 1] - 1]
            height[linked] = np.maximum(height[linked], last_src + 1)
            last_tgt = np.maximum.reduceat(links.tgt, links.offsets[linked])
            width[linked] = np.maximum(width[linked], last_tgt + 1)
    cells = height * width
    base = np.cumsum(cells) - cells
    # A pair's source * width fits int32 unless it has 2**31 cells or more.
    row_step = width.astype(np.int32 if cells.max(initial=0) < 1 << 31 else np.int64)
    del cells

    # Each side holds a key at most once: a key seen twice is in both. The
    # keys of both sides are made in one array; each side's keys ascend, so
    # the stable sort merges two runs.
    both = np.empty(forward.total + backward.total, np.int64)
    for links, keys in ((forward, both[: forward.total]), (backward, both[forward.total :])):
        pair = links.pair_index("int32")
        np.take(base, pair, out=keys, mode="clip")
        step = np.take(row_step, pair, mode="clip")
        del pair
        step *= links.src
        keys += step
        del step
        keys += links.tgt
    del keys  # a view that would keep `both` alive
    both.sort(kind="stable")
    twice = both[1:] == both[:-1]
    chosen = both[1:][twice]  # the intersection
    if heuristic != "intersection":
        # The union links outside the intersection.
        once = np.ones(len(both), bool)
        once[1:] &= ~twice
        once[:-1] &= ~twice
        candidates = both[once]
        del once
    del both, twice
    if heuristic == "union":
        chosen = _merged(chosen, candidates)
    elif heuristic == "grow-diag-final":
        chosen = _grow_diag_final(chosen, candidates, base, height, width)
    # Pair k holds the keys from base[k] up to base[k + 1].
    offsets = np.append(np.searchsorted(chosen, base), len(chosen))
    pair = _pair_index(offsets, "int32")
    chosen -= np.take(base, pair, mode="clip")
    src, tgt = np.empty(len(chosen), np.int32), np.empty(len(chosen), np.int32)
    np.divmod(chosen, np.take(row_step, pair, mode="clip"), out=(src, tgt), casting="unsafe")
    return Links(offsets, src, tgt)


def _grow_diag_final(inter, candidates, base, height, width):
    """The keys of `inter` and of the `candidates`, the union links outside
    it, that the grow-diag-final scans of `symmetrize` adopt. Both are sorted.

    The scans run in lock-step over the pairs with candidates: step k tests
    candidate k of every pair still scanning, against per-pair bool grids of
    the links so far and of the aligned words. A pair thus sees its own
    candidates in order and each adoption at once, as a loop over the pair
    alone would."""
    import numpy as np

    if not len(candidates):
        return inter
    cand_pair = np.searchsorted(base, candidates, side="right") - 1
    cand_at = np.flatnonzero(np.diff(cand_pair, prepend=-1))
    pairs = cand_pair[cand_at]
    counts = np.diff(cand_at, append=len(candidates))
    # Per pair with candidates: a grid of its cells with a margin of one cell,
    # so that every neighbour of a cell is in the grid, and a flag per source
    # and target word.
    h, w = height[pairs], width[pairs]
    stride = w + 2
    sizes = (h + 2) * stride
    grid_at, src_at, tgt_at = (np.cumsum(a) - a for a in (sizes, h, w))
    grid = np.zeros(int(sizes.sum()), bool)
    src_aligned, tgt_aligned = np.zeros(int(h.sum()), bool), np.zeros(int(w.sum()), bool)

    def place(keys, at):
        """Grid cell, source flag and target flag of `keys` in pairs `at`."""
        i, j = np.divmod(keys - base[pairs[at]], w[at])
        return grid_at[at] + (i + 1) * stride[at] + j + 1, src_at[at] + i, tgt_at[at] + j

    # The seeds of these pairs: the intersection keys within their cells.
    lo, hi = np.searchsorted(inter, base[pairs]), np.searchsorted(inter, base[pairs] + h * w)
    seeds = place(inter[_spans(lo, hi - lo)], np.repeat(np.arange(len(pairs)), hi - lo))
    for flags, index in zip((grid, src_aligned, tgt_aligned), seeds):
        flags[index] = True
    cell, src, tgt = place(candidates, np.repeat(np.arange(len(pairs)), counts))

    # Per pair: the grid offsets of the eight neighbours of a cell.
    around = stride[:, None] * np.array([-1, -1, -1, 0, 0, 1, 1, 1]) + [-1, 0, 1, -1, 1, -1, 0, 1]

    def scan(scanning, grow: bool):
        """One scan over the candidates of the pairs `scanning`; returns
        those that adopted a link."""
        order = scanning[np.argsort(-counts[scanning], kind="stable")]
        fewer = -counts[order]  # ascending, so the pairs with > k candidates lead
        # Step k tests candidate k of the first ends[k] pairs of `order`.
        ends = np.searchsorted(fewer, -np.arange(-fewer[0])).tolist()
        first, neighbours = cand_at[order], around[order]
        adopted = np.zeros(len(pairs), bool)
        for k, end in enumerate(ends):
            at = first[:end] + k
            c = cell[at]
            take = ~(grid[c] | (src_aligned[src[at]] & tgt_aligned[tgt[at]]))
            if grow:
                take &= grid[c[:, None] + neighbours[:end]].any(axis=1)
            at = at[take]
            grid[cell[at]] = src_aligned[src[at]] = tgt_aligned[tgt[at]] = True
            adopted[order[:end][take]] = True
        return np.flatnonzero(adopted)

    scanning = np.arange(len(pairs))
    while len(scanning):
        scanning = scan(scanning, grow=True)
    scan(np.arange(len(pairs)), grow=False)
    return _merged(inter, candidates[grid[cell]])


def _merged(a, b):
    """The sorted keys `a` and `b` in one sorted array."""
    import numpy as np

    out = np.concatenate((a, b))
    out.sort(kind="stable")  # merges the two runs
    return out


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

# A link as the link file spells it. An index of more than nine digits is
# beyond int32, so out of bounds.
_LINK = re.compile(r"([0-9]{1,9})-([0-9]{1,9})")


def format_alignments(links: Links) -> str:
    """One line per pair: its links as space-separated `i-j`, ascending. The
    text is that of a token file whose words are the distinct links."""
    import numpy as np

    width = int(links.tgt.max(initial=-1)) + 1
    keys, ids = np.unique(links.src.astype(np.int64) * width + links.tgt, return_inverse=True)
    src, tgt = np.divmod(keys, width)
    vocab = list(map("{}-{}".format, src.tolist(), tgt.tolist()))
    return TokenColumns(vocab, ids.astype(np.int32), links.offsets).to_bytes().decode("ascii")


def write_alignments(links: Links, path: str) -> None:
    """Write `format_alignments(links)` to `path`."""
    atomic_write_text(path, format_alignments(links))


def read_alignments(path: str) -> Links:
    """Read one pair per line, lines split on "\n" only. A line holds its
    links as `i-j` tokens of ASCII digits, separated by blanks (space, tab,
    CR, VT, FF), in any order; a repeated link counts once. The file is read
    as a token file (`corpus.parse_token_file`) whose words are the
    distinct links, and each word is parsed once. The first malformed
    token, or index of more than nine digits, is fatal and names its line."""
    import numpy as np

    text = read_text_strict(path)
    words = corpus.parse_token_file(text)
    parsed = list(map(_LINK.fullmatch, words.vocab))
    # The words split at any whitespace, and a well-formed word is ASCII
    # digits and a dash: any other character of the text, such as \x1c or
    # U+2028, lies between words, where only the blanks may.
    if not all(parsed) or not text.isascii() or any(map(text.__contains__, "\x1c\x1d\x1e\x1f")):
        _fail_at_token(path, text)
    src = np.fromiter((int(link[1]) for link in parsed), np.int32, len(parsed))
    tgt = np.fromiter((int(link[2]) for link in parsed), np.int32, len(parsed))
    pair, src, tgt = _pair_index(words.offsets), src[words.ids], tgt[words.ids]
    # A file that `write_alignments` wrote is in Links order already: each
    # line's links ascend, with no repeat, and need no sort.
    same = pair[1:] == pair[:-1]
    ascend = (src[1:] > src[:-1]) | ((src[1:] == src[:-1]) & (tgt[1:] > tgt[:-1]))
    if (ascend | ~same).all():
        return _sorted_links(pair, src, tgt, len(words))
    return _collect(pair, src, tgt, len(words))


def _fail_at_token(path: str, text: str) -> None:
    """Raise for the first bad token of the link file `text`, its lines'
    tokens split at the blanks alone."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        for token in map(bytes.decode, line.encode().split()):
            if not re.fullmatch(r"[0-9]+-[0-9]+", token):
                raise PipelineError(f"{path}: bad link {token!r} at line {lineno}")
            if not _LINK.fullmatch(token):
                raise PipelineError(f"{path}: alignment link out of bounds at line {lineno}")
    raise AssertionError("no bad token in the link file")


def write_translation_table(table: TranslationTable, path: str) -> None:
    """Export `e<TAB>f<TAB>prob` sorted by source word, then descending prob."""
    lines = []
    for e in sorted(table.probs):
        row = table.probs[e]
        for f, p in sorted(row.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"{e}\t{f}\t{p!r}\n")
    atomic_write_text(path, "".join(lines))
