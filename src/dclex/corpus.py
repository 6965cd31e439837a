"""Parallel corpus loading, tokenization, interning, and connective
occurrence scanning.

A corpus is a `Bitext`: a source and a target side of one length, pair k
being sentence k of each. A side is held interned, as `TokenColumns`: a
vocabulary, each word once, and the int32 word id of every token, sentence
after sentence, cut by int64 offsets. Interning numbers the words in order
of first appearance; the fused source side (`tagging.fuse_corpus`) is not in
that order, since it keeps the words its fused spans consumed, though they
may no longer occur, and appends the fused tokens after them. Ingest
tokenizes and interns a side in bulk (`load_parallel_corpus`): it
lowercases the whole text once and splits each distinct whitespace chunk
once. A token file, one sentence a line, is written by
`TokenColumns.to_bytes` and read back by `parse_token_file`, which interns
it by the same function, its chunks taken as they are: the corpus sides
(`load_token_corpus`) and the link file (`alignment.read_alignments`, whose
words are `i-j` links) alike. A corpus opened without interning
(`open_token_corpus`) splits a line only when its pair is read. Token
sequences from elsewhere are interned by `Bitext.of` and `TokenColumns.of`.

Connective occurrences are found on the ids, by `find_occurrences` alone
(`FormScan`, chunk by chunk): numpy follows the positions whose word starts
some form through a trie of the forms, and Python walks only the matches to
apply the left-to-right non-overlap rule.

Work over a whole corpus runs in chunks of `CHUNK_SIZE` sentence pairs
(`process_chunks`), one after another, so that no temporary grows with the
corpus; results are combined in chunk order. `CHUNK_SIZE` is read when the
work starts, and the aligner's chunk plan reads it too.

numpy is imported when a corpus is loaded or scanned, not with this module,
so loading the CLI does not pay for it.
"""

from __future__ import annotations

import unicodedata
from collections import defaultdict
from functools import partial
from itertools import chain, count, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import PipelineError
from .fileio import atomic_write_bytes, atomic_write_text, read_rows, read_text_strict

CHUNK_SIZE = 1024

T = TypeVar("T")
R = TypeVar("R")


def process_chunks(
    func: Callable[[Sequence[T]], R], items: Sequence[T], chunk_size: int | None = None
) -> list[R]:
    """Apply `func` to consecutive chunks of `items`, `chunk_size` items
    each (`CHUNK_SIZE` when None); results in chunk order."""
    size = CHUNK_SIZE if chunk_size is None else chunk_size
    return [func(items[lo : lo + size]) for lo in range(0, len(items), size)]


class TokenColumns(Sequence[tuple[str, ...]]):
    """One side of a corpus, interned: sentence k is the words
    `vocab[ids[a]]` for a in offsets[k]:offsets[k + 1]. `ids` is int32,
    `offsets` int64, and `vocab` holds each word once. Read as a sequence,
    it gives each sentence as a tuple of words."""

    __slots__ = ("vocab", "ids", "offsets")

    def __init__(self, vocab: list[str], ids, offsets) -> None:
        self.vocab, self.ids, self.offsets = vocab, ids, offsets

    @classmethod
    def of(cls, sentences: Iterable[Sequence[str]]) -> TokenColumns:
        """`sentences` itself if it is TokenColumns, else interned."""
        return sentences if isinstance(sentences, TokenColumns) else cls.intern(sentences)

    @classmethod
    def intern(cls, sentences: Iterable[Sequence[str]]) -> TokenColumns:
        """`sentences` interned, words numbered in order of first appearance."""
        import numpy as np

        sentences = list(sentences)
        lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
        return _interned(list(chain.from_iterable(sentences)), lengths)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, k: int) -> tuple[str, ...]:  # type: ignore[override]
        n = len(self.offsets) - 1
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError(k)
        vocab = self.vocab
        return tuple([vocab[w] for w in self.ids[self.offsets[k] : self.offsets[k + 1]].tolist()])

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        import numpy as np

        words = np.array(self.vocab, object)[self.ids].tolist()  # no Python int per token
        bounds = self.offsets.tolist()
        return iter([tuple(words[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])

    def lengths(self):
        """The number of tokens of each sentence."""
        import numpy as np

        return np.diff(self.offsets)

    def to_bytes(self) -> bytes:
        """The token-file text: each sentence's words joined by one space,
        each sentence ended by a newline, in UTF-8."""
        import numpy as np

        if not len(self.ids):
            return b"\n" * len(self)
        widths = np.fromiter(map(len, map(str.encode, self.vocab)), np.int64, len(self.vocab))
        # Each token is followed by one separator byte: a space, or a newline
        # at the end of its sentence.
        ends = np.cumsum(widths[self.ids] + 1)
        text = " ".join(np.array(self.vocab, object)[self.ids].tolist()).encode() + b"\n"
        data = np.frombuffer(bytearray(text), np.uint8)
        lengths = self.lengths()
        full = lengths > 0
        data[ends[self.offsets[1:][full] - 1] - 1] = ord("\n")
        if not full.all():
            # An empty sentence is a newline where its line begins.
            first = self.offsets[:-1][~full]
            data = np.insert(data, np.where(first > 0, ends[first - 1], 0), ord("\n"))
        return data.tobytes()


def _interned(tokens: list[str], lengths) -> TokenColumns:
    """Number `tokens`, sentences of `lengths` tokens, in order of first
    appearance."""
    import numpy as np

    index: defaultdict[str, int] = defaultdict(count().__next__)
    ids = np.fromiter(map(index.__getitem__, tokens), np.int32, len(tokens))
    return TokenColumns(list(index), ids, np.append(0, np.cumsum(lengths)))


def _chunk_counts(lines: Sequence[str]):
    """The number of whitespace-separated chunks of each line."""
    import numpy as np

    return np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))


_BLOCK_LINES = 1 << 14


def _intern_lines(lines: Sequence[str], chunks_per_line, split: bool) -> TokenColumns:
    """The whitespace-separated chunks of each line as its tokens, each
    chunk split by `_split_chunk` when `split`; `chunks_per_line` is
    `_chunk_counts(lines)`. Each distinct chunk is split once, and words
    are numbered in order of first appearance."""
    import numpy as np

    # A block of lines at a time, so that only its chunk strings exist at once.
    index: defaultdict[str, int] = defaultdict(count().__next__)
    blocks = [
        np.fromiter(map(index.__getitem__, "\n".join(block).split()), np.int32)
        for block in (lines[at : at + _BLOCK_LINES] for at in range(0, len(lines), _BLOCK_LINES))
    ]
    ids = np.concatenate(blocks) if blocks else np.zeros(0, np.int32)
    chunks = TokenColumns(list(index), ids, np.append(0, np.cumsum(chunks_per_line)))
    if not split or all(map(str.isalnum, chunks.vocab)):
        return chunks  # an alphanumeric chunk is one word
    # Numbering the pieces of the distinct chunks in the order the chunks
    # first appear numbers the words as they first appear in the text.
    pieces = list(map(_split_chunk, chunks.vocab))
    widths = np.fromiter(map(len, pieces), np.int64, len(pieces))
    words = _interned(list(chain.from_iterable(pieces)), widths)
    if (widths == 1).all():
        return TokenColumns(words.vocab, words.ids[chunks.ids], chunks.offsets)
    per_chunk = widths[chunks.ids]
    ids = words.ids[_spans(words.offsets[chunks.ids], per_chunk)]
    ends = np.append(0, np.cumsum(per_chunk))
    return TokenColumns(words.vocab, ids, ends[chunks.offsets])


def _spans(starts, lengths, out=None):
    """The ranges [start, start + length), concatenated in order, in `out`
    if given (its length the total; int64 otherwise)."""
    import numpy as np

    ends = np.cumsum(lengths)
    if out is None:
        out = np.empty(int(ends[-1]), np.int64)
    # Steps of one, but at the head of each span the step from the last
    # value before it to its start; then a running sum.
    out.fill(1)
    used = lengths > 0
    heads, starts, lengths = (ends - lengths)[used], starts[used], lengths[used]
    if len(heads):
        out[heads[0]] = starts[0]
        out[heads[1:]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    return np.cumsum(out, out=out)


class _SplitLines(Sequence[tuple[str, ...]]):
    """Lines of a token file, line k split on whitespace when it is read."""

    __slots__ = ("lines",)

    def __init__(self, lines: Sequence[str]) -> None:
        self.lines = lines

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, k: int) -> tuple[str, ...]:  # type: ignore[override]
        return tuple(self.lines[k].split())


class Bitext(Sequence[tuple[tuple[str, ...], tuple[str, ...]]]):
    """Sentence pairs as a source and a target side of one length: pair k
    is (src[k], tgt[k]). Each side is `TokenColumns`, or `_SplitLines` for
    a corpus opened without interning (`open_token_corpus`)."""

    __slots__ = ("src", "tgt")

    def __init__(self, src: TokenColumns | _SplitLines, tgt: TokenColumns | _SplitLines) -> None:
        self.src, self.tgt = src, tgt

    @classmethod
    def of(cls, pairs: Sequence) -> Bitext:
        """`pairs` itself if it is a Bitext, else its (source, target) token
        sequences interned."""
        if isinstance(pairs, Bitext):
            return pairs
        return cls(
            TokenColumns.intern(src for src, _ in pairs),
            TokenColumns.intern(tgt for _, tgt in pairs),
        )

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, k: int):  # type: ignore[override]
        return self.src[k], self.tgt[k]

    def __iter__(self) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
        return zip(self.src, self.tgt)


class Corpus(NamedTuple):
    """The pairs that `lexicon.sample_evidence` quotes. The benchmark's
    tracer counts them through `corpus.pairs`; every other function takes
    the `Bitext` itself."""

    pairs: Bitext


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _split_chunk(chunk: str) -> list[str]:
    # Detach leading/trailing punctuation as separate tokens; internal
    # punctuation (apostrophes, hyphens, sense tags) stays attached. No
    # alphanumeric character is punctuation, so a chunk with alphanumeric
    # ends has none to detach.
    if chunk[0].isalnum() and chunk[-1].isalnum():
        return [chunk]
    leading: list[str] = []
    while chunk and _is_punct(chunk[0]):
        leading.append(chunk[0])
        chunk = chunk[1:]
    trailing: list[str] = []
    while chunk and _is_punct(chunk[-1]):
        trailing.append(chunk[-1])
        chunk = chunk[:-1]
    out = leading
    if chunk:
        out.append(chunk)
    out.extend(reversed(trailing))
    return out


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Split on whitespace, detaching edge punctuation into its own tokens."""
    if lowercase:
        text = text.lower()
    tokens: list[str] = []
    for chunk in text.split():
        tokens.extend(_split_chunk(chunk))
    return tokens


def _lines(text: str, lowercase: bool = False) -> list[str]:
    """The lines of `text`, split on "\n" only: `str.splitlines` would also
    split on characters such as U+2028 or form feed, and shift every later
    line out of step with the other side. Lowercasing the whole text
    lowercases each line as it would alone: no line break is
    case-ignorable, so a final sigma is decided within its line."""
    lines = (text.lower() if lowercase else text).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _line_count_mismatch(n_src: int, n_tgt: int, src_path: str, tgt_path: str) -> PipelineError:
    return PipelineError(f"line count mismatch {n_src} vs {n_tgt} ({src_path} / {tgt_path})")


def _read_line_pairs(
    src_path: str, tgt_path: str, lowercase: bool = False
) -> tuple[list[str], list[str]]:
    src_lines, tgt_lines = (
        _lines(read_text_strict(path), lowercase) for path in (src_path, tgt_path)
    )
    if len(src_lines) != len(tgt_lines):
        raise _line_count_mismatch(len(src_lines), len(tgt_lines), src_path, tgt_path)
    return src_lines, tgt_lines


def load_parallel_corpus(
    src_path: str,
    tgt_path: str,
    *,
    lowercase: bool = True,
    skip_empty: bool = True,
    limit: int | None = None,
) -> Bitext:
    """Load two line-aligned UTF-8 files into a tokenized corpus, each side
    interned as `TokenColumns`.

    `skip_empty` drops line pairs where both sides are empty; without it any
    empty line is an error. A line empty on one side only is always an
    error. Pairs are numbered from 0 in the order they are kept: with
    skipped empty pairs, pair k is line k of the token files written from
    it, not of the input files.
    """
    import numpy as np

    src_lines, tgt_lines = _read_line_pairs(src_path, tgt_path, lowercase)
    src_chunks, tgt_chunks = _chunk_counts(src_lines), _chunk_counts(tgt_lines)
    kept = (src_chunks > 0) & (tgt_chunks > 0)
    # Lines past the limit's last pair are read and chunk-counted, not checked or interned.
    n = len(src_lines)
    if limit is not None and limit > 0:
        full = np.flatnonzero(kept)
        if len(full) >= limit:
            n = int(full[limit - 1]) + 1
    bad = (src_chunks[:n] > 0) != (tgt_chunks[:n] > 0)
    if not skip_empty:
        bad |= ~kept[:n]
    if bad.any():
        lineno = int(np.argmax(bad))
        if not (src_chunks[lineno] or tgt_chunks[lineno]):
            raise PipelineError(f"empty line pair at line {lineno}")
        side = tgt_path if tgt_chunks[lineno] == 0 else src_path
        raise PipelineError(f"{side}: empty line {lineno} has a non-empty counterpart")
    lines = np.flatnonzero(kept[:n])

    def side(text: list[str], chunks) -> TokenColumns:
        columns = _intern_lines(text[:n], chunks[:n], split=True)
        # A skipped line holds no tokens: dropping its offset drops it.
        offsets = np.append(columns.offsets[lines], columns.offsets[-1])
        return TokenColumns(columns.vocab, columns.ids, offsets)

    src, tgt = side(src_lines, src_chunks), side(tgt_lines, tgt_chunks)
    return Bitext(src, tgt)


def _empty_token_line(lineno: int) -> PipelineError:
    return PipelineError(f"empty sentence at line {lineno} in tokenized corpus")


def parse_token_file(text: str) -> TokenColumns:
    """The sentences of a token file's `text`, one a line: its `_lines`,
    each line's whitespace-separated tokens taken as they are, interned in
    order of first appearance. The corpus sides (`load_token_corpus`) and
    the link file (`alignment.read_alignments`) are read back through it."""
    lines = _lines(text)
    return _intern_lines(lines, _chunk_counts(lines), split=False)


def load_token_corpus(src_path: str, tgt_path: str) -> Bitext:
    """Reload corpus files that are already tokenized (space-separated),
    each side interned as `load_parallel_corpus` interns it."""
    import numpy as np

    src, tgt = (parse_token_file(read_text_strict(path)) for path in (src_path, tgt_path))
    if len(src) != len(tgt):
        raise _line_count_mismatch(len(src), len(tgt), src_path, tgt_path)
    empty = (src.lengths() == 0) | (tgt.lengths() == 0)
    if empty.any():
        raise _empty_token_line(int(np.argmax(empty)))
    return Bitext(src, tgt)


def open_token_corpus(src_path: str, tgt_path: str) -> Bitext:
    """`load_token_corpus` with the same checks, but each pair's lines are
    split only when the pair is read, and nothing is interned."""
    src_lines, tgt_lines = _read_line_pairs(src_path, tgt_path)
    # A line splits into no tokens exactly when it strips to "".
    if not (all(map(str.strip, src_lines)) and all(map(str.strip, tgt_lines))):
        for lineno, (src_line, tgt_line) in enumerate(zip(src_lines, tgt_lines)):
            if not src_line.strip() or not tgt_line.strip():
                raise _empty_token_line(lineno)
    return Bitext(_SplitLines(src_lines), _SplitLines(tgt_lines))


def write_token_file(sentences: Iterable[Sequence[str]], path: str) -> None:
    """Write each sentence as a line of space-joined tokens."""
    atomic_write_bytes(path, TokenColumns.of(sentences).to_bytes())


# ---------------------------------------------------------------------------
# Longest-match connective scanning
# ---------------------------------------------------------------------------

Form = tuple[str, ...]


class Occurrences:
    """Connective occurrences in corpus order: occurrence a is the form
    `forms[form[a]]` at token `start[a]` of sentence `pair[a]`. The arrays
    are int64; occurrences do not overlap."""

    __slots__ = ("forms", "pair", "start", "form")

    def __init__(self, forms: tuple[Form, ...], pair, start, form) -> None:
        self.forms, self.pair, self.start, self.form = forms, pair, start, form

    def __len__(self) -> int:
        return len(self.pair)

    def __iter__(self) -> Iterator[tuple[int, int, Form]]:
        """(pair, start, form) of each occurrence."""
        forms = self.forms
        for k, start, f in zip(self.pair.tolist(), self.start.tolist(), self.form.tolist()):
            yield k, start, forms[f]

    def lengths(self):
        """The number of tokens of each occurrence."""
        import numpy as np

        return np.fromiter(map(len, self.forms), np.int64, len(self.forms))[self.form]

    def counts(self) -> list[int]:
        """The number of occurrences of each form."""
        import numpy as np

        return np.bincount(self.form, minlength=len(self.forms)).tolist()


class FormScan:
    """Non-overlapping longest matches of `forms`, left to right, over
    sentences interned with `vocab`. A word matches a form token when it
    lowercases to it.

    The forms make a trie over their tokens, numbered from 1. A prefix p of
    one length and the next word's token number t key the prefix one longer
    as p * (tokens + 1) + t; the keys of each length are one sorted array.
    Every position whose word starts some form is followed, one length at a
    time, while its window stays inside its sentence and spells a prefix;
    its match is the longest whole form on the way."""

    def __init__(self, forms: Iterable[Sequence[str]], vocab: Sequence[str]) -> None:
        import numpy as np

        self.forms: tuple[Form, ...] = tuple(dict.fromkeys(map(tuple, forms)))
        if not all(self.forms):
            raise PipelineError("empty connective surface form")
        number: dict[str, int] = {}
        for token in chain.from_iterable(self.forms):
            number.setdefault(token, len(number) + 1)
        self._base = base = len(number) + 1
        # The prefixes of each length, numbered.
        levels: list[dict[Form, int]] = [{}]
        for form in self.forms:
            for n in range(1, len(form) + 1):
                if len(levels) < n:
                    levels.append({})
                levels[n - 1].setdefault(form[:n], len(levels[n - 1]))
        # Per length: the form each prefix spells, or -1.
        self._form_of = [np.full(len(level), -1, np.int64) for level in levels]
        for f, form in enumerate(self.forms):
            self._form_of[len(form) - 1][levels[len(form) - 1][form]] = f
        self._keys: list = [None]
        self._next: list = [None]
        for n in range(1, len(levels)):
            prefixes = list(levels[n])
            keys = np.array(
                [levels[n - 1][p[:-1]] * base + number[p[-1]] for p in prefixes], np.int64
            )
            order = np.argsort(keys)
            self._keys.append(keys[order])
            self._next.append(np.array([levels[n][p] for p in prefixes], np.int64)[order])
        # Per word: its token number (0 for none) and the one-token prefix it
        # spells (-1 for none).
        self._number = np.fromiter(
            map(number.get, map(str.lower, vocab), repeat(0)), np.int64, len(vocab)
        )
        first = np.full(base, -1, np.int64)
        for (token,), p in levels[0].items():
            first[number[token]] = p
        self._first = first[self._number]
        self._lengths = np.fromiter(map(len, self.forms), np.int64, len(self.forms))

    def __call__(self, sentences: TokenColumns, pairs: range) -> Occurrences:
        """The occurrences in sentences `pairs` (a step-1 range)."""
        import numpy as np

        offsets = sentences.offsets[pairs.start : pairs.stop + 1]
        lo = int(offsets[0])
        ids = sentences.ids[lo : offsets[-1]]
        state = self._first[ids]
        pos = np.flatnonzero(state >= 0)
        state = state[pos]
        pair = np.searchsorted(offsets, pos + lo, side="right") - 1
        room = offsets[pair + 1] - lo - pos  # tokens left in the sentence
        form = self._form_of[0][state]
        alive = np.flatnonzero(room > 1)
        for n in range(1, len(self._keys)):
            if not len(alive):
                break
            keys = self._keys[n]
            key = state[alive] * self._base + self._number[ids[pos[alive] + n]]
            at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            hit = keys[at] == key
            alive = alive[hit]
            state[alive] = self._next[n][at[hit]]
            spelled = self._form_of[n][state[alive]]
            whole = spelled >= 0
            form[alive[whole]] = spelled[whole]
            alive = alive[room[alive] > n + 1]
        found = np.flatnonzero(form >= 0)
        pos, pair, form = pos[found], pair[found], form[found]
        kept = _leftmost(pos, pos + self._lengths[form])
        pos, pair, form = pos[kept], pair[kept], form[kept]
        return Occurrences(self.forms, pair + pairs.start, pos + lo - offsets[pair], form)


def _leftmost(starts, ends) -> list[int]:
    """The matches [starts, ends), ascending by start, that a scan from the
    left keeps: each that starts where the last one kept ends, or later."""
    kept, free = [], 0
    for a, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        if start >= free:
            kept.append(a)
            free = end
    return kept


def find_occurrences(side: Sequence[Sequence[str]], forms: Sequence[Form]) -> Occurrences:
    """The non-overlapping longest matches of `forms` in the sentences of
    `side`, in corpus order, scanned chunk by chunk. `side` is interned
    first unless it is `TokenColumns` already. Both the corpus counts and
    what is counted against them find their occurrences here."""
    import numpy as np

    side = TokenColumns.of(side)
    scan = FormScan(forms, side.vocab)
    parts = process_chunks(partial(scan, side), range(len(side)))
    pair, start, form = (
        np.concatenate([getattr(part, name) for part in parts] or [np.zeros(0, np.int64)])
        for name in ("pair", "start", "form")
    )
    return Occurrences(scan.forms, pair, start, form)


class FrequencyTable(NamedTuple):
    """Occurrence counts per connective surface form (space-joined text).
    Counted from a corpus, it also holds the occurrences it counts."""

    entries: dict[str, int]
    occurrences: Occurrences | None = None

    def count(self, form: str) -> int:
        return self.entries.get(form, 0)


def count_occurrences(
    corpus: Bitext,
    inventory: Sequence[Form],
) -> FrequencyTable:
    """Count connective occurrences on the target side of the corpus.

    Matching is contiguous, on token boundaries, lowercased, longest-match
    first, non-overlapping. Every inventory form gets an entry (0 if absent).
    """
    if not inventory:
        raise PipelineError("empty connective inventory")
    found = find_occurrences(corpus.tgt, inventory)
    counts = found.counts()
    return FrequencyTable({" ".join(form): n for form, n in zip(found.forms, counts)}, found)


def write_frequency_table(table: FrequencyTable, path: str) -> None:
    """Export `form<TAB>count`, descending count then lexicographic form."""
    rows = sorted(table.entries.items(), key=lambda kv: (-kv[1], kv[0]))
    atomic_write_text(path, "".join(f"{form}\t{count}\n" for form, count in rows))


def read_frequency_table(path: str) -> FrequencyTable:
    entries: dict[str, int] = {}
    for lineno, (form, count) in read_rows(path, 2, "bad frequency row at line {lineno}"):
        try:
            entries[form] = int(count)
        except ValueError as exc:
            raise PipelineError(f"{path}: bad frequency row at line {lineno}") from exc
    return FrequencyTable(entries)
