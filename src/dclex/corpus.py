"""Parallel corpus loading, tokenization, and connective frequency counting."""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import PipelineError
from .fileio import atomic_write_text, read_text_strict
from .parallel import process_chunks

if TYPE_CHECKING:
    from .inventory import Connective


@dataclass(frozen=True)
class TokenizerOptions:
    """Tokenizer and loader settings.

    skip_empty: drop line pairs where both sides are empty; when false any
    empty line is an error. A line empty on one side only is always an error.
    """

    lowercase: bool = True
    skip_empty: bool = True


@dataclass(frozen=True)
class SentencePair:
    """One aligned sentence pair; `id` is the line number (0-based) in the
    files the corpus was loaded from."""

    id: int
    src_tokens: tuple[str, ...]
    tgt_tokens: tuple[str, ...]


@dataclass(frozen=True)
class Corpus:
    pairs: Sequence[SentencePair]

    def __len__(self) -> int:
        return len(self.pairs)


class PairColumns(Sequence[SentencePair]):
    """Pairs 0..n-1 held as a source and a target column, pair k made when it
    is read. The columns hold token tuples, or lines that `split` splits on
    whitespace."""

    __slots__ = ("src", "tgt", "split")

    def __init__(self, src: Sequence, tgt: Sequence, split: bool = False) -> None:
        self.src, self.tgt, self.split = src, tgt, split

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, k: int) -> SentencePair:  # type: ignore[override]
        if not 0 <= k < len(self.src):
            raise IndexError(k)
        src, tgt = self.src[k], self.tgt[k]
        if self.split:
            src, tgt = tuple(src.split()), tuple(tgt.split())
        return SentencePair(k, src, tgt)


@dataclass(frozen=True)
class FrequencyTable:
    """Occurrence counts per connective surface form (space-joined text)."""

    entries: dict[str, int]

    def count(self, form: str) -> int:
        return self.entries.get(form, 0)


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


class _Pieces(dict):
    """`_split_chunk` of each chunk looked up, computed on first lookup."""

    def __missing__(self, chunk: str) -> list[str]:
        found = self[chunk] = _split_chunk(chunk)
        return found


def tokenize(text: str, options: TokenizerOptions | None = None) -> list[str]:
    """Split on whitespace, detaching edge punctuation into its own tokens."""
    opts = options or TokenizerOptions()
    if opts.lowercase:
        text = text.lower()
    tokens: list[str] = []
    for chunk in text.split():
        tokens.extend(_split_chunk(chunk))
    return tokens


def _read_lines(path: str) -> list[str]:
    """The lines of a text file, split on "\n" only: `str.splitlines` would
    also split on characters such as U+2028 or form feed, and shift every
    later line out of step with the other side."""
    lines = read_text_strict(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _read_line_pairs(src_path: str, tgt_path: str) -> tuple[list[str], list[str]]:
    src_lines = _read_lines(src_path)
    tgt_lines = _read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise PipelineError(
            f"line count mismatch {len(src_lines)} vs {len(tgt_lines)} "
            f"({src_path} / {tgt_path})"
        )
    return src_lines, tgt_lines


def load_parallel_corpus(
    src_path: str,
    tgt_path: str,
    options: TokenizerOptions | None = None,
    limit: int | None = None,
) -> Corpus:
    """Load two line-aligned UTF-8 files into a tokenized corpus.

    Pair ids are line numbers; skipped empty pairs leave gaps rather than
    renumbering, so ids always point back into the input files.
    """
    opts = options or TokenizerOptions()
    src_lines, tgt_lines = _read_line_pairs(src_path, tgt_path)
    pieces = _Pieces()  # each distinct whitespace chunk, split once

    def tokens(line: str) -> tuple[str, ...]:
        # What `tokenize` gives, with each chunk looked up in `pieces`.
        if opts.lowercase:
            line = line.lower()
        return tuple(chain.from_iterable(map(pieces.__getitem__, line.split())))

    pairs: list[SentencePair] = []
    for lineno, (src_line, tgt_line) in enumerate(zip(src_lines, tgt_lines)):
        src_empty = not src_line.strip()
        tgt_empty = not tgt_line.strip()
        if src_empty and tgt_empty:
            if opts.skip_empty:
                continue
            raise PipelineError(f"empty line pair at line {lineno}")
        if src_empty or tgt_empty:
            side = src_path if src_empty else tgt_path
            raise PipelineError(f"{side}: empty line {lineno} has a non-empty counterpart")
        pairs.append(SentencePair(lineno, tokens(src_line), tokens(tgt_line)))
        if limit is not None and limit > 0 and len(pairs) >= limit:
            break
    return Corpus(tuple(pairs))


def _empty_token_line(lineno: int) -> PipelineError:
    return PipelineError(f"empty sentence at line {lineno} in tokenized corpus")


def load_token_corpus(src_path: str, tgt_path: str) -> Corpus:
    """Reload corpus files that are already tokenized (space-separated)."""
    src_lines, tgt_lines = _read_line_pairs(src_path, tgt_path)
    pairs = []
    for lineno, (src_line, tgt_line) in enumerate(zip(src_lines, tgt_lines)):
        src_tokens = tuple(src_line.split())
        tgt_tokens = tuple(tgt_line.split())
        if not src_tokens or not tgt_tokens:
            raise _empty_token_line(lineno)
        pairs.append(SentencePair(lineno, src_tokens, tgt_tokens))
    return Corpus(tuple(pairs))


def open_token_corpus(src_path: str, tgt_path: str) -> Corpus:
    """`load_token_corpus` with the same checks, but each pair's lines are
    split only when the pair is read."""
    src_lines, tgt_lines = _read_line_pairs(src_path, tgt_path)
    # A line splits into no tokens exactly when it strips to "".
    if not (all(map(str.strip, src_lines)) and all(map(str.strip, tgt_lines))):
        for lineno, (src_line, tgt_line) in enumerate(zip(src_lines, tgt_lines)):
            if not src_line.strip() or not tgt_line.strip():
                raise _empty_token_line(lineno)
    return Corpus(PairColumns(src_lines, tgt_lines, split=True))


def write_token_file(sentences: Iterable[Sequence[str]], path: str) -> None:
    atomic_write_text(path, "".join(" ".join(tokens) + "\n" for tokens in sentences))


# ---------------------------------------------------------------------------
# Longest-match connective scanning
# ---------------------------------------------------------------------------

MatchTable = dict[str, tuple[tuple[str, ...], ...]]


def build_match_table(forms: Iterable[Sequence[str]]) -> MatchTable:
    """Index surface forms by first token, longest first."""
    by_first: dict[str, list[tuple[str, ...]]] = {}
    for form in forms:
        form = tuple(form)
        if not form:
            raise PipelineError("empty connective surface form")
        by_first.setdefault(form[0], []).append(form)
    return {
        first: tuple(sorted(set(cands), key=lambda f: (-len(f), f)))
        for first, cands in by_first.items()
    }


def scan_matches(
    tokens: Sequence[str], table: MatchTable
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield (start, form) for non-overlapping longest matches, left to right.

    Only a position whose token begins some form can start a match, so only
    those are tried, each unless an earlier match covers it."""
    n = len(tokens)
    free = 0  # the first position no match covers
    for i in [i for i, token in enumerate(tokens) if token in table]:
        if i < free:
            continue
        for form in table[tokens[i]]:
            if i + len(form) <= n and tuple(tokens[i : i + len(form)]) == form:
                yield i, form
                free = i + len(form)
                break


def count_occurrences(
    corpus: Corpus,
    inventory: Sequence["Connective"],
    threads: int = 1,
) -> FrequencyTable:
    """Count connective occurrences on the target side of the corpus.

    Matching is contiguous, on token boundaries, lowercased, longest-match
    first, non-overlapping. Every inventory form gets an entry (0 if absent).
    """
    if not inventory:
        raise PipelineError("empty connective inventory")
    forms = list(dict.fromkeys(c.surface for c in inventory))
    table = build_match_table(forms)

    def chunk_counts(pairs: Sequence[SentencePair]) -> Counter:
        counts: Counter = Counter()
        for pair in pairs:
            lowered = tuple(map(str.lower, pair.tgt_tokens))
            for _, form in scan_matches(lowered, table):
                counts[form] += 1
        return counts

    totals: Counter = Counter()
    for part in process_chunks(chunk_counts, corpus.pairs, threads):
        totals.update(part)
    return FrequencyTable({" ".join(form): totals[form] for form in forms})


def write_frequency_table(table: FrequencyTable, path: str) -> None:
    """Export `form<TAB>count`, descending count then lexicographic form."""
    rows = sorted(table.entries.items(), key=lambda kv: (-kv[1], kv[0]))
    atomic_write_text(path, "".join(f"{form}\t{count}\n" for form, count in rows))


def read_frequency_table(path: str) -> FrequencyTable:
    entries: dict[str, int] = {}
    for lineno, line in enumerate(read_text_strict(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            form, count = line.split("\t")
            entries[form] = int(count)
        except ValueError as exc:
            raise PipelineError(f"{path}: bad frequency row at line {lineno}") from exc
    return FrequencyTable(entries)
