"""The input tables: connective inventories, relation inventories, the gold
lexicon, the relation map and the default-sense table, one loader each.

A connective inventory is a list of forms, each the lowercased tokens of one
surface; a gold lexicon is a set of (connective text, relation) pairs; a
relation map takes induced relation labels to gold labels; a default-sense
table takes a connective text to its relation label. A connective text is
a form's tokens, space-joined, so that it keys the form. The packaged default
relation inventories and relation map are files under the package's `data/`
directory, which the CLI reads with these same loaders when their config
keys are unset.
"""

from __future__ import annotations

import logging
from typing import Iterator

from .corpus import Form, FrequencyTable, tokenize
from .errors import PipelineError
from .fileio import iter_data_lines, read_text_strict

logger = logging.getLogger(__name__)

def load_connective_inventory(path: str) -> list[Form]:
    """Load one surface form per line; lowercased, deduplicated in order."""
    seen: dict[Form, None] = {}
    for lineno, payload in iter_data_lines(read_text_strict(path)):
        surface = tuple(tokenize(payload))
        if surface in seen:
            logger.warning("%s: duplicate surface form %r at line %d", path, " ".join(surface), lineno)
            continue
        seen[surface] = None
    if not seen:
        raise PipelineError(f"{path}: empty connective inventory")
    return list(seen)


def load_relation_inventory(path: str) -> list[str]:
    # Imported here: the stages that load no relation inventory, such as
    # ingest and report, then leave the tagger unloaded.
    from .tagging import check_label

    labels: list[str] = []
    for lineno, payload in iter_data_lines(read_text_strict(path)):
        check_label(payload, f"{path}: line {lineno}: ")
        if payload in labels:
            logger.warning("%s: duplicate relation label %r at line %d", path, payload, lineno)
            continue
        labels.append(payload)
    if not labels:
        raise PipelineError(f"{path}: empty relation inventory")
    return labels


def _rows(path: str, left: str, right: str) -> Iterator[tuple[int, str, str]]:
    """(lineno, left field, right field) of each `left<TAB>right` row of
    `path`, each field stripped; `left` and `right` name the columns in the
    message for a row of another width. Each line is stripped first, so
    neither field of a two-field row is empty."""
    for lineno, payload in iter_data_lines(read_text_strict(path)):
        parts = payload.split("\t")
        if len(parts) != 2:
            raise PipelineError(f"{path}: expected `{left}<TAB>{right}` at line {lineno}")
        yield lineno, parts[0].strip(), parts[1].strip()


def load_gold_lexicon(
    path: str, relations: list[str] | None = None
) -> frozenset[tuple[str, str]]:
    """Load `surface<TAB>relation` pairs, validating labels when given."""
    entries: set[tuple[str, str]] = set()
    for lineno, text, relation in _rows(path, "surface", "relation"):
        if relations is not None and relation not in relations:
            raise PipelineError(f"{path}: unknown relation label {relation!r} at line {lineno}")
        entries.add((" ".join(tokenize(text)), relation))
    if not entries:
        raise PipelineError(f"{path}: empty gold lexicon")
    return frozenset(entries)


def load_default_senses(path: str) -> dict[str, str]:
    """Load the `surface<TAB>relation` defaults of the heuristic tagger,
    keyed by surface; each relation must be a label a fused token can
    carry."""
    from .tagging import check_label

    senses: dict[str, str] = {}
    for lineno, text, relation in _rows(path, "surface", "relation"):
        check_label(relation, f"{path}: line {lineno}: ")
        surface = " ".join(tokenize(text))
        if surface in senses and senses[surface] != relation:
            raise PipelineError(f"{path}: conflicting senses for {surface!r} at line {lineno}")
        senses[surface] = relation
    if not senses:
        raise PipelineError(f"{path}: empty default-sense table")
    return senses


def restrict_gold(
    gold: frozenset[tuple[str, str]], freqs: FrequencyTable, min_freq: int
) -> frozenset[tuple[str, str]]:
    """Keep gold pairs whose connective occurs at least `min_freq` times."""
    return frozenset(
        (surface, relation) for surface, relation in gold if freqs.count(surface) >= min_freq
    )


def load_relation_map(
    path: str, induced: list[str] | None = None, gold: list[str] | None = None
) -> dict[str, str]:
    """Load `induced<TAB>gold` label pairs, validating labels when given."""
    pairs: dict[str, str] = {}
    for lineno, src, dst in _rows(path, "induced", "gold"):
        if induced is not None and src not in induced:
            raise PipelineError(f"{path}: unknown induced label {src!r} at line {lineno}")
        if gold is not None and dst not in gold:
            raise PipelineError(f"{path}: unknown gold label {dst!r} at line {lineno}")
        if src in pairs and pairs[src] != dst:
            raise PipelineError(f"{path}: induced label {src!r} mapped twice (line {lineno})")
        pairs[src] = dst
    if not pairs:
        raise PipelineError(f"{path}: empty relation map")
    return pairs
