"""Connective inventories, relation inventories, gold lexicon, relation map.

A connective inventory is a list of forms, each the lowercased tokens of one
surface; a gold lexicon is a set of (connective text, relation) pairs; a
relation map takes induced relation labels to gold labels.
"""

from __future__ import annotations

import logging
from importlib import resources

from .corpus import Form, FrequencyTable, tokenize
from .errors import PipelineError
from .fileio import iter_data_lines, read_text_strict

logger = logging.getLogger(__name__)

def load_connective_inventory(path: str) -> list[Form]:
    """Load one surface form per line; lowercased, deduplicated in order."""
    seen: dict[Form, None] = {}
    for lineno, payload in iter_data_lines(read_text_strict(path)):
        surface = tuple(tokenize(payload))
        if not surface:
            raise PipelineError(f"{path}: no tokens in surface form at line {lineno}")
        if surface in seen:
            logger.warning("%s: duplicate surface form %r at line %d", path, " ".join(surface), lineno)
            continue
        seen[surface] = None
    if not seen:
        raise PipelineError(f"{path}: empty connective inventory")
    return list(seen)


def _parse_relation_inventory(text: str, origin: str) -> list[str]:
    # Imported here: the stages that load no relation inventory, such as
    # ingest and report, then leave the tagger unloaded.
    from .tagging import check_label

    labels: list[str] = []
    for lineno, payload in iter_data_lines(text):
        check_label(payload, f"{origin}: line {lineno}: ")
        if payload in labels:
            logger.warning("%s: duplicate relation label %r at line %d", origin, payload, lineno)
            continue
        labels.append(payload)
    if not labels:
        raise PipelineError(f"{origin}: empty relation inventory")
    return labels


def load_relation_inventory(path: str) -> list[str]:
    return _parse_relation_inventory(read_text_strict(path), str(path))


def _parse_gold_lexicon(
    text: str, origin: str, relations: list[str] | None
) -> frozenset[tuple[str, str]]:
    entries: set[tuple[str, str]] = set()
    for lineno, payload in iter_data_lines(text):
        parts = payload.split("\t")
        if len(parts) != 2:
            raise PipelineError(f"{origin}: expected `surface<TAB>relation` at line {lineno}")
        surface = " ".join(tokenize(parts[0]))
        relation = parts[1].strip()
        if not surface or not relation:
            raise PipelineError(f"{origin}: empty field at line {lineno}")
        if relations is not None and relation not in relations:
            raise PipelineError(
                f"{origin}: unknown relation label {relation!r} at line {lineno}"
            )
        entries.add((surface, relation))
    if not entries:
        raise PipelineError(f"{origin}: empty gold lexicon")
    return frozenset(entries)


def load_gold_lexicon(
    path: str, relations: list[str] | None = None
) -> frozenset[tuple[str, str]]:
    """Load `surface<TAB>relation` pairs, validating labels when given."""
    return _parse_gold_lexicon(read_text_strict(path), str(path), relations)


def restrict_gold(
    gold: frozenset[tuple[str, str]], freqs: FrequencyTable, min_freq: int
) -> frozenset[tuple[str, str]]:
    """Keep gold pairs whose connective occurs at least `min_freq` times."""
    return frozenset(
        (surface, relation) for surface, relation in gold if freqs.count(surface) >= min_freq
    )


def _parse_relation_map(
    text: str, origin: str, induced: list[str] | None, gold: list[str] | None
) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, payload in iter_data_lines(text):
        parts = payload.split("\t")
        if len(parts) != 2:
            raise PipelineError(f"{origin}: expected `induced<TAB>gold` at line {lineno}")
        src, dst = parts[0].strip(), parts[1].strip()
        if not src or not dst:
            raise PipelineError(f"{origin}: empty field at line {lineno}")
        if induced is not None and src not in induced:
            raise PipelineError(f"{origin}: unknown induced label {src!r} at line {lineno}")
        if gold is not None and dst not in gold:
            raise PipelineError(f"{origin}: unknown gold label {dst!r} at line {lineno}")
        if src in pairs and pairs[src] != dst:
            raise PipelineError(
                f"{origin}: induced label {src!r} mapped twice (line {lineno})"
            )
        pairs[src] = dst
    if not pairs:
        raise PipelineError(f"{origin}: empty relation map")
    return pairs


def load_relation_map(
    path: str, induced: list[str] | None = None, gold: list[str] | None = None
) -> dict[str, str]:
    """Load `induced<TAB>gold` label pairs, validating labels when given."""
    return _parse_relation_map(read_text_strict(path), str(path), induced, gold)


# ---------------------------------------------------------------------------
# Packaged defaults
# ---------------------------------------------------------------------------

def _data_text(name: str) -> str:
    return (resources.files("dclex") / "data" / name).read_text("utf-8")


def default_induced_relations() -> list[str]:
    return _parse_relation_inventory(_data_text("induced_relations.txt"), "<default induced relations>")


def default_gold_relations() -> list[str]:
    return _parse_relation_inventory(_data_text("gold_relations.txt"), "<default gold relations>")


def default_relation_map(
    induced: list[str] | None = None, gold: list[str] | None = None
) -> dict[str, str]:
    """The shipped map covers the two relations shared by both label sets."""
    return _parse_relation_map(_data_text("relation_map.tsv"), "<default relation map>", induced, gold)
