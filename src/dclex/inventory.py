"""Connective inventories, relation inventories, gold lexicon, relation map."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources
from typing import Literal

from .corpus import FrequencyTable, tokenize, TokenizerOptions
from .errors import PipelineError
from .fileio import iter_data_lines, read_text_strict

logger = logging.getLogger(__name__)

_TOKENIZE_LOWER = TokenizerOptions(lowercase=True)

Side = Literal["source", "target"]


@dataclass(frozen=True)
class Connective:
    surface: tuple[str, ...]
    language: Side

    @property
    def text(self) -> str:
        return " ".join(self.surface)


@dataclass(frozen=True)
class GoldLexicon:
    """Reference (connective text, relation) pairs for evaluation."""

    entries: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class RelationMap:
    """Functional mapping from induced relation labels to gold labels."""

    pairs: dict[str, str]

    def project(self, relation: str) -> str | None:
        """Gold label for an induced label, or None when unmapped."""
        return self.pairs.get(relation)


def load_connective_inventory(path: str, language: Side) -> list[Connective]:
    """Load one surface form per line; lowercased, deduplicated in order."""
    seen: dict[tuple[str, ...], None] = {}
    for lineno, payload in iter_data_lines(read_text_strict(path)):
        surface = tuple(tokenize(payload, _TOKENIZE_LOWER))
        if not surface:
            raise PipelineError(f"{path}: no tokens in surface form at line {lineno}")
        if surface in seen:
            logger.warning("%s: duplicate surface form %r at line %d", path, " ".join(surface), lineno)
            continue
        seen[surface] = None
    if not seen:
        raise PipelineError(f"{path}: empty connective inventory")
    return [Connective(surface, language) for surface in seen]


def _parse_relation_inventory(text: str, origin: str) -> list[str]:
    labels: list[str] = []
    for lineno, payload in iter_data_lines(text):
        if any(ch.isspace() for ch in payload) or "-" in payload:
            raise PipelineError(
                f"{origin}: relation label {payload!r} at line {lineno} "
                "must not contain whitespace or '-'"
            )
        if payload in labels:
            logger.warning("%s: duplicate relation label %r at line %d", origin, payload, lineno)
            continue
        labels.append(payload)
    if not labels:
        raise PipelineError(f"{origin}: empty relation inventory")
    return labels


def load_relation_inventory(path: str) -> list[str]:
    return _parse_relation_inventory(read_text_strict(path), str(path))


def _parse_gold_lexicon(text: str, origin: str, relations: list[str] | None) -> GoldLexicon:
    entries: set[tuple[str, str]] = set()
    for lineno, payload in iter_data_lines(text):
        parts = payload.split("\t")
        if len(parts) != 2:
            raise PipelineError(f"{origin}: expected `surface<TAB>relation` at line {lineno}")
        surface = " ".join(tokenize(parts[0], _TOKENIZE_LOWER))
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
    return GoldLexicon(frozenset(entries))


def load_gold_lexicon(path: str, relations: list[str] | None = None) -> GoldLexicon:
    """Load `surface<TAB>relation` pairs, validating labels when given."""
    return _parse_gold_lexicon(read_text_strict(path), str(path), relations)


def restrict_gold(gold: GoldLexicon, freqs: FrequencyTable, min_freq: int) -> GoldLexicon:
    """Keep gold entries whose connective occurs at least `min_freq` times."""
    kept = frozenset(
        (surface, relation)
        for surface, relation in gold.entries
        if freqs.count(surface) >= min_freq
    )
    return GoldLexicon(kept)


def _parse_relation_map(
    text: str, origin: str, induced: list[str] | None, gold: list[str] | None
) -> RelationMap:
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
    return RelationMap(pairs)


def load_relation_map(
    path: str, induced: list[str] | None = None, gold: list[str] | None = None
) -> RelationMap:
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
) -> RelationMap:
    """The shipped map covers the two relations shared by both label sets."""
    return _parse_relation_map(_data_text("relation_map.tsv"), "<default relation map>", induced, gold)
