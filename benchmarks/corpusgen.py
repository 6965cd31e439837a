"""Seeded synthetic parallel corpus with a known connective lexicon.

English (source) words `e<k>` translate one-to-one to French (target) words
`f<k>`; word ranks follow a Zipf law. A pair carries at most one discourse
connective. Connective `i` has a fixed English form, French form and relation
that do not depend on the seed (see `design`), so the ground truth is stable
across seeds while the sampled corpus is not. Noise mirrors what makes real
lexicon induction hard:

- plain words dropped on the French side, and adjacent French units swapped;
- the French side leaving a connective out, or translating it with another
  connective's form;
- connectives with a second gold sense that the default-sense tagger never
  assigns;
- nested French forms: with `nested_share` > 0, some French forms extend a
  shorter form that is itself a connective and occurs on its own, by one of
  the most frequent plain French words (as `même si` extends `même`).

Connective frequencies are counted by scanning the written French side for
longest, non-overlapping matches, as the pipeline's definition requires: a
shorter form followed by its extension word counts as the longer form.

The same spec and seed give byte-identical files.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ZIPF_EXPONENT = 1.0
DROP_RATE = 0.05  # plain word with no French counterpart
SWAP_RATE = 0.1  # adjacent French units swapped
DC_DROP_RATE = 0.1  # connective left untranslated
ALT_RATE = 0.05  # connective translated by another connective's form
AMBIGUOUS_EVERY = 4  # every n-th connective has a second gold sense


@dataclass(frozen=True)
class CorpusSpec:
    pairs: int
    vocab: int
    min_len: int
    max_len: int
    connectives: int
    relations: int
    dc_rate: float  # share of pairs that carry a connective
    nested_share: float = 0.0  # share of French forms that extend a shorter one


@dataclass(frozen=True)
class Connective:
    en: tuple[str, ...]
    fr: tuple[str, ...]
    relation: int
    second: int | None  # gold-only sense the tagger never assigns


@dataclass(frozen=True)
class GroundTruth:
    """What the generator emitted, for the correctness gate."""

    fr_counts: dict[str, int]  # longest-match occurrences of each French form
    en_count: int  # connective occurrences on the English side
    gold: frozenset[tuple[str, str]]  # (French form, gold relation)
    relation_map: dict[str, str]  # induced relation -> gold relation


def design(spec: CorpusSpec) -> list[Connective]:
    """Seed-independent connective lexicon."""
    step = round(1 / spec.nested_share) if spec.nested_share else 0
    out: list[Connective] = []
    for i in range(spec.connectives):
        en = (f"c{i}",) if i % 2 == 0 else (f"c{i}", f"d{i}")
        if step and i % step == step - 1:
            fr = out[i - 1].fr + (f"f{(i // step) % 3}",)
        else:
            fr = (f"k{i}",) if i % 2 == 0 else (f"k{i}", f"m{i}")
        second = None
        if i % AMBIGUOUS_EVERY == AMBIGUOUS_EVERY - 1:
            second = (i + spec.relations // 2) % spec.relations
        out.append(Connective(en, fr, i % spec.relations, second))
    return out


def longest_matches(words: list[str], forms: list[tuple[str, ...]]):
    """Yield (start, form) for non-overlapping longest matches, left to right."""
    by_first: dict[str, list[tuple[str, ...]]] = {}
    for form in sorted(forms, key=len, reverse=True):
        by_first.setdefault(form[0], []).append(form)
    j = 0
    while j < len(words):
        for form in by_first.get(words[j], ()):
            if tuple(words[j : j + len(form)]) == form:
                yield j, form
                j += len(form)
                break
        else:
            j += 1


def _sample_pair(
    rng: random.Random, spec: CorpusSpec, cum: list[float], lexicon: list[Connective]
) -> tuple[list[str], list[str], bool]:
    length = rng.randint(spec.min_len, spec.max_len)
    ids = rng.choices(range(spec.vocab), cum_weights=cum, k=length)
    units = [([f"e{k}"], [] if rng.random() < DROP_RATE else [f"f{k}"]) for k in ids]
    has_dc = rng.random() < spec.dc_rate
    if has_dc:
        idx = rng.randrange(len(lexicon))
        roll = rng.random()
        fr_form: tuple[str, ...] = ()
        if roll < DC_DROP_RATE:
            pass
        elif roll < DC_DROP_RATE + ALT_RATE:
            other = (idx + 1 + rng.randrange(len(lexicon) - 1)) % len(lexicon)
            fr_form = lexicon[other].fr
        else:
            fr_form = lexicon[idx].fr
        unit = (list(lexicon[idx].en), list(fr_form))
        units.insert(rng.randint(0, length), unit)
    fr_units = [fr for _, fr in units]
    for p in range(len(fr_units) - 1):
        if rng.random() < SWAP_RATE:
            fr_units[p], fr_units[p + 1] = fr_units[p + 1], fr_units[p]
    en = [tok for en_unit, _ in units for tok in en_unit]
    fr = list(itertools.chain.from_iterable(fr_units))
    if not fr:
        fr = [f"f{ids[0]}"]
    return en, fr, has_dc


def generate(root: Path, spec: CorpusSpec, seed: int, config: dict[str, object]) -> tuple[Path, GroundTruth]:
    """Write corpus, inventories, senses, gold lexicon, relation map and a
    pipeline config under `root`; `config` adds or overrides config keys."""
    rng = random.Random(seed)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    lexicon = design(spec)
    cum = list(itertools.accumulate(1.0 / (k + 1) ** ZIPF_EXPONENT for k in range(spec.vocab)))

    en_lines, fr_lines = [], []
    fr_counts: Counter = Counter()
    en_count = 0
    forms = [c.fr for c in lexicon]
    for _ in range(spec.pairs):
        en, fr, has_dc = _sample_pair(rng, spec, cum, lexicon)
        en_lines.append(" ".join(en))
        fr_lines.append(" ".join(fr))
        en_count += has_dc
        fr_counts.update(form for _, form in longest_matches(fr, forms))

    rel = [f"Rel{r}" for r in range(spec.relations)]
    gold_rel = [f"Gold{r}" for r in range(spec.relations)]
    gold = set()
    for c in lexicon:
        gold.add((" ".join(c.fr), gold_rel[c.relation]))
        if c.second is not None:
            gold.add((" ".join(c.fr), gold_rel[c.second]))

    def write(name: str, lines) -> Path:
        path = root / name
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return path

    settings: dict[str, object] = {
        "src_corpus": write("corpus.en", en_lines),
        "tgt_corpus": write("corpus.fr", fr_lines),
        "src_inventory": write("inventory.en", (" ".join(c.en) for c in lexicon)),
        "tgt_inventory": write("inventory.fr", (" ".join(c.fr) for c in lexicon)),
        "default_senses": write(
            "senses.tsv", (f"{' '.join(c.en)}\t{rel[c.relation]}" for c in lexicon)
        ),
        "gold_lexicon": write("gold.tsv", (f"{fr}\t{g}" for fr, g in sorted(gold))),
        "relation_map": write("map.tsv", (f"{r}\t{g}" for r, g in zip(rel, gold_rel))),
        "induced_relations": write("relations_induced.txt", rel),
        "gold_relations": write("relations_gold.txt", gold_rel),
        "output_dir": root / "out",
        **config,
    }
    cfg = write("pipeline.cfg", (f"{key} = {value}" for key, value in settings.items()))
    truth = GroundTruth(
        {" ".join(form): fr_counts[form] for form in forms},
        en_count,
        frozenset(gold),
        dict(zip(rel, gold_rel)),
    )
    return cfg, truth
