"""Synthetic parallel corpus with a planted connective-translation signal.

The source pseudo-connective `zonk` (relation REL_A) co-occurs with the
target bigram `blik tak` at a controlled rate; a second pair `frub`/REL_B vs
`gorp nee` is planted with an exact occurrence count to probe the frequency
threshold. Everything else is deterministic 1-1 filler vocabulary, which
gives the word aligner an easy, unambiguous signal.
"""

from __future__ import annotations

import random
from pathlib import Path

FILLER_VOCAB = 40


def _filler_pair(rng: random.Random) -> tuple[list[str], list[str]]:
    ids = rng.sample(range(FILLER_VOCAB), rng.randint(3, 5))
    return [f"src{i}" for i in ids], [f"tgt{i}" for i in ids]


def _insert(tokens: list[str], extra: list[str], rng: random.Random) -> list[str]:
    pos = rng.randint(0, len(tokens))
    return tokens[:pos] + extra + tokens[pos:]


def generate(
    root: Path,
    *,
    pairs: int = 2000,
    dc_count: int = 100,
    cooccur_rate: float = 0.9,
    thresh_count: int = 49,
    seed: int = 7,
    min_freq: int = 50,
    iterations: int = 5,
    threads: int = 1,
    out_name: str = "out",
) -> Path:
    """Write corpus + config under `root`; returns the config file path.

    `threads` is written as a config line, which the pipeline logs and
    ignores, as configs written for older versions carry it."""
    rng = random.Random(seed)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)

    cooccur = round(dc_count * cooccur_rate)
    decoy = dc_count - cooccur  # `blik tak` without `zonk`
    lone = decoy  # `zonk` without `blik tak`, keeps zonk's own rate at 90%
    special = cooccur + decoy + lone + thresh_count
    assert special <= pairs

    roles = (
        ["cooccur"] * cooccur
        + ["decoy"] * decoy
        + ["lone"] * lone
        + ["thresh"] * thresh_count
        + ["filler"] * (pairs - special)
    )
    rng.shuffle(roles)

    src_lines = []
    tgt_lines = []
    for role in roles:
        src, tgt = _filler_pair(rng)
        if role == "cooccur":
            src = _insert(src, ["zonk"], rng)
            tgt = _insert(tgt, ["blik", "tak"], rng)
        elif role == "decoy":
            tgt = _insert(tgt, ["blik", "tak"], rng)
        elif role == "lone":
            src = _insert(src, ["zonk"], rng)
            tgt = _insert(tgt, ["durn"], rng)
        elif role == "thresh":
            src = _insert(src, ["frub"], rng)
            tgt = _insert(tgt, ["gorp", "nee"], rng)
        src_lines.append(" ".join(src))
        tgt_lines.append(" ".join(tgt))

    def write(name: str, text: str) -> Path:
        path = root / name
        path.write_text(text, encoding="utf-8")
        return path

    write("corpus.en", "\n".join(src_lines) + "\n")
    write("corpus.fr", "\n".join(tgt_lines) + "\n")
    write("inventory.en", "zonk\nfrub\n")
    write("inventory.fr", "blik tak\ngorp nee\n")
    write("senses.tsv", "zonk\tREL_A\nfrub\tREL_B\n")
    write("relations_induced.txt", "REL_A\nREL_B\n")
    write("relations_gold.txt", "GOLD_A\nGOLD_B\n")
    write("gold.tsv", "blik tak\tGOLD_A\n")
    write("map.tsv", "REL_A\tGOLD_A\n")
    config = write(
        "pipeline.cfg",
        "\n".join(
            [
                f"src_corpus = {root / 'corpus.en'}",
                f"tgt_corpus = {root / 'corpus.fr'}",
                f"src_inventory = {root / 'inventory.en'}",
                f"tgt_inventory = {root / 'inventory.fr'}",
                f"default_senses = {root / 'senses.tsv'}",
                f"gold_lexicon = {root / 'gold.tsv'}",
                f"relation_map = {root / 'map.tsv'}",
                f"induced_relations = {root / 'relations_induced.txt'}",
                f"gold_relations = {root / 'relations_gold.txt'}",
                f"output_dir = {root / out_name}",
                f"iterations = {iterations}",
                f"min_freq = {min_freq}",
                f"threads = {threads}",
                "seed = 11",
            ]
        )
        + "\n",
    )
    return config
