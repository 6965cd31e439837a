"""Acceptance suite: nine end-to-end correctness criteria.

Each test prints one `criterion N: PASS` line (visible with `pytest -s`) and
enforces a wall-clock budget where the criterion pins one. Full-scale corpus
results from the literature (recall ~0.81, AveP ~0.68 on millions of pairs)
are out of desk-scale reach and are treated as external validation targets;
everything here must hold exactly, at this scale, on every run.
"""

import random
import time
from fractions import Fraction

import pytest

from dclex import alignment
from dclex.alignment import Links, symmetrize, train_model1
from dclex.cli import ARTIFACTS, main
from dclex.corpus import Bitext, Corpus, process_chunks
from dclex.evaluation import evaluate
from dclex.lexicon import LexiconEntry, RankedLexicon, group_sites, sample_evidence
from dclex.phrasetable import build_phrase_table, connective_occurrences
from dclex.tagging import Tags, fuse_corpus, split_fused_token

import planted
from oracles import (
    average_precision_reference,
    connective_boxes_reference,
    connective_sources_reference,
    curve11_reference,
)


def judged(flags, n):
    """`evaluate`'s arguments for a ranking judged as `flags` against n gold
    pairs: rank r retrieves the gold pair of dc{r} when flags[r], and the
    gold pairs no rank retrieves are those of missed{j}."""
    ranked = RankedLexicon(
        tuple(LexiconEntry(f"dc{i}", "REL", Fraction(1), 1, 1) for i in range(len(flags)))
    )
    hits = [f"dc{i}" for i, flag in enumerate(flags) if flag]
    missed = [f"missed{j}" for j in range(n - len(hits))]
    return ranked, frozenset((dc, "GOLD") for dc in hits + missed), {"REL": "GOLD"}


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    """The 2,000-pair planted corpus with one full pipeline run."""
    root = tmp_path_factory.mktemp("planted")
    config = planted.generate(root)
    started = time.perf_counter()
    code = main(["run", "all", "--config", str(config)])
    elapsed = time.perf_counter() - started
    assert code == 0
    return root, config, elapsed


def test_c1_metric_oracle_equivalence():
    started = time.perf_counter()

    fixture = evaluate(*judged([1, 0, 1], n=2))
    assert fixture.avep == Fraction(5, 6)
    assert fixture.curve11[:6] == (Fraction(1),) * 6
    assert fixture.curve11[6:] == (Fraction(2, 3),) * 5

    rng = random.Random(20240001)
    for _ in range(200):
        n = rng.randint(1, 100)
        length = rng.randint(1, 1000)
        hits = rng.randint(0, min(n, length))
        flags = [True] * hits + [False] * (length - hits)
        rng.shuffle(flags)
        report = evaluate(*judged(flags, n))
        assert report.avep == average_precision_reference(flags, n)
        assert report.curve11 == curve11_reference(flags, n)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print("criterion 1: PASS — metrics match the brute-force oracle exactly")


def test_c2_em_training_contracts():
    started = time.perf_counter()

    pairs = [
        (("the", "house"), ("la", "maison")),
        (("the", "flower"), ("la", "fleur")),
    ]
    table = train_model1(pairs, iterations=10, use_null=False)
    assert table.prob("the", "la") >= 0.9
    for e, row in table.probs.items():
        assert abs(sum(row.values()) - 1.0) <= 1e-9, e
    lls = table.log_likelihoods
    assert len(lls) == 10
    assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:])), lls

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    print("criterion 2: PASS — EM anchors t(la|the), rows normalized, LL monotone")


def test_c3_phrase_extraction_equals_brute_force():
    started = time.perf_counter()

    # The source token each target connective occurrence counts for is the
    # one source token of a consistent box over exactly its span.
    rng = random.Random(20240003)
    vocab = ["p", "q", "r", "s"]
    forms = [("p",), ("q", "r"), ("q", "r", "s"), ("s", "s")]
    occurrences = 0
    for _ in range(500):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        src = tuple(rng.choice(vocab) for _ in range(n))
        tgt = tuple(rng.choice(vocab) for _ in range(m))
        links = frozenset(
            (i, j) for i in range(n) for j in range(m) if rng.random() < 0.15
        )
        max_len = rng.randint(1, 8)
        got = [
            found[:4]
            for found in connective_occurrences(
                [(src, tgt)], Links.of([links]), forms, [], [], max_len
            )
        ]
        want = connective_boxes_reference((src, tgt), links, forms, max_len)
        assert got == want, (src, tgt, sorted(links), max_len)
        assert got == list(connective_sources_reference([(src, tgt)], [links], forms, max_len))
        occurrences += len(got)
    assert occurrences

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s"
    print("criterion 3: PASS — connective sources equal consistent-box enumeration (500 pairs)")


def test_c4_symmetrization_sandwich_and_idempotence():
    started = time.perf_counter()

    rng = random.Random(20240004)
    fwd_sets, bwd_sets = [], []
    for _ in range(500):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        cells = [(i, j) for i in range(n) for j in range(m)]
        fwd_sets.append(frozenset(c for c in cells if rng.random() < 0.3))
        bwd_sets.append(frozenset(c for c in cells if rng.random() < 0.3))
    fwd, bwd = Links.of(fwd_sets), Links.of(bwd_sets)
    inter, union, grown = (
        symmetrize(fwd, bwd, h) for h in ("intersection", "union", "grow-diag-final")
    )
    idem = symmetrize(fwd, fwd, "grow-diag-final")
    for k, links in enumerate(fwd_sets):
        assert set(inter.pair(k)) <= set(grown.pair(k)) <= set(union.pair(k))
        assert set(idem.pair(k)) == links

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 4 took {elapsed:.1f}s"
    print("criterion 4: PASS — intersection ⊆ grow-diag-final ⊆ union; idempotent")


def test_c5_planted_signal_end_to_end(planted_run):
    root, _, elapsed = planted_run

    lexicon = (root / "out" / ARTIFACTS["lexicon"]).read_text(encoding="utf-8")
    top = lexicon.splitlines()[0].split("\t")
    assert (top[0], top[1]) == ("blik tak", "REL_A"), lexicon.splitlines()[:3]
    assert abs(float(top[2]) - 0.9) <= 0.1

    report = (root / "out" / ARTIFACTS["eval_report"]).read_text(encoding="utf-8")
    assert "pair_recall\t1.000000" in report
    assert "avep\t1.000000" in report

    assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s"
    print("criterion 5: PASS — planted signal recovered at prob ~0.9, recall/AveP 1.0")


def test_c6_frequency_threshold_boundary(planted_run, tmp_path_factory):
    root, _, _ = planted_run

    # Planted with min_freq - 1 = 49 occurrences: absent from the lexicon,
    # although its alignment evidence exists.
    lexicon = (root / "out" / ARTIFACTS["lexicon"]).read_text(encoding="utf-8")
    records = (root / "out" / ARTIFACTS["dc_records"]).read_text(encoding="utf-8")
    assert "gorp nee" not in lexicon
    assert "gorp nee" in records

    # Same corpus recipe with the count raised to min_freq = 50: present.
    at_root = tmp_path_factory.mktemp("planted-at-threshold")
    config = planted.generate(at_root, thresh_count=50)
    assert main(["run", "all", "--config", str(config)]) == 0
    lexicon_at = (at_root / "out" / ARTIFACTS["lexicon"]).read_text(encoding="utf-8")
    rows = [line.split("\t") for line in lexicon_at.splitlines()]
    gorp = [row for row in rows if row[0] == "gorp nee"]
    assert len(gorp) == 1 and gorp[0][1] == "REL_B"
    assert int(gorp[0][4]) == 50

    print("criterion 6: PASS — 49 occurrences excluded, 50 included (min_freq 50)")


def test_c7_chunk_size_determinism(planted_run, monkeypatch):
    root, config, _ = planted_run

    # Every chunked loop, the EM chunks included, in chunks of 7 pairs.
    monkeypatch.setattr(process_chunks, "__defaults__", (7,))
    monkeypatch.setattr(alignment, "CHUNK_SIZE", 7)
    again = root / "out-chunked"
    assert main(["run", "all", "--config", str(config), "--output", str(again)]) == 0
    names = sorted(path.name for path in (root / "out").iterdir())
    assert names == sorted(path.name for path in again.iterdir())
    for name in names:
        # The manifest holds timings and the EM log-likelihood, a sum of
        # per-chunk sums.
        if name != ARTIFACTS["manifest"]:
            one, other = ((out / name).read_bytes() for out in (root / "out", again))
            assert one == other, f"{name} differs between chunk sizes"

    print("criterion 7: PASS — runs with 1,024- and 7-pair chunks byte-identical")


def test_c8_fusion_round_trip():
    rng = random.Random(20240008)
    alphabet = "abcdefgh'-"
    relations = ["REL_A", "Comparison.Concession", "Contingency.Cause.Reason"]

    for _ in range(1000):
        n = rng.randint(1, 14)
        tokens = tuple(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
            for _ in range(n)
        )
        spans = []
        cursor = 0
        while cursor < n:
            start = rng.randint(cursor, n - 1)
            end = min(n - 1, start + rng.randint(0, 2))
            if rng.random() < 0.5:
                spans.append((start, end, rng.choice(relations)))
            cursor = end + 1
        tags = Tags([0] * len(spans), *zip(*spans)) if spans else Tags([], [], [], [])
        fused = fuse_corpus([tokens], tags)[0]

        # Unfuse: each fused token must split back into the original span and
        # relation; splicing the splits back together must recover the input.
        rebuilt = []
        ann_index = 0
        for position, token in enumerate(fused):
            expected = spans[ann_index] if ann_index < len(spans) else None
            if expected is not None and position == expected[0] - sum(
                e - s for s, e, _ in spans[:ann_index]
            ):
                s, e, relation = expected
                surface, rel = split_fused_token(token)
                assert surface == tokens[s : e + 1]
                assert rel == relation
                rebuilt.extend(surface)
                ann_index += 1
            else:
                rebuilt.append(token)
        assert ann_index == len(spans)
        assert tuple(rebuilt) == tokens

    print("criterion 8: PASS — 1,000 fuse/unfuse round-trips exact")


def test_c9_evidence_sampling_fixture():
    # Exactly three of the five pairs support (même si, Concession).
    src_sents = [
        ("even_though-Concession", "x"),
        ("if-Condition", "x"),
        ("although-Concession", "y"),
        ("plain", "text"),
        ("although-Concession", "z"),
    ]
    tgt_sents = [
        ("même", "si", "a"),
        ("même", "si", "b"),
        ("c", "même", "si"),
        ("même", "si"),
        ("même", "si", "d"),
    ]
    links = [
        {(0, 0), (0, 1)},
        {(0, 0), (0, 1)},
        {(0, 1), (0, 2)},
        {(0, 0)},
        {(0, 0), (1, 2)},
    ]
    corpus = Bitext.of(list(zip(src_sents, tgt_sents)))
    alignments = Links.of(links)
    inventory = [("même", "si")]
    src_inventory = [("even", "though"), ("if",), ("although",)]
    relations = ["Concession", "Condition"]
    table = build_phrase_table(
        list(zip(src_sents, tgt_sents)), alignments, inventory, src_inventory, relations
    )
    sites = group_sites(corpus, table.sites, inventory, src_inventory, relations)
    sites = sites[("même si", "Concession")]

    quoted = Corpus(corpus)
    got = sample_evidence(quoted, sites, k=5, seed=3)
    assert sorted(ex.pair_id for ex in got) == [0, 2, 4]

    once = sample_evidence(quoted, sites, k=2, seed=3)
    again = sample_evidence(quoted, sites, k=2, seed=3)
    assert once == again and len(once) == 2

    print("criterion 9: PASS — evidence returns all 3 qualifying pairs; seeded sample stable")
