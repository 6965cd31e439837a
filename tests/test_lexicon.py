"""Lexicon construction, ranking, thresholding, and evidence sampling."""

import random
from fractions import Fraction

import pytest

from dclex.alignment import Links
from dclex.corpus import Bitext, Corpus, FrequencyTable
from dclex.errors import PipelineError
from dclex.inventory import Connective
from dclex.lexicon import (
    LexiconEntry,
    build_lexicon,
    format_evidence,
    group_sites,
    read_ranked_lexicon,
    sample_evidence,
    write_ranked_lexicon,
)
from dclex.phrasetable import DCAlignmentRecord, build_phrase_table, filter_dc_entries


def rec(fr_dc, en_dc, relation, count):
    return DCAlignmentRecord(fr_dc, en_dc, relation, count)


class TestBuildLexicon:
    def test_counts_sum_across_source_connectives(self):
        records = [
            rec("toutefois", "however", "Comparison.Concession", 30),
            rec("toutefois", "although", "Comparison.Concession", 20),
        ]
        lexicon = build_lexicon(records, FrequencyTable({"toutefois": 100}), min_freq=50)
        assert len(lexicon.entries) == 1
        entry = lexicon.entries[0]
        assert entry.aligned_count == 50
        assert entry.prob == Fraction(1, 2)
        assert entry.corpus_freq == 100

    def test_min_freq_boundary(self):
        records = [rec("au contraire", "instead", "Expansion.Substitution", 10)]
        below = build_lexicon(records, FrequencyTable({"au contraire": 49}), min_freq=50)
        at = build_lexicon(records, FrequencyTable({"au contraire": 50}), min_freq=50)
        assert below.entries == ()
        assert len(at.entries) == 1

    def test_records_without_frequency_are_fatal(self):
        records = [rec("fantôme", "ghost", "Expansion.Conjunction", 3)]
        with pytest.raises(PipelineError, match="corpus frequency 0"):
            build_lexicon(records, FrequencyTable({}), min_freq=0)

    def test_overcount_is_fatal(self):
        records = [
            rec("si", "if", "Contingency.Condition", 70),
            rec("si", "whether", "Expansion.Alternative", 50),
        ]
        with pytest.raises(PipelineError, match="'si' has 120 aligned occurrences"):
            build_lexicon(records, FrequencyTable({"si": 100}), min_freq=1)

    def test_probability_bounds_and_budget_on_random_inputs(self):
        rng = random.Random(71)
        for _ in range(50):
            records = []
            freqs = {}
            for c in range(rng.randint(1, 5)):
                dc = f"dc{c}"
                freqs[dc] = budget = rng.randint(1, 30)
                for r in range(rng.randint(1, 4)):
                    count = rng.randint(0, budget)
                    budget -= count
                    records.append(rec(dc, f"en{r}", f"REL_{r}", count))
            lexicon = build_lexicon(records, FrequencyTable(freqs), min_freq=1)
            per_dc: dict[str, int] = {}
            for e in lexicon.entries:
                assert 0 < e.prob <= 1
                assert 1 <= e.aligned_count <= e.corpus_freq
                per_dc[e.fr_dc] = per_dc.get(e.fr_dc, 0) + e.aligned_count
            for dc, total in per_dc.items():
                assert total <= freqs[dc]

    def test_ranking_order(self):
        records = [
            rec("b", "x", "REL_1", 8),
            rec("a", "x", "REL_1", 8),
            rec("c", "x", "REL_1", 9),
            rec("d", "x", "REL_1", 40),
        ]
        freqs = FrequencyTable({"a": 10, "b": 10, "c": 10, "d": 50})
        lexicon = build_lexicon(records, freqs, min_freq=1)
        ranked = [(e.fr_dc, e.prob, e.aligned_count) for e in lexicon.entries]
        # 0.9 first; the 0.8s follow with the tie broken a < b.
        assert [r[0] for r in ranked] == ["c", "d", "a", "b"]
        assert ranked[1][2] == 40  # equal prob 0.8: higher aligned count wins

    def test_record_order_is_irrelevant(self):
        rng = random.Random(17)
        records = [
            rec(f"dc{i % 3}", f"en{i % 2}", f"REL_{i % 4}", i + 1) for i in range(12)
        ]
        freqs = FrequencyTable({"dc0": 40, "dc1": 40, "dc2": 40})
        want = build_lexicon(records, freqs, min_freq=1)
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert build_lexicon(shuffled, freqs, min_freq=1) == want

    def test_negative_inputs_are_fatal(self):
        with pytest.raises(PipelineError, match="min_freq"):
            build_lexicon([], FrequencyTable({}), min_freq=-1)
        with pytest.raises(PipelineError, match="negative count"):
            build_lexicon([rec("a", "b", "R", -1)], FrequencyTable({"a": 5}), 1)


class TestLexiconIO:
    def test_round_trip_preserves_exact_probabilities(self, tmp_path):
        entries = (
            LexiconEntry("même si", "Comparison.Concession", Fraction(2, 3), 40, 60),
            LexiconEntry("si", "Contingency.Condition", Fraction(1, 7), 10, 70),
        )
        lexicon = build_lexicon(
            [
                rec("même si", "even though", "Comparison.Concession", 40),
                rec("si", "if", "Contingency.Condition", 10),
            ],
            FrequencyTable({"même si": 60, "si": 70}),
            min_freq=1,
        )
        assert lexicon.entries == entries
        path = tmp_path / "lex.tsv"
        write_ranked_lexicon(lexicon, str(path))
        assert read_ranked_lexicon(str(path)) == lexicon

    def test_rendered_probability_has_six_decimals(self, tmp_path):
        lexicon = build_lexicon(
            [rec("si", "if", "Contingency.Condition", 1)],
            FrequencyTable({"si": 3}),
            min_freq=1,
        )
        path = tmp_path / "lex.tsv"
        write_ranked_lexicon(lexicon, str(path))
        assert path.read_text(encoding="utf-8") == (
            "si\tContingency.Condition\t0.333333\t1\t3\n"
        )

    def test_malformed_rows_are_fatal(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("si\tREL\t0.5\tx\t2\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="line 1"):
            read_ranked_lexicon(str(path))
        path.write_text("si\tREL\t0.5\t1\t0\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="line 1"):
            read_ranked_lexicon(str(path))


def evidence_fixture():
    """Six sentence pairs; pairs 0, 2, 5 support (même si, Comparison.Concession)."""
    src_sents = [
        ("even_though-Comparison.Concession", "late"),  # qualifies
        ("if-Contingency.Condition", "late"),  # wrong relation
        ("although-Comparison.Concession", "x"),  # qualifies
        ("plain", "words"),  # no connective
        ("even_though-Comparison.Concession", "y"),  # no link to the span
        ("although-Comparison.Concession", "z"),  # qualifies
    ]
    tgt_sents = [
        ("même", "si", "tard"),
        ("même", "si", "tard"),
        ("même", "si"),
        ("bon", "alors"),
        ("même", "si"),
        ("tout", "même", "si"),
    ]
    alignments = Links.of([
        {(0, 0), (0, 1), (1, 2)},
        {(0, 0), (0, 1)},
        {(0, 1)},
        {(0, 0)},
        {(1, 0)},  # links "y", not the connective span
        {(0, 2)},
    ])
    return corpus_of(list(zip(src_sents, tgt_sents))), alignments


def corpus_of(pairs):
    """A corpus of (source, target) token sequences; pair k is pairs[k]."""
    return Bitext.of(pairs)


INVENTORY = [Connective(("même", "si")), Connective(("tard",))]
SRC_INVENTORY = [
    Connective(("even", "though")),
    Connective(("although",)),
    Connective(("if",)),
]
RELATIONS = ["Comparison.Concession", "Contingency.Condition"]


def grouped_sites(corpus, alignments, tgt_inventory=INVENTORY):
    """The counted sites of `corpus`, grouped by (fr_dc, relation)."""
    table = build_phrase_table(corpus, alignments, tgt_inventory, SRC_INVENTORY, RELATIONS)
    return group_sites(corpus, table.sites, tgt_inventory, SRC_INVENTORY, RELATIONS)


def evidence(corpus, alignments, fr_dc, relation, k, seed):
    sites = grouped_sites(corpus, alignments)
    return sample_evidence(Corpus(corpus), sites.get((fr_dc, relation), []), k, seed)


class TestEvidence:
    def test_all_qualifying_pairs_returned_when_k_large(self):
        corpus, alignments = evidence_fixture()
        got = evidence(
            corpus, alignments, "même si", "Comparison.Concession", k=5, seed=1
        )
        assert sorted(ex.pair_id for ex in got) == [0, 2, 5]

    def test_sample_is_seed_deterministic(self):
        corpus, alignments = evidence_fixture()
        first = evidence(
            corpus, alignments, "même si", "Comparison.Concession", k=2, seed=9
        )
        second = evidence(
            corpus, alignments, "même si", "Comparison.Concession", k=2, seed=9
        )
        assert first == second
        assert len(first) == 2
        assert {ex.pair_id for ex in first} <= {0, 2, 5}

    def test_highlights_both_sides(self):
        corpus, alignments = evidence_fixture()
        got = evidence(
            corpus, alignments, "même si", "Comparison.Concession", k=5, seed=1
        )
        by_id = {ex.pair_id: ex for ex in got}
        assert by_id[0].tgt_text == "__même si__ tard"
        assert by_id[0].src_text == "__even_though-Comparison.Concession__ late"
        assert by_id[5].tgt_text == "tout __même si__"

    def test_wrong_relation_does_not_qualify(self):
        corpus, alignments = evidence_fixture()
        got = evidence(
            corpus, alignments, "même si", "Contingency.Condition", k=5, seed=1
        )
        assert [ex.pair_id for ex in got] == [1]

    def test_bad_arguments_are_fatal(self):
        corpus, alignments = evidence_fixture()
        with pytest.raises(PipelineError, match="sample size"):
            evidence(corpus, alignments, "même si", "R", k=0, seed=1)
        shorter = Links.of(alignments.pair(k) for k in range(len(alignments) - 1))
        with pytest.raises(PipelineError, match="parallel"):
            grouped_sites(corpus, shorter)

    def test_link_outside_the_connective_does_not_qualify(self):
        # The fused token links into "même si" and also to "tard": its
        # one-token box is not consistent with the connective span.
        pairs = [(("even_though-Comparison.Concession", "late"), ("même", "si", "tard"))]
        alignments = Links.of([{(0, 0), (0, 2)}])
        assert evidence(
            corpus_of(pairs), alignments, "même si", "Comparison.Concession", k=5, seed=1
        ) == []

    def test_one_pass_serves_every_entry(self):
        corpus, alignments = evidence_fixture()
        sites = grouped_sites(corpus, alignments)
        assert {key: [site[0] for site in found] for key, found in sites.items()} == {
            ("même si", "Comparison.Concession"): [0, 2, 5],
            ("même si", "Contingency.Condition"): [1],
        }

    def test_source_connective_outside_the_inventory_is_not_evidence(self):
        # Pair 1's fused token "albeit" is not a source inventory form, so
        # extraction does not count it, and evidence must not cite it.
        pairs = [
            (("although-Comparison.Concession",), ("bien", "que")),
            (("albeit-Comparison.Concession",), ("bien", "que")),
        ]
        alignments = Links.of([{(0, 0), (0, 1)}] * 2)
        tgt_inventory = [Connective(("bien", "que"))]
        table = build_phrase_table(
            pairs,
            alignments,
            tgt_inventory,
            SRC_INVENTORY,
            RELATIONS,
        )
        records = filter_dc_entries(table, SRC_INVENTORY, RELATIONS)
        assert [(r.fr_dc, r.en_dc, r.count) for r in records] == [("bien que", "although", 1)]
        sites = grouped_sites(corpus_of(pairs), alignments, tgt_inventory)
        assert [site[0] for site in sites[("bien que", "Comparison.Concession")]] == [0]

    def test_out_of_bounds_link_is_fatal_without_an_occurrence(self):
        # Pair 3, "bon alors", holds no inventory form.
        corpus, alignments = evidence_fixture()
        links = [alignments.pair(k) for k in range(len(alignments))]
        links[3] = [(0, 5)]
        with pytest.raises(PipelineError, match="0-5 out of bounds for 2x2 pair 3"):
            grouped_sites(corpus, Links.of(links))

    def test_unknown_label_is_fatal(self):
        pairs = [(("although-Nonsense",), ("bien", "que"))]
        alignments = Links.of([{(0, 0), (0, 1)}])
        tgt_inventory = [Connective(("bien", "que"))]
        with pytest.raises(PipelineError, match="unknown relation label"):
            grouped_sites(corpus_of(pairs), alignments, tgt_inventory)

    def test_grouping_takes_the_first_site_of_a_key_in_a_pair(self):
        # Pair 0 holds "même si" twice for the same fused token's relation.
        corpus = corpus_of([
            (("although-Comparison.Concession", "if-Comparison.Concession"),
             ("même", "si", "même", "si")),
        ])
        sites = [(0, 0, 0, 1), (0, 1, 2, 3)]
        grouped = group_sites(corpus, sites, INVENTORY, SRC_INVENTORY, RELATIONS)
        assert grouped == {("même si", "Comparison.Concession"): [(0, 0, 0, 1)]}

    def test_sites_no_scan_counts_are_fatal(self):
        corpus, alignments = evidence_fixture()
        sites = build_phrase_table(corpus, alignments, INVENTORY, SRC_INVENTORY, RELATIONS).sites
        for bad, message in [
            (sites[::-1], "site 2: not in corpus order"),
            (sites + (sites[-1],), "site 5: not in corpus order"),
            ([(6, 0, 0, 1)], "site 1: no pair 6 in a corpus of 6"),
            ([(-1, 0, 0, 1)], "site 1: no pair -1"),
            ([(0, 2, 0, 1)], "site 1: 2 / 0-1 out of bounds for 2x3 pair 0"),
            ([(0, 0, 0, 3)], "out of bounds for 2x3 pair 0"),
            ([(0, 0, 1, 0)], "out of bounds for 2x3 pair 0"),
            ([(0, 0, 1, 2)], "site 1: 'si tard' is no target inventory form"),
            ([(0, 1, 0, 1)], "site 1: 'late' is no fused source connective"),
        ]:
            with pytest.raises(PipelineError, match=message):
                group_sites(corpus, bad, INVENTORY, SRC_INVENTORY, RELATIONS)

    def test_format_blocks(self):
        corpus, alignments = evidence_fixture()
        got = evidence(
            corpus, alignments, "même si", "Comparison.Concession", k=5, seed=1
        )
        text = format_evidence("même si", "Comparison.Concession", got[:1])
        lines = text.splitlines()
        assert lines[0].startswith("# même si\tComparison.Concession\tpair ")
        assert lines[1].startswith("FR: ")
        assert lines[2].startswith("EN: ")
