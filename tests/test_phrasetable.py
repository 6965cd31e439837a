"""Phrase-pair extraction and connective pair filtering."""

import random
from collections import Counter

import pytest

from dclex.alignment import Links
from dclex.corpus import CHUNK_SIZE, Bitext, count_occurrences
from dclex.errors import PipelineError
from dclex.lexicon import build_lexicon, group_sites
from dclex.phrasetable import (
    DCAlignmentRecord,
    PhraseTableEntry,
    build_phrase_table,
    check_links,
    connective_occurrences,
    filter_dc_entries,
    read_dc_records,
    read_sites,
    write_dc_records,
    write_phrase_table,
    write_sites,
)
from dclex.tagging import fused_connective, split_fused_token

from oracles import (
    connective_boxes_reference,
    connective_sources_reference,
    consistent_phrase_pairs_reference,
)


def aln(*pairs):
    return frozenset(pairs)


class TestExtraction:
    """Worked examples of the one-token box decision of
    `connective_occurrences`, against exhaustive box enumeration."""

    # 0:even_though-Concession 1:late 2:, 3:fine  /  0:même 1:si 2:tard 3:, 4:bon
    SRC = ("even_though-Concession", "late", ",", "fine")
    TGT = ("même", "si", "tard", ",", "bon")
    LINKS = {(0, 0), (0, 1), (1, 2), (3, 4)}
    FORMS = [("même",), ("même", "si"), ("tard",), ("bon",)]

    def decide(self, src, tgt, links, forms=FORMS, max_len=7):
        """(start, form, source) of each occurrence in the pair, checked
        against both references."""
        got = [
            occurrence[:4]
            for occurrence in connective_occurrences(
                [(src, tgt)], Links.of([aln(*links)]), forms, SRC_INV, RELATIONS, max_len
            )
        ]
        assert got == list(connective_sources_reference([(src, tgt)], [links], forms, max_len))
        assert got == connective_boxes_reference((src, tgt), links, forms, max_len)
        return [(start, form, i) for _, start, form, i in got]

    def test_connective_box_is_extracted(self):
        table = build_phrase_table(
            [(self.SRC, self.TGT)], Links.of([aln(*self.LINKS)]),
            self.FORMS, SRC_INV, RELATIONS,
        )
        assert list(table) == [PhraseTableEntry((self.SRC[0],), ("même", "si"), 1)]
        assert table.occurrences == 3

    def test_matches_brute_force_on_worked_example(self):
        assert self.decide(self.SRC, self.TGT, self.LINKS) == [
            (0, ("même", "si"), 0), (2, ("tard",), 1), (4, ("bon",), 3)
        ]

    def test_no_links_yields_nothing(self):
        assert [i for *_, i in self.decide(self.SRC, self.TGT, set())] == [None] * 3

    def test_max_len_one_keeps_single_token_boxes_only(self):
        assert self.decide(self.SRC, self.TGT, self.LINKS, max_len=1) == [
            (0, ("même", "si"), None), (2, ("tard",), 1), (4, ("bon",), 3)
        ]

    def test_unaligned_boundary_words_extend_boxes(self):
        # y is unaligned; the box over the whole form holds it.
        assert self.decide(("a",), ("x", "y"), {(0, 0)}, [("x", "y")]) == [(0, ("x", "y"), 0)]

    def test_crossing_link_blocks_box(self):
        # x links to a and c: no one-token box holds the span.
        got = self.decide(("a", "b", "c"), ("x",), {(0, 0), (2, 0)}, [("x",)])
        assert got == [(0, ("x",), None)]

    def test_out_of_bounds_link_is_fatal(self):
        with pytest.raises(PipelineError, match="0-5 out of bounds for 1x1 pair 0"):
            check_links([(("a",), ("x",))], Links.of([aln((0, 5))]))

    def test_bad_max_len_is_fatal(self):
        with pytest.raises(PipelineError, match="max_len must be >= 1, got 0"):
            self.decide(("a",), ("x",), {(0, 0)}, [("x",)], max_len=0)

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(4242)
        vocab = ["p", "q", "r"]
        forms = [("p",), ("q", "r"), ("p", "q", "r"), ("r", "r")]
        for _ in range(120):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            src = tuple(rng.choice(vocab) for _ in range(n))
            tgt = tuple(rng.choice(vocab) for _ in range(m))
            link_set = {(i, j) for i in range(n) for j in range(m) if rng.random() < 0.2}
            self.decide(src, tgt, link_set, forms, rng.randint(1, 7))


def fused_rows_reference(pairs, alignments, forms, max_len):
    """Every consistent phrase pair, then those pairing one fused source
    token with an inventory form."""
    rows = Counter()
    for (src, tgt), alignment in zip(pairs, alignments):
        for src_phrase, tgt_phrase in consistent_phrase_pairs_reference(
            src, tgt, alignment, max_len
        ):
            if (
                len(src_phrase) == 1
                and split_fused_token(src_phrase[0]) is not None
                and tgt_phrase in forms
            ):
                rows[(src_phrase, tgt_phrase)] += 1
    return rows


# Accept every fused token the tests below write, so that their rows are the
# reference's rows.
SRC_INV = [("even", "though"), ("a",), ("b",)]
RELATIONS = ["Concession", "R", "S", "R1", "R2"]


def random_links(rng, n, m, rate):
    return frozenset((i, j) for i in range(n) for j in range(m) if rng.random() < rate)


NESTED_FORMS = [("x",), ("x", "y"), ("y",), ("y", "z"), ("x", "y", "z"), ("z", "z")]


def random_nested_corpus(rng, src_vocab):
    """Up to six pairs whose targets are dense in the nested NESTED_FORMS."""
    pairs, alignments = [], []
    for _ in range(rng.randint(1, 6)):
        n, m = rng.randint(1, 5), rng.randint(1, 9)
        pairs.append(
            (
                tuple(rng.choice(src_vocab) for _ in range(n)),
                tuple(rng.choice("xyzu") for _ in range(m)),
            )
        )
        alignments.append(random_links(rng, n, m, 0.3))
    return pairs, alignments


class TestBuildPhraseTable:
    FUSED = "even_though-Concession"
    TGT_INV = [("même",), ("même", "si")]

    def test_nested_form_counts_the_longest_match_only(self):
        # The fused token links only to "même", inside "même si": the one
        # occurrence is "même si", and "même" never occurs on its own.
        pairs = [((self.FUSED, "late"), ("même", "si", "tard"))]
        alignments = [aln((0, 0), (1, 2))]
        table = build_phrase_table(pairs, Links.of(alignments), self.TGT_INV, SRC_INV, RELATIONS)
        records = filter_dc_entries(table, [("even", "though")], ["Concession"])
        assert records == [DCAlignmentRecord("même si", "even though", "Concession", 1)]
        freqs = count_occurrences(Bitext.of(pairs), self.TGT_INV)
        lexicon = build_lexicon(records, freqs, min_freq=1)
        assert [(e.fr_dc, e.aligned_count, e.corpus_freq) for e in lexicon.entries] == [
            ("même si", 1, 1)
        ]

    def test_rows_pair_one_fused_token_with_an_inventory_form(self):
        # Plain source tokens, forms longer than max_len and boxes with a
        # second source token or an outside link give no row.
        pairs = [
            (("if", self.FUSED), ("même", "si")),  # two source tokens link in
            (("plain",), ("même",)),  # untagged source token
            ((self.FUSED, "x"), ("même", "si", "donc")),  # link leaves the span
            ((self.FUSED,), ("même", "si")),
        ]
        alignments = [aln((0, 0), (1, 1)), aln((0, 0)), aln((0, 1), (0, 2)), aln((0, 1))]
        table = build_phrase_table(pairs, Links.of(alignments), self.TGT_INV, SRC_INV, RELATIONS)
        assert list(table) == [PhraseTableEntry((self.FUSED,), ("même", "si"), 1)]
        assert table.occurrences == 4
        assert build_phrase_table(
            pairs, Links.of(alignments), self.TGT_INV, SRC_INV, RELATIONS, max_len=1
        ).entries == ()

    def test_counts_accumulate_across_repeats(self):
        pair = (("a-R", "b"), ("x", "y", "z"))
        inventory = [("x",), ("x", "y")]
        alignment = aln((0, 0), (0, 1), (1, 2))
        table = build_phrase_table(
            [pair] * 3, Links.of([alignment] * 3), inventory, SRC_INV, RELATIONS
        )
        assert list(table) == [PhraseTableEntry(("a-R",), ("x", "y"), 3)]
        assert table.occurrences == 3

    def test_output_sorted_by_phrase(self):
        pair = (("b-R", "a-R"), ("y", "x"))
        inventory = [("x",), ("y",)]
        table = build_phrase_table(
            [pair], Links.of([aln((0, 0), (1, 1))]), inventory, SRC_INV, RELATIONS
        )
        keys = [(e.src_phrase, e.tgt_phrase) for e in table]
        assert keys == sorted(keys) == [(("a-R",), ("x",)), (("b-R",), ("y",))]
        assert table.occurrences == 2

    def test_fused_token_outside_the_source_inventory_gives_no_row(self):
        # "albeit" parses as a fused token but is no source inventory form:
        # its occurrence is scanned and counted, and gives no row.
        pairs = [(("albeit-Concession",), ("même", "si")), ((self.FUSED,), ("même", "si"))]
        alignments = [aln((0, 0), (0, 1))] * 2
        table = build_phrase_table(pairs, Links.of(alignments), self.TGT_INV, SRC_INV, RELATIONS)
        assert list(table) == [PhraseTableEntry((self.FUSED,), ("même", "si"), 1)]
        assert table.occurrences == 2

    def test_unknown_relation_label_is_a_plain_word(self):
        # "a-Bogus" splits into a source form and a label that is no induced
        # relation: it is a plain word, so its occurrence is scanned and
        # counted, and gives no row, site or record.
        pairs = [(("a-Bogus",), ("même",))]
        table = build_phrase_table(pairs, Links.of([aln((0, 0))]), self.TGT_INV, SRC_INV, RELATIONS)
        assert list(table) == [] and table.sites == ()
        assert table.occurrences == 1
        assert filter_dc_entries(table, SRC_INV, RELATIONS) == []

    def test_length_mismatch_is_fatal(self):
        with pytest.raises(PipelineError, match="1 vs 2"):
            build_phrase_table(
                [(("a",), ("x",))], Links.of([aln(), aln()]), self.TGT_INV, SRC_INV, RELATIONS
            )

    def test_out_of_bounds_link_is_fatal(self):
        with pytest.raises(PipelineError, match="out of bounds"):
            build_phrase_table(
                [(("a",), ("même",))], Links.of([aln((0, 5))]), self.TGT_INV, SRC_INV, RELATIONS
            )

    def test_out_of_bounds_link_is_fatal_without_an_occurrence(self):
        # The last pair has no inventory form, so the scan never reads its
        # links; it sits in the second chunk and is named by corpus number.
        pairs = [((self.FUSED,), ("même",))] * CHUNK_SIZE + [(("a", "b"), ("x",))]
        alignments = [aln((0, 0))] * CHUNK_SIZE + [aln((1, 1))]
        with pytest.raises(PipelineError, match=f"1-1 out of bounds for 2x1 pair {CHUNK_SIZE}$"):
            build_phrase_table(pairs, Links.of(alignments), self.TGT_INV, SRC_INV, RELATIONS)

    def test_equals_filtered_full_table_without_nested_forms(self):
        # Forms share no token and repeat none, so no two occurrences can
        # overlap and every consistent box on a form is a longest match.
        rng = random.Random(2017)
        src_vocab = ["p", "q", "a-R1", "b-R2", "a-R2"]
        for _ in range(200):
            words = ["x", "y", "z", "w", "v"]
            rng.shuffle(words)
            cut = sorted(rng.sample(range(1, 5), 2))
            forms = {tuple(words[:cut[0]]), tuple(words[cut[0] : cut[1]])}
            inventory = list(forms)
            pairs, alignments = [], []
            for _ in range(rng.randint(1, 3)):
                n, m = rng.randint(1, 6), rng.randint(1, 8)
                pairs.append(
                    (
                        tuple(rng.choice(src_vocab) for _ in range(n)),
                        tuple(rng.choice(words + ["u"]) for _ in range(m)),
                    )
                )
                alignments.append(random_links(rng, n, m, 0.25))
            max_len = rng.randint(1, 7)
            table = build_phrase_table(
                pairs, Links.of(alignments), inventory, SRC_INV, RELATIONS, max_len
            )
            got = {(e.src_phrase, e.tgt_phrase): e.count for e in table}
            want = fused_rows_reference(pairs, alignments, forms, max_len)
            assert got == dict(want), (pairs, alignments, forms, max_len)

    def test_nested_forms_never_count_more_than_their_frequency(self):
        rng = random.Random(4)
        inventory = NESTED_FORMS
        for _ in range(50):
            pairs, alignments = random_nested_corpus(rng, ["p", "a-R1", "b-R2"])
            table = build_phrase_table(
                pairs, Links.of(alignments), inventory, SRC_INV, RELATIONS, rng.randint(1, 4)
            )
            freqs = count_occurrences(Bitext.of(pairs), inventory)
            aligned = Counter()
            for entry in table:
                aligned[" ".join(entry.tgt_phrase)] += entry.count
            for form, count in aligned.items():
                assert count <= freqs.count(form), (form, pairs, alignments)
            assert table.occurrences == sum(freqs.entries.values())



# Pairs that every decision batch holds, at the start and across the chunk
# boundary: a source linked into two occurrences, a source linked into one
# and outside it, two sources in one occurrence, a clean box, a form longer
# than a short max_len, and empty sides.
DECISION_CASES = [
    (("a-R1",), ("x", "u", "y")), {(0, 0), (0, 2)},
    (("a-R1", "p"), ("x", "u")), {(0, 0), (0, 1)},
    (("a-R1", "b-R2"), ("x", "y")), {(0, 0), (1, 1)},
    (("p", "b-R2"), ("u", "X", "Y")), {(1, 1), (1, 2)},
    (("a-R2",), ("x", "y", "z")), {(0, 0), (0, 2)},
    ((), ("x",)), set(),
    (("a-R1",), ()), set(),
]


def decision_batch(rng):
    """CHUNK_SIZE + 300 pairs over the nested NESTED_FORMS, in upper and
    lower case, with link densities from none to most cells."""
    pairs, link_sets = [], []
    for _ in range(CHUNK_SIZE + 300):
        n, m = rng.randint(0, 5), rng.randint(0, 9)
        rate = rng.choice([0.0, 0.1, 0.3, 0.6])
        pairs.append(
            (
                tuple(rng.choice(["p", "a-R1", "b-R2", "a-R2", "c-R1"]) for _ in range(n)),
                tuple(rng.choice("xyzXYu") for _ in range(m)),
            )
        )
        link_sets.append({(i, j) for i in range(n) for j in range(m) if rng.random() < rate})
    for at in (0, CHUNK_SIZE - 3):
        pairs[at : at + 7] = DECISION_CASES[0::2]
        link_sets[at : at + 7] = DECISION_CASES[1::2]
    return pairs, link_sets


class TestConnectiveOccurrences:
    @pytest.mark.parametrize("seed", range(3))
    def test_decision_equals_the_per_pair_loop(self, seed):
        pairs, link_sets = decision_batch(random.Random(seed))
        links = Links.of(link_sets)
        src_forms, relations = set(SRC_INV), set(RELATIONS)
        for max_len in (1, 2, 7):
            want = list(connective_sources_reference(pairs, link_sets, NESTED_FORMS, max_len))
            dcs = [
                None if i is None else fused_connective(pairs[k][0][i], src_forms, relations)
                for k, _, _, i in want
            ]
            got = list(
                connective_occurrences(pairs, links, NESTED_FORMS, SRC_INV, RELATIONS, max_len)
            )
            assert [occurrence[:4] for occurrence in got] == want
            assert [occurrence[4] for occurrence in got] == dcs
            # Both outcomes, and a found source that is no inventory form.
            assert {i is None for *_, i in want} == {True, False}
            assert any(dc is None and i is not None for (*_, i), dc in zip(want, dcs))
            table = build_phrase_table(pairs, links, NESTED_FORMS, SRC_INV, RELATIONS, max_len)
            assert table.occurrences == len(want)
            assert list(table.sites) == [
                (k, i, start, start + len(form) - 1)
                for (k, start, form, i), dc in zip(want, dcs)
                if dc is not None
            ]

    def test_no_links_anywhere(self):
        pairs = [(("a-R1",), ("x", "y")), (("b-R2",), ("z", "z"))]
        links = Links.of([aln(), aln()])
        got = list(connective_occurrences(pairs, links, NESTED_FORMS, SRC_INV, RELATIONS))
        assert got == [(0, 0, ("x", "y"), None, None), (1, 0, ("z", "z"), None, None)]

    def test_sites_round_trip_and_bad_rows_are_fatal(self, tmp_path):
        path = tmp_path / "sites.tsv"
        write_sites([(0, 1, 2, 3), (5, 0, 0, 0)], str(path))
        assert path.read_text(encoding="utf-8") == "0\t1\t2\t3\n5\t0\t0\t0\n"
        assert read_sites(str(path)) == [(0, 1, 2, 3), (5, 0, 0, 0)]
        for bad in ("0\t1\t2\n", "0\t1\t2\tx\n", "0\t1\t2\t3\t4\n", "\n"):
            path.write_text("0\t0\t0\t0\n" + bad, encoding="utf-8")
            with pytest.raises(PipelineError, match="4 integers at line 2"):
                read_sites(str(path))


def test_evidence_cites_exactly_the_pairs_extract_counts():
    # For each (fr_dc, relation), evidence cites a pair exactly when
    # extraction on that pair alone gives a row filed under that key. "c" is
    # no source inventory form.
    rng = random.Random(9)
    cited = 0
    for _ in range(80):
        pairs, alignments = random_nested_corpus(rng, ["p", "a-R1", "b-R2", "a-R2", "c-R1"])
        max_len = rng.randint(1, 4)
        corpus = Bitext.of(pairs)
        table = build_phrase_table(
            pairs, Links.of(alignments), NESTED_FORMS, SRC_INV, RELATIONS, max_len
        )
        sites = group_sites(corpus, table.sites, NESTED_FORMS, SRC_INV, RELATIONS)
        want: dict[tuple[str, str], list[int]] = {}
        for k in range(len(pairs)):
            table = build_phrase_table(
                pairs[k : k + 1], Links.of(alignments[k : k + 1]), NESTED_FORMS,
                SRC_INV, RELATIONS, max_len,
            )
            keys = {(r.fr_dc, r.relation) for r in filter_dc_entries(table, SRC_INV, RELATIONS)}
            for key in sorted(keys):
                want.setdefault(key, []).append(k)
        got = {key: [site[0] for site in found] for key, found in sites.items()}
        assert got == want, (pairs, alignments, max_len)
        cited += sum(map(len, got.values()))
    assert cited


class TestFilterDCEntries:
    SRC_INV = [("even", "though"), ("if",)]
    RELATIONS = ("Comparison.Concession", "Contingency.Condition")

    def entry(self, src, tgt, count=1):
        return PhraseTableEntry(tuple(src), tuple(tgt), count)

    def test_keeps_fused_connective_rows_and_aggregates(self):
        table = [
            self.entry(["even_though-Comparison.Concession"], ["même", "si"], 4),
            self.entry(["even_though-Comparison.Concession"], ["Même", "Si"], 2),
        ]
        records = filter_dc_entries(table, self.SRC_INV, self.RELATIONS)
        assert records == [
            DCAlignmentRecord("même si", "even though", "Comparison.Concession", 6)
        ]

    def test_drops_untagged_and_unknown_sides(self):
        table = [
            self.entry(["if"], ["même", "si"]),  # untagged source
            self.entry(["mystery-Contingency.Condition"], ["si"]),  # unknown surface
        ]
        assert filter_dc_entries(table, self.SRC_INV, self.RELATIONS) == []

    def test_unknown_relation_label_is_a_plain_word(self):
        # An inventory surface with a label that is no induced relation is a
        # plain word: its row gives no record.
        table = [
            self.entry(["if-Bogus.Label"], ["si"]),
            self.entry(["if-Contingency.Condition"], ["si"]),
        ]
        records = filter_dc_entries(table, self.SRC_INV, self.RELATIONS)
        assert records == [DCAlignmentRecord("si", "if", "Contingency.Condition", 1)]

    def test_records_sorted(self):
        table = [
            self.entry(["if-Contingency.Condition"], ["si"], 1),
            self.entry(["even_though-Comparison.Concession"], ["même", "si"], 1),
        ]
        records = filter_dc_entries(table, self.SRC_INV, self.RELATIONS)
        keys = [(r.fr_dc, r.en_dc, r.relation) for r in records]
        assert keys == sorted(keys)


class TestFormats:
    def test_phrase_table_export(self, tmp_path):
        table = [PhraseTableEntry(("a", "b"), ("x",), 2)]
        path = tmp_path / "pt.txt"
        write_phrase_table(table, str(path))
        assert path.read_text(encoding="utf-8") == "a b ||| x ||| 2\n"

    def test_dc_records_round_trip(self, tmp_path):
        records = [DCAlignmentRecord("même si", "even though", "Comparison.Concession", 7)]
        path = tmp_path / "dc.tsv"
        write_dc_records(records, str(path))
        assert read_dc_records(str(path)) == records

    def test_dc_records_bad_row_is_fatal(self, tmp_path):
        path = tmp_path / "dc.tsv"
        path.write_text("a\tb\tc\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="line 1"):
            read_dc_records(str(path))
        # A blank line is skipped, and the count must be an integer.
        path.write_text("\nsi\tif\tR\tthree\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="bad count at line 2$"):
            read_dc_records(str(path))
