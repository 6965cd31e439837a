"""Phrase-pair extraction and connective pair filtering."""

import random
from collections import Counter

import pytest

from dclex.alignment import Alignment, Links
from dclex.corpus import Corpus, SentencePair, count_occurrences
from dclex.errors import PipelineError
from dclex.inventory import Connective
from dclex.parallel import CHUNK_SIZE
from dclex.lexicon import build_lexicon
from dclex.phrasetable import (
    DCAlignmentRecord,
    PhraseTableEntry,
    build_phrase_table,
    extract_phrase_pairs,
    filter_dc_entries,
    read_dc_records,
    write_dc_records,
    write_phrase_table,
)
from dclex.tagging import split_fused_token

from oracles import consistent_phrase_pairs_reference


def aln(*pairs):
    return Alignment(frozenset(pairs))


def columns(alignments):
    return Links.of(a.links for a in alignments)


class TestExtraction:
    # 0:even_though-X 1:late 2:, 3:fine  /  0:même 1:si 2:tard 3:, 4:bon
    SRC = ("even_though-Comparison.Concession", "late", ",", "fine")
    TGT = ("même", "si", "tard", ",", "bon")
    LINKS = aln((0, 0), (0, 1), (1, 2), (3, 4))

    def test_connective_box_is_extracted(self):
        got = extract_phrase_pairs(self.SRC, self.TGT, self.LINKS)
        assert (("even_though-Comparison.Concession",), ("même", "si")) in got

    def test_matches_brute_force_on_worked_example(self):
        got = Counter(extract_phrase_pairs(self.SRC, self.TGT, self.LINKS, max_len=3))
        want = Counter(
            consistent_phrase_pairs_reference(self.SRC, self.TGT, self.LINKS.links, 3)
        )
        assert got == want

    def test_no_links_yields_nothing(self):
        assert extract_phrase_pairs(("a",), ("x",), aln()) == []

    def test_max_len_one_keeps_single_token_boxes_only(self):
        got = extract_phrase_pairs(self.SRC, self.TGT, self.LINKS, max_len=1)
        assert got
        assert all(len(s) == 1 and len(t) == 1 for s, t in got)

    def test_unaligned_boundary_words_extend_boxes(self):
        src = ("a", "b")
        tgt = ("x", "y")  # y unaligned
        got = extract_phrase_pairs(src, tgt, aln((0, 0), (1, 0)), max_len=2)
        assert (("a", "b"), ("x",)) in got
        assert (("a", "b"), ("x", "y")) in got

    def test_crossing_link_blocks_box(self):
        # tgt 0 links to src 0 and src 2: span (0,0)x(0,0) is inconsistent.
        got = extract_phrase_pairs(
            ("a", "b", "c"), ("x",), aln((0, 0), (2, 0)), max_len=1
        )
        assert got == []

    def test_out_of_bounds_link_is_fatal(self):
        with pytest.raises(PipelineError, match="out of bounds"):
            extract_phrase_pairs(("a",), ("x",), aln((0, 5)))

    def test_bad_max_len_is_fatal(self):
        with pytest.raises(PipelineError, match="max_len"):
            extract_phrase_pairs(("a",), ("x",), aln((0, 0)), max_len=0)

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(4242)
        vocab = ["p", "q", "r"]
        for _ in range(120):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            src = tuple(rng.choice(vocab) for _ in range(n))
            tgt = tuple(rng.choice(vocab) for _ in range(m))
            link_set = frozenset(
                (i, j) for i in range(n) for j in range(m) if rng.random() < 0.2
            )
            max_len = rng.randint(1, 7)
            got = Counter(
                extract_phrase_pairs(src, tgt, Alignment(link_set), max_len)
            )
            want = Counter(
                consistent_phrase_pairs_reference(src, tgt, link_set, max_len)
            )
            assert got == want, (src, tgt, sorted(link_set), max_len)


def fused_rows_reference(pairs, alignments, forms, max_len):
    """The full phrase table, then its rows pairing one fused source token
    with an inventory form."""
    rows = Counter()
    for (src, tgt), alignment in zip(pairs, alignments):
        for src_phrase, tgt_phrase in extract_phrase_pairs(src, tgt, alignment, max_len):
            if (
                len(src_phrase) == 1
                and split_fused_token(src_phrase[0]) is not None
                and tgt_phrase in forms
            ):
                rows[(src_phrase, tgt_phrase)] += 1
    return rows


def random_links(rng, n, m, rate):
    return Alignment(
        frozenset((i, j) for i in range(n) for j in range(m) if rng.random() < rate)
    )


class TestBuildPhraseTable:
    FUSED = "even_though-Concession"
    TGT_INV = [Connective(("même",), "target"), Connective(("même", "si"), "target")]

    def test_nested_form_counts_the_longest_match_only(self):
        # The fused token links only to "même", inside "même si": the one
        # occurrence is "même si", and "même" never occurs on its own.
        pairs = [((self.FUSED, "late"), ("même", "si", "tard"))]
        alignments = [aln((0, 0), (1, 2))]
        table = build_phrase_table(pairs, columns(alignments), self.TGT_INV)
        records = filter_dc_entries(table, [Connective(("even", "though"), "source")], ["Concession"])
        assert records == [DCAlignmentRecord("même si", "even though", "Concession", 1)]
        freqs = count_occurrences(
            Corpus((SentencePair(0, *pairs[0]),)), "target", self.TGT_INV
        )
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
        table = build_phrase_table(pairs, columns(alignments), self.TGT_INV)
        assert list(table) == [PhraseTableEntry((self.FUSED,), ("même", "si"), 1)]
        assert table.occurrences == 4
        assert build_phrase_table(pairs, columns(alignments), self.TGT_INV, max_len=1).entries == ()

    def test_counts_accumulate_across_repeats(self):
        pair = (("a-R", "b"), ("x", "y", "z"))
        inventory = [Connective(("x",), "target"), Connective(("x", "y"), "target")]
        alignment = aln((0, 0), (0, 1), (1, 2))
        table = build_phrase_table([pair] * 3, columns([alignment] * 3), inventory)
        assert list(table) == [PhraseTableEntry(("a-R",), ("x", "y"), 3)]
        assert table.occurrences == 3

    def test_output_sorted_by_phrase(self):
        pair = (("b-R", "a-R"), ("y", "x"))
        inventory = [Connective(("x",), "target"), Connective(("y",), "target")]
        table = build_phrase_table([pair], columns([aln((0, 0), (1, 1))]), inventory)
        keys = [(e.src_phrase, e.tgt_phrase) for e in table]
        assert keys == sorted(keys) == [(("a-R",), ("x",)), (("b-R",), ("y",))]
        assert table.occurrences == 2

    def test_length_mismatch_is_fatal(self):
        with pytest.raises(PipelineError, match="1 vs 2"):
            build_phrase_table([(("a",), ("x",))], columns([aln(), aln()]), self.TGT_INV)

    def test_out_of_bounds_link_is_fatal(self):
        with pytest.raises(PipelineError, match="out of bounds"):
            build_phrase_table([(("a",), ("même",))], columns([aln((0, 5))]), self.TGT_INV)

    def test_out_of_bounds_link_is_fatal_without_an_occurrence(self):
        # The last pair has no inventory form, so the scan never reads its
        # links; it sits in the second chunk and is named by corpus number.
        pairs = [((self.FUSED,), ("même",))] * CHUNK_SIZE + [(("a", "b"), ("x",))]
        alignments = [aln((0, 0))] * CHUNK_SIZE + [aln((1, 1))]
        with pytest.raises(PipelineError, match=f"1-1 out of bounds for 2x1 pair {CHUNK_SIZE}$"):
            build_phrase_table(pairs, columns(alignments), self.TGT_INV, threads=2)

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
            inventory = [Connective(f, "target") for f in forms]
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
            table = build_phrase_table(pairs, columns(alignments), inventory, max_len)
            got = {(e.src_phrase, e.tgt_phrase): e.count for e in table}
            want = fused_rows_reference(pairs, alignments, forms, max_len)
            assert got == dict(want), (pairs, alignments, forms, max_len)

    def test_nested_forms_never_count_more_than_their_frequency(self):
        rng = random.Random(4)
        inventory = [
            Connective(f, "target")
            for f in [("x",), ("x", "y"), ("y",), ("y", "z"), ("x", "y", "z"), ("z", "z")]
        ]
        for _ in range(50):
            pairs, alignments = [], []
            for _ in range(rng.randint(1, 6)):
                n, m = rng.randint(1, 5), rng.randint(1, 9)
                pairs.append(
                    (
                        tuple(rng.choice(["p", "a-R1", "b-R2"]) for _ in range(n)),
                        tuple(rng.choice("xyzu") for _ in range(m)),
                    )
                )
                alignments.append(random_links(rng, n, m, 0.3))
            table = build_phrase_table(pairs, columns(alignments), inventory, rng.randint(1, 4))
            corpus = Corpus(tuple(SentencePair(i, *p) for i, p in enumerate(pairs)))
            freqs = count_occurrences(corpus, "target", inventory)
            aligned = Counter()
            for entry in table:
                aligned[" ".join(entry.tgt_phrase)] += entry.count
            for form, count in aligned.items():
                assert count <= freqs.count(form), (form, pairs, alignments)
            assert table.occurrences == sum(freqs.entries.values())

    def test_thread_count_is_invisible_in_output(self):
        rng = random.Random(6)
        pairs = []
        alignments = []
        for _ in range(2500):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            pairs.append(
                (
                    tuple(rng.choice(["a-R", "b-S", "c"]) for _ in range(n)),
                    tuple(rng.choice("xy") for _ in range(m)),
                )
            )
            alignments.append(random_links(rng, n, m, 0.3))
        inventory = [Connective(("x",), "target"), Connective(("x", "y"), "target")]
        one = build_phrase_table(pairs, columns(alignments), inventory, threads=1)
        many = build_phrase_table(pairs, columns(alignments), inventory, threads=4)
        assert one.entries
        assert one == many


class TestFilterDCEntries:
    SRC_INV = [Connective(("even", "though"), "source"), Connective(("if",), "source")]
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

    def test_unknown_relation_label_is_fatal(self):
        table = [self.entry(["if-Bogus.Label"], ["si"])]
        with pytest.raises(PipelineError, match="malformed fused token"):
            filter_dc_entries(table, self.SRC_INV, self.RELATIONS)

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
