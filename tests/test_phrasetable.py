"""Phrase-pair extraction and connective pair filtering."""

import random
from collections import Counter

import pytest

from dclex.alignment import Alignment
from dclex.errors import PipelineError
from dclex.inventory import Connective
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

from oracles import consistent_phrase_pairs_reference


def aln(*pairs):
    return Alignment(frozenset(pairs))


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


class TestBuildPhraseTable:
    def test_counts_accumulate_across_repeats(self):
        pair = (("a", "b"), ("x", "y"))
        alignment = aln((0, 0), (1, 1))
        table = build_phrase_table([pair] * 3, [alignment] * 3, max_len=2)
        by_key = {(e.src_phrase, e.tgt_phrase): e.count for e in table}
        assert by_key[(("a",), ("x",))] == 3
        assert by_key[(("a", "b"), ("x", "y"))] == 3

    def test_output_sorted_by_phrase(self):
        pair = (("b", "a"), ("y", "x"))
        table = build_phrase_table([pair], [aln((0, 0), (1, 1))], max_len=1)
        keys = [(e.src_phrase, e.tgt_phrase) for e in table]
        assert keys == sorted(keys)

    def test_length_mismatch_is_fatal(self):
        with pytest.raises(PipelineError, match="1 vs 2"):
            build_phrase_table([(("a",), ("x",))], [aln(), aln()])

    def test_thread_count_is_invisible_in_output(self):
        rng = random.Random(6)
        pairs = []
        alignments = []
        for _ in range(300):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            pairs.append(
                (
                    tuple(rng.choice("ab") for _ in range(n)),
                    tuple(rng.choice("xy") for _ in range(m)),
                )
            )
            alignments.append(
                Alignment(
                    frozenset(
                        (i, j) for i in range(n) for j in range(m) if rng.random() < 0.3
                    )
                )
            )
        one = build_phrase_table(pairs, alignments, threads=1)
        many = build_phrase_table(pairs, alignments, threads=4)
        assert one == many


class TestFilterDCEntries:
    TGT_INV = [Connective(("même", "si"), "target"), Connective(("si",), "target")]
    SRC_INV = [Connective(("even", "though"), "source"), Connective(("if",), "source")]
    RELATIONS = ("Comparison.Concession", "Contingency.Condition")

    def entry(self, src, tgt, count=1):
        return PhraseTableEntry(tuple(src), tuple(tgt), count)

    def test_keeps_fused_connective_rows_and_aggregates(self):
        table = [
            self.entry(["even_though-Comparison.Concession"], ["même", "si"], 4),
            self.entry(["even_though-Comparison.Concession"], ["Même", "Si"], 2),
        ]
        records = filter_dc_entries(table, self.TGT_INV, self.SRC_INV, self.RELATIONS)
        assert records == [
            DCAlignmentRecord("même si", "even though", "Comparison.Concession", 6)
        ]

    def test_drops_untagged_and_unknown_sides(self):
        table = [
            self.entry(["even", "though"], ["même", "si"]),  # two source tokens
            self.entry(["if"], ["même", "si"]),  # untagged source
            self.entry(["if-Contingency.Condition"], ["donc"]),  # unknown target
            self.entry(["mystery-Contingency.Condition"], ["si"]),  # unknown surface
        ]
        assert filter_dc_entries(table, self.TGT_INV, self.SRC_INV, self.RELATIONS) == []

    def test_unknown_relation_label_is_fatal(self):
        table = [self.entry(["if-Bogus.Label"], ["si"])]
        with pytest.raises(PipelineError, match="malformed fused token"):
            filter_dc_entries(table, self.TGT_INV, self.SRC_INV, self.RELATIONS)

    def test_records_sorted(self):
        table = [
            self.entry(["if-Contingency.Condition"], ["si"], 1),
            self.entry(["even_though-Comparison.Concession"], ["même", "si"], 1),
        ]
        records = filter_dc_entries(table, self.TGT_INV, self.SRC_INV, self.RELATIONS)
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
