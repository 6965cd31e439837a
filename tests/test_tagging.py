"""Discourse annotation handling and relation-tag token fusion."""

import random
import re

import pytest

from dclex.corpus import TokenColumns, find_occurrences, load_parallel_corpus
from dclex.errors import PipelineError
from dclex.inventory import load_connective_inventory, load_default_senses
from dclex.tagging import (
    Tags,
    annotated_senses,
    check_read_back,
    check_senses,
    connective_pairs,
    fuse_corpus,
    fuse_token,
    heuristic_tag,
    load_annotations,
    split_fused_token,
    write_annotations,
    write_fused_corpus,
)

import planted
from oracles import fuse_reference, longest_match_counts_reference


def make_corpus(*sentences):
    """The source side of a tokenized corpus: sentence k is line k."""
    return [tuple(tokens) for tokens in sentences]


def tags_of(*rows):
    """The `Tags` of (sentence, start, end, relation) rows, which are in
    (sentence, start) order and do not overlap."""
    return Tags(*zip(*rows)) if rows else Tags([], [], [], [])


def rows_of(tags):
    """The (sentence, start, end, relation) row of each span of `tags`."""
    return list(zip(tags.sentence.tolist(), tags.start.tolist(), tags.end.tolist(), tags.relation))


def load_records(tmp_path, corpus, *records):
    """`load_annotations` of a file holding `records`, one a line."""
    path = tmp_path / "anns.tsv"
    path.write_text("".join(f"{record}\n" for record in records), encoding="utf-8")
    return load_annotations(str(path), corpus)


class TestFusedTokenCodec:
    def test_single_token_fusion(self):
        assert fuse_token(("although",), "Comparison.Concession") == (
            "although-Comparison.Concession"
        )

    def test_multiword_fusion_joins_with_underscore(self):
        assert fuse_token(("even", "though"), "Comparison.Concession") == (
            "even_though-Comparison.Concession"
        )

    def test_split_inverts_fusion(self):
        surface, relation = split_fused_token("even_though-Comparison.Concession")
        assert surface == ("even", "though")
        assert relation == "Comparison.Concession"

    def test_split_returns_none_for_plain_token(self):
        assert split_fused_token("although") is None

    def test_split_uses_last_hyphen(self):
        surface, relation = split_fused_token("peut-être-Temporal.Asynchronous")
        assert surface == ("peut-être",)
        assert relation == "Temporal.Asynchronous"

    def test_round_trip_over_random_tokens(self):
        rng = random.Random(13)
        alphabet = "abcdefg'-"
        relations = ["REL_A", "Comparison.Concession", "Expansion.Conjunction"]
        for _ in range(300):
            width = rng.randint(1, 3)
            tokens = tuple(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                for _ in range(width)
            )
            relation = rng.choice(relations)
            fused = fuse_token(tokens, relation)
            assert split_fused_token(fused) == (tokens, relation)


class TestAnnotationValidation:
    """Each record of an annotation file is checked as it is loaded."""

    def test_valid_annotation(self, tmp_path):
        corpus = make_corpus(("fine", "even", "though"))
        tags = load_records(tmp_path, corpus, "0\t1\t2\teven though\tComparison.Concession\t1")
        assert rows_of(tags) == [(0, 1, 2, "Comparison.Concession")]
        assert tags.start.dtype == tags.end.dtype == tags.sentence.dtype == "int64"

    def test_relation_required_iff_discourse_usage(self, tmp_path):
        corpus = make_corpus(("si",))
        for record in ("0\t0\t0\tsi\t\t1", "0\t0\t0\tsi\tConcession\t0"):
            with pytest.raises(PipelineError, match="exactly when discourse_usage"):
                load_records(tmp_path, corpus, record)
        # A non-discourse reading.
        assert rows_of(load_records(tmp_path, corpus, "0\t0\t0\tsi\t\t0")) == [(0, 0, 0, None)]

    def test_inverted_span_rejected(self, tmp_path):
        corpus = make_corpus(("si", "non", "oui"))
        with pytest.raises(PipelineError, match=re.escape("bad annotation span [2, 1]")):
            load_records(tmp_path, corpus, "0\t2\t1\tsi\tX\t1")

    def test_surface_must_cover_span(self, tmp_path):
        corpus = make_corpus(("si", "non"))
        with pytest.raises(PipelineError, match="does not cover span"):
            load_records(tmp_path, corpus, "0\t0\t1\tsi\tX\t1")

    def test_relation_label_charset(self, tmp_path):
        corpus = make_corpus(("si",))
        for label in ("Bad Label", "Bad-Label"):
            with pytest.raises(PipelineError, match="must not contain whitespace or '-'"):
                load_records(tmp_path, corpus, f"0\t0\t0\tsi\t{label}\t1")


def fuse_one(tokens, *spans):
    """The one sentence of `fuse_corpus` on a one-sentence corpus, tagged
    with (start, end, relation) spans."""
    return fuse_corpus(make_corpus(tokens), tags_of(*((0, *span) for span in spans)))[0]


def fuse_file(tmp_path, corpus, *records):
    """`fuse_corpus` of `corpus` with the tags of an annotation file, as
    the tag stage fuses them."""
    return fuse_corpus(corpus, load_records(tmp_path, corpus, *records))


class TestFuseTokens:
    def test_worked_example(self):
        assert fuse_one(("although", "it", "rained"), (0, 0, "Comparison.Concession")) == (
            "although-Comparison.Concession",
            "it",
            "rained",
        )

    def test_multiword_span_collapses_token_count(self):
        tokens = ("fine", ",", "even", "though", "late")
        fused = fuse_one(tokens, (2, 3, "Comparison.Concession"))
        assert fused == ("fine", ",", "even_though-Comparison.Concession", "late")
        assert len(fused) == len(tokens) - 1

    def test_non_discourse_annotation_passes_through(self):
        assert fuse_one(("so", "what"), (0, 0, None)) == ("so", "what")

    # A file whose spans fusion could not carry fails as it is loaded.

    def test_overlapping_spans_are_fatal(self, tmp_path):
        corpus = make_corpus(("even", "though", "so"))
        with pytest.raises(PipelineError, match="overlap"):
            fuse_file(tmp_path, corpus, "0\t0\t1\teven though\tA.B\t1", "0\t1\t1\tthough\tC.D\t1")

    def test_annotation_for_other_sentence_is_fatal(self, tmp_path):
        # An annotation is checked against its own sentence, not another.
        corpus = make_corpus(("si",), ("x",), ("y",), ("z",))
        with pytest.raises(PipelineError, match="sentence 3"):
            fuse_file(tmp_path, corpus, "3\t0\t0\tsi\tX\t1")

    def test_span_out_of_bounds_is_fatal(self, tmp_path):
        with pytest.raises(PipelineError, match="out of bounds"):
            fuse_file(tmp_path, make_corpus(("si",)), "0\t0\t1\tsi non\tX\t1")

    def test_surface_mismatch_is_fatal(self, tmp_path):
        with pytest.raises(PipelineError, match="surface"):
            fuse_file(tmp_path, make_corpus(("si",)), "0\t0\t0\tnon\tX\t1")

    def test_token_count_law_on_random_sentences(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(2, 12)
            tokens = tuple(f"w{rng.randint(0, 5)}" for _ in range(n))
            spans = []
            cursor = 0
            while cursor < n and len(spans) < 3:
                start = rng.randint(cursor, n - 1)
                end = min(n - 1, start + rng.randint(0, 2))
                if rng.random() < 0.6:
                    spans.append((start, end, "REL_X"))
                cursor = end + 1
            collapsed = sum(e - s for s, e, _ in spans)
            assert len(fuse_one(tokens, *spans)) == n - collapsed


class TestAnnotationIO:
    def test_write_load_round_trip(self, tmp_path):
        corpus = make_corpus(("Even", "though", "x"), ("so",))
        tags = tags_of((0, 0, 1, "Comparison.Concession"), (1, 0, 0, None))
        path = tmp_path / "anns.tsv"
        write_annotations(tags, corpus, str(path))
        assert path.read_text(encoding="utf-8") == (
            "0\t0\t1\tEven though\tComparison.Concession\t1\n1\t0\t0\tso\t\t0\n"
        )
        assert rows_of(load_annotations(str(path), corpus)) == rows_of(tags)

    def test_unknown_sentence_id_is_fatal(self, tmp_path):
        corpus = make_corpus(("si",))
        path = tmp_path / "anns.tsv"
        path.write_text("7\t0\t0\tsi\tX\t1\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="sentence id 7"):
            load_annotations(str(path), corpus)

    def test_field_count_enforced(self, tmp_path):
        corpus = make_corpus(("si",))
        path = tmp_path / "anns.tsv"
        path.write_text("0\t0\t0\tsi\tX\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="record 1"):
            load_annotations(str(path), corpus)

    def test_usage_flag_must_be_binary(self, tmp_path):
        corpus = make_corpus(("si",))
        path = tmp_path / "anns.tsv"
        path.write_text("0\t0\t0\tsi\tX\t2\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="usage flag"):
            load_annotations(str(path), corpus)

    def test_empty_relation_rejected_for_discourse_usage(self, tmp_path):
        corpus = make_corpus(("si",))
        path = tmp_path / "anns.tsv"
        path.write_text("0\t0\t0\tsi\t\t1\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="record 1"):
            load_annotations(str(path), corpus)

    def test_overlap_detected_across_file_order(self, tmp_path):
        corpus = make_corpus(("even", "though"))
        path = tmp_path / "anns.tsv"
        path.write_text(
            "0\t1\t1\tthough\tA.B\t1\n0\t0\t1\teven though\tC.D\t1\n",
            encoding="utf-8",
        )
        with pytest.raises(PipelineError, match="overlap"):
            load_annotations(str(path), corpus)

    def test_load_on_columns_fails_as_on_a_list(self, tmp_path):
        # The exact messages, for a list and for its columns alike.
        path = tmp_path / "anns.tsv"
        sentences = make_corpus(("a", "b", "c"), ("even", "though"))
        for records, want in (
            (
                ["1\t1\t2\tthough x\tR\t1"],  # past the end
                "record 1: sentence 1: span [1, 2] out of bounds (length 2)",
            ),
            (
                ["0\t0\t1\ta b\tR\t1", "0\t1\t1\tb\t\t0"],
                "overlapping spans in sentence 0 ([0, 1] and [1, 1])",
            ),
            (
                ["1\t0\t1\teven so\tR\t1"],  # other tokens
                "record 1: sentence 1: tokens ('even', 'though') at [0, 1] do not match "
                "annotated surface ('even', 'so')",
            ),
            # A blank line is skipped; a position must be a number.
            (["", "1\tone\t1\teven though\tR\t1"], "non-numeric field at record 2"),
        ):
            for corpus in (sentences, TokenColumns.intern(sentences)):
                with pytest.raises(PipelineError, match=f"^{re.escape(f'{path}: {want}')}$"):
                    load_records(tmp_path, corpus, *records)


    def test_annotated_senses_read_the_records_without_a_corpus(self, tmp_path):
        path = tmp_path / "anns.tsv"
        path.write_text(
            "0\t0\t1\tEven though\tR1\t1\n9\t0\t0\tso\t\t0\n"
            "4\t2\t3\tEven though\tR1\t1\n5\t0\t0\tsi\tR2\t1\n",
            encoding="utf-8",
        )
        assert annotated_senses(str(path)) == [(("Even", "though"), "R1"), (("si",), "R2")]
        # The record format is checked as `load_annotations` checks it.
        path.write_text("0\t0\t0\tsi\tX\t2\n", encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(f"{path}: usage flag must be 0 or 1")):
            annotated_senses(str(path))


class TestConnectivePairs:
    def test_pairs_holding_a_fused_inventory_form(self):
        side = TokenColumns.intern(
            make_corpus(
                ("a", "even_though-R1"),
                ("well-known", "b"),  # a surface outside the inventory
                (),
                ("c",),
                ("Si-R2", "si"),  # case aside
                ("si-UNKNOWN",),  # no induced label: a plain word
                ("even-R1",),
                ("si-R2",),  # no target occurrence: no link can box it
                ("si-bémol",),  # a hyphenated plain word headed by an inventory form
            )
        )
        forms = [("even", "though"), ("si",)]
        relations = ["R1", "R2"]
        tgt = make_corpus(*[("bien", "que")] * 7, ("x",), ("bien", "que"))
        found = find_occurrences(tgt, [("bien", "que"), ("si",)])
        assert connective_pairs(side, forms, relations, found).tolist() == [0, 4]
        assert connective_pairs(side, forms, relations, found).dtype == "int64"
        none = find_occurrences(tgt, [("si",)])
        assert connective_pairs(side, forms, relations, none).tolist() == []
        empty = TokenColumns.intern(make_corpus(("a",), ()))
        both = find_occurrences(make_corpus(("si",), ("si",)), [("si",)])
        assert connective_pairs(empty, forms, relations, both).tolist() == []

    def test_pairs_do_not_depend_on_the_vocabulary_order(self):
        sentences = make_corpus(("x", "zonk-R"), ("zonk",), ("y", "x"), ("zonk-R",))
        fused = fuse_corpus(make_corpus(("x", "zonk"), ("zonk",), ("y", "x"), ("zonk",)),
                            tags_of((0, 1, 1, "R"), (3, 0, 0, "R")))
        found = find_occurrences(make_corpus(*[("tak",)] * 4), [("tak",)])
        assert fused.vocab != TokenColumns.intern(sentences).vocab
        for side in (fused, TokenColumns.intern(sentences)):
            assert connective_pairs(side, [("zonk",)], ["R"], found).tolist() == [0, 3]


class TestCheckSenses:
    def test_each_sense_reads_back_from_its_fused_token(self):
        forms, relations = [("so",), ("so", "that"), ("so_that",)], ["R"]
        # A form with an induced label, cased or not; a surface outside the
        # inventory fuses into a plain word, whatever its label.
        check_senses([(("so",), "R"), (("So",), "R"), (("well",), "X")], forms, relations)
        for senses, message in [
            ([(("so",), None)], "no default sense for connective 'so'"),
            ([(("so",), "X")], "malformed fused token 'so-X': unknown relation label 'X'"),
            # "so_that-R" reads back as "so that", and "a_b-R" as "a b".
            ([(("so_that",), "R")], "fused token 'so_that-R' does not read back as 'so_that'"),
            ([(("a_b",), "R")], "fused token 'a_b-R' does not read back as 'a_b'"),
        ]:
            with pytest.raises(PipelineError, match=re.escape(message)):
                check_senses(senses, [*forms, ("a", "b")], relations)

    def test_read_back_needs_no_induced_label(self):
        # The half of the check that tag alone runs: an inventory form's
        # token splits back into it, whatever its label; a surface outside
        # the inventory is not checked, as it needs the induced labels.
        forms = [("so",), ("so_that",)]
        check_read_back([(("so",), "X"), (("So",), "R"), (("a_b",), "R")], forms)
        message = "fused token 'so_that-R' does not read back as 'so_that'"
        with pytest.raises(PipelineError, match=re.escape(message)):
            check_read_back([(("so",), "R"), (("so_that",), "R")], forms)


class TestHeuristicTagging:
    def make_inventory(self, *texts):
        return [tuple(t.split()) for t in texts]

    def test_tags_every_match_with_default_sense(self):
        corpus = make_corpus(("although", "it", "rained"), ("dry", "although", "wet"))
        inv = self.make_inventory("although")
        senses = {"although": "Comparison.Concession"}
        tags = heuristic_tag(corpus, inv, senses)
        assert len(tags) == 2
        assert rows_of(tags) == [
            (0, 0, 0, "Comparison.Concession"),
            (1, 1, 1, "Comparison.Concession"),
        ]

    def test_longest_match_wins(self):
        corpus = make_corpus(("even", "though", "though"))
        inv = self.make_inventory("even though", "though")
        senses = {"even though": "Comparison.Concession", "though": "Comparison.Contrast"}
        assert rows_of(heuristic_tag(corpus, inv, senses)) == [
            (0, 0, 1, "Comparison.Concession"),
            (0, 2, 2, "Comparison.Contrast"),
        ]

    def test_missing_default_sense_is_fatal(self):
        # The first match in corpus order without a sense is named.
        corpus = make_corpus(("x", "thus"), ("so", "thus"))
        inv = self.make_inventory("so", "thus", "if")
        with pytest.raises(PipelineError, match="^no default sense for connective 'thus'$"):
            heuristic_tag(corpus, inv, {"if": "R"})

    def test_annotation_count_matches_scan_reference(self):
        rng = random.Random(77)
        vocab = ["if", "then", "or", "else", "x", "y"]
        forms = {("if",), ("or", "else")}
        sentences = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 10))] for _ in range(40)
        ]
        corpus = make_corpus(*map(tuple, sentences))
        senses = {"if": "Contingency.Condition", "or else": "Expansion.Alternative"}
        tagged = heuristic_tag(corpus, list(forms), senses)
        want = longest_match_counts_reference(sentences, forms)
        got: dict[tuple[str, ...], int] = {}
        for k, start, end, _ in rows_of(tagged):
            surface = corpus[k][start : end + 1]
            got[surface] = got.get(surface, 0) + 1
        assert got == {f: c for f, c in want.items() if c}

    def test_fuse_corpus_preserves_ids_and_untagged_sentences(self):
        corpus = make_corpus(("although", "x"), ("plain",))
        inv = self.make_inventory("although")
        senses = {"although": "Comparison.Concession"}
        columns = TokenColumns.intern(corpus)
        fused = fuse_corpus(columns, heuristic_tag(corpus, inv, senses))
        assert list(fused) == [("although-Comparison.Concession", "x"), ("plain",)]
        # The untagged sentence keeps its word ids.
        assert fused.ids[-1] == columns.ids[-1]

    def test_fuse_corpus_on_columns_equals_fusing_each_sentence(self):
        # Columns are fused on the ids; the reference rebuilds each sentence.
        # Words come in mixed case, spans are one to three tokens, some
        # spans are not discourse usage, and "a_b-R" is already a word when
        # a span fuses to it.
        rng = random.Random(5)
        for _ in range(300):
            sentences = [
                tuple(rng.choice(["a", "B", "b", "a_b-R"]) for _ in range(rng.randint(1, 7)))
                for _ in range(rng.randint(1, 5))
            ]
            rows = []
            for k, tokens in enumerate(sentences):
                free = 0
                while free < len(tokens) and rng.random() < 0.7:
                    start = rng.randint(free, len(tokens) - 1)
                    end = rng.randint(start, min(len(tokens), start + 3) - 1)
                    rows.append((k, start, end, "R" if rng.random() < 0.8 else None))
                    free = end + 1
            fused = fuse_corpus(TokenColumns.intern(sentences), tags_of(*rows))
            assert list(fused) == [
                fuse_reference(tokens, [row[1:] for row in rows if row[0] == k])
                for k, tokens in enumerate(sentences)
            ]
            assert len(set(fused.vocab)) == len(fused.vocab)

    def test_an_annotation_file_of_its_spans_tags_and_fuses_alike(self, tmp_path):
        # Both producers of `Tags` on a planted corpus: the heuristic scan,
        # and a file listing the spans and relations that scan finds, in
        # reverse order.
        planted.generate(tmp_path, pairs=300, dc_count=60, thresh_count=20)
        src = load_parallel_corpus(str(tmp_path / "corpus.en"), str(tmp_path / "corpus.fr")).src
        senses = {"zonk": "REL_A", "frub": "REL_B"}
        records = [
            f"{k}\t{i}\t{i}\t{token}\t{senses[token]}\t1"
            for k, sentence in enumerate(src)
            for i, token in enumerate(sentence)
            if token in senses
        ]
        scanned = heuristic_tag(
            src,
            load_connective_inventory(str(tmp_path / "inventory.en")),
            load_default_senses(str(tmp_path / "senses.tsv")),
        )
        loaded = load_records(tmp_path, src, *reversed(records))
        assert len(scanned) == len(records) > 0
        for name in ("sentence", "start", "end"):
            assert getattr(loaded, name).tolist() == getattr(scanned, name).tolist(), name
        assert loaded.relation == scanned.relation
        fused = []
        for name, tags in (("scanned.src", scanned), ("loaded.src", loaded)):
            write_fused_corpus(fuse_corpus(src, tags), str(tmp_path / name))
            fused.append((tmp_path / name).read_bytes())
        assert fused[0] == fused[1]


class TestDefaultSenses:
    def test_loads_and_normalizes(self, tmp_path):
        path = tmp_path / "senses.tsv"
        path.write_text("Although\tComparison.Concession\n", encoding="utf-8")
        senses = load_default_senses(str(path))
        assert senses == {"although": "Comparison.Concession"}

    def test_surfaces_are_keyed_as_the_inventory_keys_its_forms(self, tmp_path):
        # "e.g." is the form "e.g ." in the inventory; its sense must be
        # found under that key, or tagging stops at the first match.
        inventory_path, senses_path = tmp_path / "inv.en", tmp_path / "senses.tsv"
        inventory_path.write_text("e.g.\nEven  Though\n", encoding="utf-8")
        senses_path.write_text("E.g.\tRelA\neven though\tRelB\n", encoding="utf-8")
        inventory = load_connective_inventory(str(inventory_path))
        senses = load_default_senses(str(senses_path))
        assert senses == {"e.g .": "RelA", "even though": "RelB"}
        corpus = make_corpus(("see", "e.g", ".", "even", "though"))
        tagged = heuristic_tag(corpus, inventory, senses)
        assert rows_of(tagged) == [(0, 1, 2, "RelA"), (0, 3, 4, "RelB")]

    def test_conflicting_senses_are_fatal(self, tmp_path):
        path = tmp_path / "senses.tsv"
        path.write_text("si\tA.B\nsi\tC.D\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="conflicting"):
            load_default_senses(str(path))

    def test_every_label_is_checked_whatever_the_corpus(self, tmp_path):
        # A label no fused token can carry stops the load, and not only a
        # tag run whose corpus holds its connective.
        path = tmp_path / "senses.tsv"
        for label in ("Bad-Label", "Bad Label"):
            path.write_text(f"so\tRelA\nsi\t{label}\n", encoding="utf-8")
            want = f"{path}: line 2: relation label {label!r} must not contain whitespace or '-'"
            with pytest.raises(PipelineError, match=f"^{re.escape(want)}$"):
                load_default_senses(str(path))
