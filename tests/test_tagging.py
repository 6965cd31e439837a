"""Discourse annotation handling and relation-tag token fusion."""

import random
import re

import pytest

from dclex.corpus import TokenColumns
from dclex.errors import PipelineError
from dclex.inventory import load_connective_inventory
from dclex.tagging import (
    DCAnnotation,
    fuse_corpus,
    fuse_token,
    heuristic_tag,
    load_annotations,
    load_default_senses,
    split_fused_token,
    write_annotations,
)

from oracles import fuse_reference, longest_match_counts_reference


def make_corpus(*sentences):
    """The source side of a tokenized corpus: sentence k is line k."""
    return [tuple(tokens) for tokens in sentences]


def by_sentence(annotations):
    grouped: dict[int, list[DCAnnotation]] = {}
    for ann in annotations:
        grouped.setdefault(ann.sentence_id, []).append(ann)
    return grouped


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
    def test_valid_annotation(self):
        ann = DCAnnotation(0, 1, 2, ("even", "though"), "Comparison.Concession", True)
        assert ann.end - ann.start + 1 == 2

    def test_relation_required_iff_discourse_usage(self):
        with pytest.raises(PipelineError):
            DCAnnotation(0, 0, 0, ("si",), None, True)
        with pytest.raises(PipelineError):
            DCAnnotation(0, 0, 0, ("si",), "Concession", False)
        DCAnnotation(0, 0, 0, ("si",), None, False)  # non-discourse reading

    def test_inverted_span_rejected(self):
        with pytest.raises(PipelineError):
            DCAnnotation(0, 2, 1, ("si",), "X", True)

    def test_surface_must_cover_span(self):
        with pytest.raises(PipelineError):
            DCAnnotation(0, 0, 1, ("si",), "X", True)

    def test_relation_label_charset(self):
        with pytest.raises(PipelineError):
            DCAnnotation(0, 0, 0, ("si",), "Bad Label", True)
        with pytest.raises(PipelineError):
            DCAnnotation(0, 0, 0, ("si",), "Bad-Label", True)


def fuse_one(tokens, annotations):
    """The one sentence of `fuse_corpus` on a one-sentence corpus."""
    return fuse_corpus(make_corpus(tokens), annotations)[0]


class TestFuseTokens:
    def test_worked_example(self):
        anns = [DCAnnotation(0, 0, 0, ("although",), "Comparison.Concession", True)]
        assert fuse_one(("although", "it", "rained"), anns) == (
            "although-Comparison.Concession",
            "it",
            "rained",
        )

    def test_multiword_span_collapses_token_count(self):
        tokens = ("fine", ",", "even", "though", "late")
        anns = [DCAnnotation(0, 2, 3, ("even", "though"), "Comparison.Concession", True)]
        fused = fuse_one(tokens, anns)
        assert fused == ("fine", ",", "even_though-Comparison.Concession", "late")
        assert len(fused) == len(tokens) - 1

    def test_non_discourse_annotation_passes_through(self):
        anns = [DCAnnotation(0, 0, 0, ("so",), None, False)]
        assert fuse_one(("so", "what"), anns) == ("so", "what")

    def test_overlapping_spans_are_fatal(self):
        anns = [
            DCAnnotation(0, 0, 1, ("even", "though"), "A.B", True),
            DCAnnotation(0, 1, 1, ("though",), "C.D", True),
        ]
        with pytest.raises(PipelineError, match="overlap"):
            fuse_one(("even", "though", "so"), anns)

    def test_annotation_for_other_sentence_is_fatal(self):
        # An annotation is checked against its own sentence, not another.
        corpus = make_corpus(("si",), ("x",), ("y",), ("z",))
        anns = [DCAnnotation(3, 0, 0, ("si",), "X", True)]
        with pytest.raises(PipelineError, match="sentence 3"):
            fuse_corpus(corpus, anns)

    def test_span_out_of_bounds_is_fatal(self):
        anns = [DCAnnotation(0, 0, 1, ("si", "non"), "X", True)]
        with pytest.raises(PipelineError, match="out of bounds"):
            fuse_one(("si",), anns)

    def test_surface_mismatch_is_fatal(self):
        anns = [DCAnnotation(0, 0, 0, ("non",), "X", True)]
        with pytest.raises(PipelineError, match="surface"):
            fuse_one(("si",), anns)

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
                    spans.append((start, end))
                cursor = end + 1
            anns = [
                DCAnnotation(0, s, e, tokens[s : e + 1], "REL_X", True)
                for s, e in spans
            ]
            collapsed = sum(e - s for s, e in spans)
            assert len(fuse_one(tokens, anns)) == n - collapsed


class TestAnnotationIO:
    def test_write_load_round_trip(self, tmp_path):
        corpus = make_corpus(("even", "though", "x"), ("so",))
        anns = [
            DCAnnotation(0, 0, 1, ("even", "though"), "Comparison.Concession", True),
            DCAnnotation(1, 0, 0, ("so",), None, False),
        ]
        path = tmp_path / "anns.tsv"
        write_annotations(anns, str(path))
        assert load_annotations(str(path), corpus) == anns

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


class TestHeuristicTagging:
    def make_inventory(self, *texts):
        return [tuple(t.split()) for t in texts]

    def test_tags_every_match_with_default_sense(self):
        corpus = make_corpus(("although", "it", "rained"), ("dry", "although", "wet"))
        inv = self.make_inventory("although")
        senses = {"although": "Comparison.Concession"}
        tagged = by_sentence(heuristic_tag(corpus, inv, senses))
        assert [len(v) for v in tagged.values()] == [1, 1]
        ann = tagged[0][0]
        assert (ann.start, ann.end, ann.relation) == (0, 0, "Comparison.Concession")
        assert tagged[1][0].start == 1

    def test_longest_match_wins(self):
        corpus = make_corpus(("even", "though", "though"))
        inv = self.make_inventory("even though", "though")
        senses = {"even though": "Comparison.Concession", "though": "Comparison.Contrast"}
        tagged = heuristic_tag(corpus, inv, senses)
        spans = [(a.start, a.end, a.relation) for a in tagged]
        assert spans == [
            (0, 1, "Comparison.Concession"),
            (2, 2, "Comparison.Contrast"),
        ]

    def test_missing_default_sense_is_fatal(self):
        corpus = make_corpus(("so",))
        inv = self.make_inventory("so")
        with pytest.raises(PipelineError, match="default sense"):
            heuristic_tag(corpus, inv, {})

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
        for ann in tagged:
            got[ann.surface] = got.get(ann.surface, 0) + 1
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
        # annotations are not discourse usage, and "a_b-R" is already a word
        # when a span fuses to it.
        rng = random.Random(5)
        for _ in range(300):
            sentences = [
                tuple(rng.choice(["a", "B", "b", "a_b-R"]) for _ in range(rng.randint(1, 7)))
                for _ in range(rng.randint(1, 5))
            ]
            anns = []
            for k, tokens in enumerate(sentences):
                free = 0
                while free < len(tokens) and rng.random() < 0.7:
                    start = rng.randint(free, len(tokens) - 1)
                    end = rng.randint(start, min(len(tokens), start + 3) - 1)
                    surface = tuple(t.lower() for t in tokens[start : end + 1])
                    usage = rng.random() < 0.8
                    anns.append(DCAnnotation(k, start, end, surface, "R" if usage else None, usage))
                    free = end + 1
            rng.shuffle(anns)
            fused = fuse_corpus(TokenColumns.intern(sentences), anns)
            assert list(fused) == [
                fuse_reference(tokens, [a for a in anns if a.sentence_id == k])
                for k, tokens in enumerate(sentences)
            ]
            assert len(set(fused.vocab)) == len(fused.vocab)

    def test_fuse_corpus_on_columns_fails_as_each_sentence_does(self):
        # The exact messages, for a list and for its columns alike.
        sentences = make_corpus(("a", "b", "c"), ("even", "though"))
        for anns, want in (
            (
                [DCAnnotation(1, 1, 2, ("though", "x"), "R", True)],  # past the end
                "sentence 1: span [1, 2] out of bounds (length 2)",
            ),
            (
                [
                    DCAnnotation(0, 0, 1, ("a", "b"), "R", True),
                    DCAnnotation(0, 1, 1, ("b",), None, False),
                ],
                "sentence 0: overlapping annotation at 1",
            ),
            (
                [DCAnnotation(1, 0, 1, ("even", "so"), "R", True)],  # other tokens
                "sentence 1: tokens ('even', 'though') at [0, 1] do not match "
                "annotated surface ('even', 'so')",
            ),
        ):
            for corpus in (sentences, TokenColumns.intern(sentences)):
                with pytest.raises(PipelineError, match=f"^{re.escape(want)}$"):
                    fuse_corpus(corpus, anns)

    def test_fuse_corpus_rejects_unknown_sentence_ids(self):
        corpus = make_corpus(("si",))
        anns = [DCAnnotation(9, 0, 0, ("si",), "X", True)]
        with pytest.raises(PipelineError, match="unknown sentence id 9"):
            fuse_corpus(corpus, anns)


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
        assert [(a.start, a.end, a.relation) for a in tagged] == [(1, 2, "RelA"), (3, 4, "RelB")]

    def test_conflicting_senses_are_fatal(self, tmp_path):
        path = tmp_path / "senses.tsv"
        path.write_text("si\tA.B\nsi\tC.D\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="conflicting"):
            load_default_senses(str(path))
