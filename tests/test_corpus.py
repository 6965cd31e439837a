"""Corpus loading, tokenization, and connective frequency counting."""

import random

import pytest

from dclex.corpus import (
    Corpus,
    FrequencyTable,
    SentencePair,
    TokenizerOptions,
    count_occurrences,
    load_parallel_corpus,
    load_token_corpus,
    read_frequency_table,
    tokenize,
    write_frequency_table,
    write_token_file,
)
from dclex.errors import PipelineError
from dclex.inventory import Connective

from oracles import longest_match_counts_reference


def write_corpus(tmp_path, src_lines, tgt_lines):
    src = tmp_path / "c.src"
    tgt = tmp_path / "c.tgt"
    src.write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    tgt.write_text("\n".join(tgt_lines) + "\n", encoding="utf-8")
    return str(src), str(tgt)


def target_inventory(*texts):
    return [Connective(tuple(t.split()), "target") for t in texts]


class TestTokenize:
    def test_lowercases_and_detaches_edge_punctuation(self):
        assert tokenize("Même si, oui.") == ["même", "si", ",", "oui", "."]

    def test_case_preserved_when_disabled(self):
        opts = TokenizerOptions(lowercase=False)
        assert tokenize("Même Si", opts) == ["Même", "Si"]

    def test_internal_punctuation_stays_attached(self):
        assert tokenize("qu'il arrive peut-être") == ["qu'il", "arrive", "peut-être"]

    def test_stacked_edge_punctuation(self):
        assert tokenize("(word).") == ["(", "word", ")", "."]
        assert tokenize('"non !"') == ['"', "non", "!", '"']

    def test_idempotent_on_own_output(self):
        for text in ["Hello, (world)!", "a -- b", "C'est ... fini.", "(a) [b] {c}"]:
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once

    def test_whitespace_only_is_empty(self):
        assert tokenize("   \t ") == []


class TestLoadParallelCorpus:
    def test_pairs_and_line_number_ids(self, tmp_path):
        src, tgt = write_corpus(tmp_path, ["a b", "c"], ["x", "y z"])
        corpus = load_parallel_corpus(src, tgt)
        assert [p.id for p in corpus.pairs] == [0, 1]
        assert corpus.pairs[0].src_tokens == ("a", "b")
        assert corpus.pairs[1].tgt_tokens == ("y", "z")
        assert len(corpus.pairs) == 2

    def test_line_count_mismatch_names_both_counts(self, tmp_path):
        src, tgt = write_corpus(tmp_path, ["a", "b"], ["x", "y", "z"])
        with pytest.raises(PipelineError, match="2 vs 3"):
            load_parallel_corpus(src, tgt)

    def test_lines_split_on_newline_only(self, tmp_path):
        # U+2028, U+0085 and form feed end a line for str.splitlines, not
        # in the corpus files; to the tokenizer they are whitespace.
        src, tgt = write_corpus(
            tmp_path,
            ["although he came\u2028 home .", "but\x85 she left\x0c ."],
            ["bien qu'il\u2028 soit venu .", "mais elle est partie ."],
        )
        corpus = load_parallel_corpus(src, tgt)
        assert [p.id for p in corpus.pairs] == [0, 1]
        assert corpus.pairs[0].src_tokens == ("although", "he", "came", "home", ".")
        assert corpus.pairs[1].src_tokens == ("but", "she", "left", ".")
        assert len(load_token_corpus(src, tgt).pairs) == 2

    def test_both_empty_skipped_preserving_ids(self, tmp_path):
        src, tgt = write_corpus(tmp_path, ["a", "", "b"], ["x", "", "y"])
        corpus = load_parallel_corpus(src, tgt)
        assert [p.id for p in corpus.pairs] == [0, 2]

    def test_empty_pair_fatal_when_skipping_disabled(self, tmp_path):
        src, tgt = write_corpus(tmp_path, ["a", ""], ["x", ""])
        opts = TokenizerOptions(skip_empty=False)
        with pytest.raises(PipelineError, match="empty line pair"):
            load_parallel_corpus(src, tgt, opts)

    def test_one_sided_empty_line_is_fatal(self, tmp_path):
        src, tgt = write_corpus(tmp_path, ["a", ""], ["x", "y"])
        with pytest.raises(PipelineError, match="line 1"):
            load_parallel_corpus(src, tgt)

    def test_invalid_utf8_reports_line(self, tmp_path):
        src = tmp_path / "c.src"
        src.write_bytes(b"ok line\nbad \xff byte\n")
        tgt = tmp_path / "c.tgt"
        tgt.write_text("x\ny\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="line 2"):
            load_parallel_corpus(str(src), str(tgt))

    def test_limit_truncates(self, tmp_path):
        src, tgt = write_corpus(tmp_path, ["a", "b", "c"], ["x", "y", "z"])
        corpus = load_parallel_corpus(src, tgt, limit=2)
        assert len(corpus) == 2

    def test_token_corpus_round_trip(self, tmp_path):
        src, tgt = write_corpus(tmp_path, ["a b .", "c"], ["x", "y z"])
        corpus = load_parallel_corpus(src, tgt)
        out_src = tmp_path / "o.src"
        out_tgt = tmp_path / "o.tgt"
        write_token_file((p.src_tokens for p in corpus.pairs), str(out_src))
        write_token_file((p.tgt_tokens for p in corpus.pairs), str(out_tgt))
        reloaded = load_token_corpus(str(out_src), str(out_tgt))
        assert [p.src_tokens for p in reloaded.pairs] == [p.src_tokens for p in corpus.pairs]
        assert [p.tgt_tokens for p in reloaded.pairs] == [p.tgt_tokens for p in corpus.pairs]


def corpus_from_tokens(sentences):
    pairs = tuple(
        SentencePair(i, ("src",), tuple(tokens)) for i, tokens in enumerate(sentences)
    )
    return Corpus(pairs)


class TestCountOccurrences:
    def test_longest_match_shadows_substrings(self):
        corpus = corpus_from_tokens([["même", "si", "même", "si"]])
        inv = target_inventory("même si", "si")
        freqs = count_occurrences(corpus, "target", inv)
        assert freqs.count("même si") == 2
        assert freqs.count("si") == 0

    def test_no_match_across_gaps(self):
        corpus = corpus_from_tokens([["si", "même"]])
        freqs = count_occurrences(corpus, "target", target_inventory("même si"))
        assert freqs.count("même si") == 0

    def test_matching_is_case_insensitive(self):
        corpus = corpus_from_tokens([["Même", "SI"]])
        freqs = count_occurrences(corpus, "target", target_inventory("même si"))
        assert freqs.count("même si") == 1

    def test_absent_form_counts_zero_and_is_listed(self):
        corpus = corpus_from_tokens([["a"]])
        freqs = count_occurrences(corpus, "target", target_inventory("b"))
        assert freqs.count("b") == 0
        assert "b" in freqs.entries

    def test_empty_inventory_is_fatal(self):
        with pytest.raises(PipelineError, match="empty"):
            count_occurrences(corpus_from_tokens([["a"]]), "target", [])

    def test_matches_reference_scan_on_random_corpora(self):
        rng = random.Random(2024)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(60):
            forms = set()
            for _ in range(rng.randint(1, 5)):
                width = rng.randint(1, 3)
                forms.add(tuple(rng.choice(vocab) for _ in range(width)))
            sentences = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
                for _ in range(rng.randint(1, 20))
            ]
            corpus = corpus_from_tokens(sentences)
            inv = [Connective(f, "target") for f in forms]
            got = count_occurrences(corpus, "target", inv)
            want = longest_match_counts_reference(sentences, forms)
            assert got.entries == {" ".join(f): c for f, c in want.items()}

    def test_total_matches_bounded_by_token_count(self):
        rng = random.Random(5)
        sentences = [[rng.choice("ab") for _ in range(8)] for _ in range(30)]
        corpus = corpus_from_tokens(sentences)
        inv = target_inventory("a", "a b", "b")
        freqs = count_occurrences(corpus, "target", inv)
        assert sum(freqs.entries.values()) <= sum(len(s) for s in sentences)

    def test_thread_count_does_not_change_counts(self):
        rng = random.Random(9)
        sentences = [[rng.choice("abc") for _ in range(6)] for _ in range(200)]
        corpus = corpus_from_tokens(sentences)
        inv = target_inventory("a", "b c")
        one = count_occurrences(corpus, "target", inv, threads=1)
        many = count_occurrences(corpus, "target", inv, threads=4)
        assert one.entries == many.entries


class TestFrequencyTableIO:
    def test_export_sorted_by_count_then_form(self, tmp_path):
        table = FrequencyTable({"b": 2, "a": 2, "c": 5, "z": 0})
        path = tmp_path / "freqs.tsv"
        write_frequency_table(table, str(path))
        assert path.read_text(encoding="utf-8") == "c\t5\na\t2\nb\t2\nz\t0\n"

    def test_round_trip(self, tmp_path):
        table = FrequencyTable({"même si": 12, "si": 0})
        path = tmp_path / "freqs.tsv"
        write_frequency_table(table, str(path))
        assert read_frequency_table(str(path)).entries == table.entries

    def test_bad_row_is_fatal(self, tmp_path):
        path = tmp_path / "freqs.tsv"
        path.write_text("oops\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="line 1"):
            read_frequency_table(str(path))
