"""Corpus loading, tokenization, and connective frequency counting."""

import random
import re
import sys
import unicodedata

import pytest

from dclex.corpus import (
    Bitext,
    FormScan,
    FrequencyTable,
    TokenColumns,
    TokenizerOptions,
    count_occurrences,
    load_parallel_corpus,
    load_token_corpus,
    open_token_corpus,
    read_frequency_table,
    tokenize,
    write_frequency_table,
    write_token_file,
)
from dclex.errors import PipelineError
from dclex.inventory import Connective

from oracles import longest_match_counts_reference, scan_matches_reference


def write_corpus(tmp_path, src_lines, tgt_lines):
    src = tmp_path / "c.src"
    tgt = tmp_path / "c.tgt"
    src.write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    tgt.write_text("\n".join(tgt_lines) + "\n", encoding="utf-8")
    return str(src), str(tgt)


def target_inventory(*texts):
    return [Connective(tuple(t.split())) for t in texts]


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

    def test_no_alphanumeric_character_is_punctuation(self):
        # What makes the tokenizer's shortcut exact: a chunk whose first and
        # last characters are alphanumeric has no edge punctuation to detach.
        clash = [
            hex(code)
            for code in range(sys.maxunicode + 1)
            if chr(code).isalnum() and unicodedata.category(chr(code)).startswith("P")
        ]
        assert clash == []


class TestLoadParallelCorpus:
    def test_pairs_and_line_number_ids(self, tmp_path):
        src, tgt = write_corpus(tmp_path, ["a b", "c"], ["x", "y z"])
        corpus = load_parallel_corpus(src, tgt)
        assert list(corpus) == [(("a", "b"), ("x",)), (("c",), ("y", "z"))]
        assert corpus[1] == (("c",), ("y", "z"))
        assert len(corpus) == 2

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
        assert len(corpus) == 2
        assert corpus.src[0] == ("although", "he", "came", "home", ".")
        assert corpus.src[1] == ("but", "she", "left", ".")
        assert len(load_token_corpus(src, tgt)) == 2

    def test_both_empty_skipped(self, tmp_path):
        # Pairs are numbered as kept: pair k is line k of the token files.
        src, tgt = write_corpus(tmp_path, ["a", "", "b"], ["x", "", "y"])
        corpus = load_parallel_corpus(src, tgt)
        assert list(corpus) == [(("a",), ("x",)), (("b",), ("y",))]

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
        write_token_file((src for src, _ in corpus), str(out_src))
        write_token_file((tgt for _, tgt in corpus), str(out_tgt))
        reloaded = load_token_corpus(str(out_src), str(out_tgt))
        assert list(reloaded) == list(corpus)

    def test_open_token_corpus_reads_as_load_token_corpus(self, tmp_path):
        src, tgt = write_corpus(tmp_path, ["a b\u2028 .", "c"], ["x", "y\tz"])
        loaded, opened = load_token_corpus(src, tgt), open_token_corpus(src, tgt)
        assert len(opened) == len(loaded) == 2
        assert [opened[k] for k in (1, 0)] == [loaded[k] for k in (1, 0)]
        assert list(opened) == list(loaded)
        assert opened.take([1, 0, 1]) == loaded.take([1, 0, 1])
        with pytest.raises(IndexError):
            opened[2]

    def test_open_token_corpus_keeps_the_checks(self, tmp_path):
        for src_lines, tgt_lines, message in (
            (["a", "b"], ["x", "y", "z"], "line count mismatch 2 vs 3"),
            (["a", "b", " \x0c"], ["x", "y", "z"], "empty sentence at line 2"),
            (["a", "b"], ["x", "\u00a0"], "empty sentence at line 1"),
        ):
            src, tgt = write_corpus(tmp_path, src_lines, tgt_lines)
            for load in (load_token_corpus, open_token_corpus):
                with pytest.raises(PipelineError, match=message):
                    load(src, tgt)

    def test_tokens_equal_tokenize_line_by_line(self, tmp_path):
        # Loading lowercases the whole text at once and splits each distinct
        # chunk once; line by line, that must give what `tokenize` gives.
        lines = [
            "«Même si», dit-il… (oui).",  # edge punctuation, stacked
            "... -- !? «»",  # chunks of punctuation only
            "ΟΔΟΣ ΣΟΦΟΣ. ΑΣ",  # final sigma at a word end and at the line end
            "Βήτα ΣΑΣ",  # begins with a cased letter just after that line end
            "un\u2028Deux trois\x85quatre",  # breaks inside a line for splitlines
            "Fin ,de ligne",
        ]
        src, tgt = tmp_path / "c.src", tmp_path / "c.tgt"
        # A byte-order mark, and "\r\n" line ends: "\r" is whitespace.
        src.write_bytes(("\ufeff" + "".join(f"{line}\r\n" for line in lines)).encode())
        tgt.write_text("".join(f"{line}\n" for line in reversed(lines)), encoding="utf-8")
        for lowercase in (True, False):
            opts = TokenizerOptions(lowercase=lowercase)
            corpus = load_parallel_corpus(str(src), str(tgt), opts)
            assert list(corpus.src) == [tuple(tokenize(s, opts)) for s in lines]
            assert list(corpus.tgt) == [tuple(tokenize(s, opts)) for s in reversed(lines)]
            words = [t for s in lines for t in tokenize(s, opts)]
            assert corpus.src.vocab == list(dict.fromkeys(words))
        assert corpus.src[2] == ("ΟΔΟΣ", "ΣΟΦΟΣ", ".", "ΑΣ")
        lowered = load_parallel_corpus(str(src), str(tgt)).src[2]
        assert lowered == ("οδος", "σοφος", ".", "ας")

    def test_lines_are_read_in_blocks(self, tmp_path, monkeypatch):
        # Chunks are interned a block of lines at a time; numbering goes on
        # across blocks, and a block may end on a skipped empty line pair.
        monkeypatch.setattr("dclex.corpus._BLOCK_LINES", 3)
        lines = ["b a,", "", "a (c", "d", "", "", "b", "«e»"]
        src, tgt = write_corpus(tmp_path, lines, [line.upper() for line in lines])
        loaded = load_parallel_corpus(src, tgt)
        kept = [k for k, line in enumerate(lines) if line]
        assert list(loaded.src) == [tuple(tokenize(lines[k])) for k in kept]
        assert loaded.src.vocab == ["b", "a", ",", "(", "c", "d", "«", "e", "»"]
        write_token_file(loaded.src, str(tmp_path / "o.src"))
        write_token_file(loaded.tgt, str(tmp_path / "o.tgt"))
        reloaded = load_token_corpus(str(tmp_path / "o.src"), str(tmp_path / "o.tgt"))
        assert list(reloaded) == list(loaded)

    def test_limit_counts_kept_pairs_and_reads_no_further(self, tmp_path):
        # Line 1 is skipped, so a limit of 2 ends at line 2: the one-sided
        # empty line 3 after it is not read, nor are its words interned.
        src, tgt = write_corpus(tmp_path, ["a", "", "b", "", "c"], ["x", "", "y", "z", "w"])
        corpus = load_parallel_corpus(src, tgt, limit=2)
        assert list(corpus.src) == [("a",), ("b",)]
        assert (corpus.src.vocab, corpus.tgt.vocab) == (["a", "b"], ["x", "y"])
        message = f"{re.escape(src)}: empty line 3 has a non-empty counterpart"
        for limit in (3, None, 0):
            with pytest.raises(PipelineError, match=message):
                load_parallel_corpus(src, tgt, limit=limit)
        with pytest.raises(PipelineError, match="empty line pair at line 1$"):
            load_parallel_corpus(src, tgt, TokenizerOptions(skip_empty=False), limit=2)
        with pytest.raises(PipelineError, match=f"{re.escape(tgt)}: empty line 1 has"):
            load_parallel_corpus(*write_corpus(tmp_path, ["a", "b"], ["x", " \t"]))

    def test_tokens_equal_tokenize_on_random_lines(self, tmp_path):
        # Loading splits each distinct chunk once; chunks repeat across lines
        # and differ only in case or edge punctuation, so a stale or shared
        # split would show.
        rng = random.Random(31)
        punct = [".", ",", "«", "»", "¿", "—", "…", "'", "-", "(", ")", '"', "!"]
        words = ["Même", "même", "si", "QU'IL", "peut-être", "Σοφός", "İl", "x"]

        def chunk():
            core = rng.choice(words + [""])  # "" gives a punctuation-only chunk
            if core and rng.random() < 0.3:
                core = core[:1] + rng.choice(punct) + core[1:]
            lead = "".join(rng.choice(punct) for _ in range(rng.choice([0, 0, 1, 2])))
            trail = "".join(rng.choice(punct) for _ in range(rng.choice([0, 0, 1, 3])))
            return lead + core + trail or "x"

        def line():
            return rng.choice([" ", "  ", "\t", "\u00a0"]).join(
                chunk() for _ in range(rng.randint(1, 8))
            )

        lines = [line() for _ in range(300)]
        src, tgt = write_corpus(tmp_path, lines, lines[::-1])
        for lowercase in (True, False):
            opts = TokenizerOptions(lowercase=lowercase)
            corpus = load_parallel_corpus(src, tgt, opts)
            assert list(corpus.src) == [tuple(tokenize(s, opts)) for s in lines]
            assert list(corpus.tgt) == [tuple(tokenize(s, opts)) for s in lines[::-1]]


def corpus_from_tokens(sentences):
    return Bitext.of([(("src",), tuple(tokens)) for tokens in sentences])


def match_table(forms):
    """Forms by first token, longest first: the table the reference scan reads."""
    table = {}
    for form in sorted(set(forms), key=lambda f: (-len(f), f)):
        table.setdefault(form[0], []).append(form)
    return table


class TestFormScan:
    def test_matches_the_scan_of_every_position(self):
        # Forms nest (a prefix or a tail of a longer form is a form too) and
        # overlap (one form's tail starts another); sentences often end
        # inside a form, and the next one may start with the rest of it, so
        # a window may reach or miss the last token, or straddle two pairs.
        # Some form tokens are in no sentence, and words come in mixed case,
        # as a corpus read with `lowercase = false` holds them.
        rng = random.Random(404)
        vocab = ["a", "b", "c", "d", "e"]
        final = straddled = absent = 0
        for _ in range(400):
            forms = set()
            for _ in range(rng.randint(1, 4)):
                form = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
                forms.add(form)
                forms.add(form[: rng.randint(1, len(form))])  # nested
                forms.add(form[rng.randint(0, len(form) - 1) :])  # nested tail
                forms.add(form[-1:] + tuple(rng.choice(vocab) for _ in range(2)))  # overlap
            if rng.random() < 0.3:
                forms.add((rng.choice(vocab), "zz"))  # "zz" is in no sentence
            sentences = []
            for _ in range(rng.randint(1, 6)):
                tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 14))]
                form = rng.choice(sorted(forms))
                cut = rng.randint(1, len(form))
                tokens += form[:cut]  # sentence-final
                if sentences and rng.random() < 0.5:
                    sentences[-1] += list(form[:cut])
                    tokens = list(form[cut:]) + tokens  # the rest opens the next
                sentences.append(tokens)
            cased = [[t.upper() if rng.random() < 0.3 else t for t in s] for s in sentences]
            columns = TokenColumns.intern(cased)
            scan = FormScan(sorted(forms), columns.vocab)
            table = match_table(forms)
            want = [
                (k, start, form)
                for k, tokens in enumerate(sentences)
                for start, form in scan_matches_reference(tuple(tokens), table)
            ]
            assert list(scan(columns, range(len(columns)))) == want
            # A run of pairs gives the matches of those pairs, by corpus number.
            lo = rng.randint(0, len(columns))
            hi = rng.randint(lo, len(columns))
            assert list(scan(columns, range(lo, hi))) == [m for m in want if lo <= m[0] < hi]
            final += any(start + len(form) == len(sentences[k]) for k, start, form in want)
            straddled += any(
                tuple(a[-1:] + b[:1]) in {f[i : i + 2] for f in forms for i in range(len(f) - 1)}
                for a, b in zip(sentences, sentences[1:])
                if a and b
            )
            absent += any("zz" in form for form in forms)
        assert min(final, straddled, absent) > 100

    def test_no_forms_and_no_tokens(self):
        columns = TokenColumns.intern([["a"], []])
        assert list(FormScan([], columns.vocab)(columns, range(2))) == []
        assert list(FormScan([("a",)], columns.vocab)(columns, range(1, 2))) == []
        with pytest.raises(PipelineError, match="empty connective surface form"):
            FormScan([()], columns.vocab)


class TestTokenColumns:
    SENTENCES = [("b", "a"), (), ("a", "c", "b"), ("d",)]

    def test_intern_numbers_words_by_first_appearance(self):
        columns = TokenColumns.intern(self.SENTENCES)
        assert columns.vocab == ["b", "a", "c", "d"]
        assert columns.ids.tolist() == [0, 1, 1, 2, 0, 3]
        assert columns.offsets.tolist() == [0, 2, 2, 5, 6]
        assert list(columns) == self.SENTENCES
        assert [columns[k] for k in (3, -4, 1)] == [("d",), ("b", "a"), ()]
        with pytest.raises(IndexError):
            columns[4]

    def test_token_file_bytes(self, tmp_path):
        for sentences in (self.SENTENCES, [(), ()], [("é", "x")], [], [(), ("ß",), ()]):
            path = tmp_path / "tokens"
            write_token_file(sentences, str(path))
            want = "".join(" ".join(tokens) + "\n" for tokens in sentences)
            assert path.read_bytes() == want.encode()


class TestCountOccurrences:
    def test_longest_match_shadows_substrings(self):
        corpus = corpus_from_tokens([["même", "si", "même", "si"]])
        inv = target_inventory("même si", "si")
        freqs = count_occurrences(corpus, inv)
        assert freqs.count("même si") == 2
        assert freqs.count("si") == 0

    def test_no_match_across_gaps(self):
        corpus = corpus_from_tokens([["si", "même"]])
        freqs = count_occurrences(corpus, target_inventory("même si"))
        assert freqs.count("même si") == 0

    def test_matching_is_case_insensitive(self):
        corpus = corpus_from_tokens([["Même", "SI"]])
        freqs = count_occurrences(corpus, target_inventory("même si"))
        assert freqs.count("même si") == 1

    def test_absent_form_counts_zero_and_is_listed(self):
        corpus = corpus_from_tokens([["a"]])
        freqs = count_occurrences(corpus, target_inventory("b"))
        assert freqs.count("b") == 0
        assert "b" in freqs.entries

    def test_empty_inventory_is_fatal(self):
        with pytest.raises(PipelineError, match="empty"):
            count_occurrences(corpus_from_tokens([["a"]]), [])

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
            inv = [Connective(f) for f in forms]
            got = count_occurrences(corpus, inv)
            want = longest_match_counts_reference(sentences, forms)
            assert got.entries == {" ".join(f): c for f, c in want.items()}

    def test_total_matches_bounded_by_token_count(self):
        rng = random.Random(5)
        sentences = [[rng.choice("ab") for _ in range(8)] for _ in range(30)]
        corpus = corpus_from_tokens(sentences)
        inv = target_inventory("a", "a b", "b")
        freqs = count_occurrences(corpus, inv)
        assert sum(freqs.entries.values()) <= sum(len(s) for s in sentences)



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
