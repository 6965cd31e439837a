"""EM training, Viterbi decoding, and alignment symmetrization."""

import hashlib
import random

import pytest

from dclex import alignment
from dclex.alignment import (
    HEURISTICS,
    PROB_FLOOR,
    Links,
    TranslationTable,
    format_alignments,
    read_alignments,
    symmetrize,
    train_model1,
    train_model2,
    transpose,
    viterbi_align,
    viterbi_align_model2,
    write_alignments,
    write_translation_table,
)
from dclex.errors import PipelineError
from dclex.parallel import CHUNK_SIZE

from oracles import (
    em_model1_reference,
    em_model2_reference,
    symmetrize_reference,
    viterbi_reference,
)

TWO_PAIR_FIXTURE = [
    (("the", "house"), ("la", "maison")),
    (("the", "key"), ("la", "clé")),
]


def random_corpus(rng, n_pairs, vocab_src, vocab_tgt, max_len=6):
    pairs = []
    for _ in range(n_pairs):
        src = tuple(rng.choice(vocab_src) for _ in range(rng.randint(1, max_len)))
        tgt = tuple(rng.choice(vocab_tgt) for _ in range(rng.randint(1, max_len)))
        pairs.append((src, tgt))
    return pairs


def assert_rows_normalized(probs, tol=1e-9):
    for e, row in probs.items():
        assert abs(sum(row.values()) - 1.0) <= tol, f"row {e!r} sums to {sum(row.values())}"


class TestModel1Training:
    def test_single_pair_without_null_is_certain(self):
        table = train_model1([(("a",), ("x",))], iterations=3, use_null=False)
        assert table.prob("a", "x") == pytest.approx(1.0)

    def test_anchor_word_disambiguates_fixture(self):
        table = train_model1(TWO_PAIR_FIXTURE, iterations=10, use_null=False)
        assert table.prob("the", "la") >= 0.9
        assert table.prob("the", "la") > table.prob("the", "maison")
        assert table.prob("house", "maison") > table.prob("house", "la")

    def test_matches_flat_reference_implementation(self):
        for use_null in (False, True):
            table = train_model1(TWO_PAIR_FIXTURE, iterations=6, use_null=use_null)
            ref_probs, ref_lls = em_model1_reference(
                TWO_PAIR_FIXTURE, iterations=6, use_null=use_null
            )
            for e, row in table.probs.items():
                for f, p in row.items():
                    assert p == pytest.approx(ref_probs[(e, f)], abs=1e-12)
            assert len(table.log_likelihoods) == 6
            for got, want in zip(table.log_likelihoods, ref_lls):
                assert got == pytest.approx(want, abs=1e-9)

    def test_matches_reference_across_chunks(self):
        rng = random.Random(31)
        pairs = random_corpus(rng, CHUNK_SIZE + 300, ["a", "b", "c", "d"], ["u", "v", "w", "x"])
        table = train_model1(pairs, iterations=3)
        ref_probs, ref_lls = em_model1_reference(pairs, iterations=3, use_null=True)
        assert {(e, f) for e, row in table.probs.items() for f in row} == set(ref_probs)
        for e, row in table.probs.items():
            for f, p in row.items():
                assert p == pytest.approx(ref_probs[(e, f)], abs=1e-12)
        for got, want in zip(table.log_likelihoods, ref_lls):
            assert got == pytest.approx(want, abs=1e-9)

    def test_rows_normalized_on_random_corpora(self):
        rng = random.Random(101)
        for trial in range(8):
            pairs = random_corpus(rng, 20, ["a", "b", "c", "d"], ["u", "v", "w", "x"])
            table = train_model1(pairs, iterations=1 + trial % 4, use_null=trial % 2 == 0)
            assert_rows_normalized(table.probs)

    def test_log_likelihood_non_decreasing(self):
        rng = random.Random(55)
        for _ in range(6):
            pairs = random_corpus(rng, 30, ["a", "b", "c"], ["u", "v", "w"])
            table = train_model1(pairs, iterations=6)
            lls = table.log_likelihoods
            assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:])), lls
            assert all(ll <= 1e-9 for ll in lls)  # log-probabilities

    def test_thread_count_is_invisible_in_output(self):
        rng = random.Random(8)
        vocab_src, vocab_tgt = ["a", "b", "c", "d", "e"], ["u", "v", "w", "x"]
        pairs = random_corpus(rng, 2 * CHUNK_SIZE + 400, vocab_src, vocab_tgt)
        one = train_model1(pairs, iterations=3, threads=1)
        many = train_model1(pairs, iterations=3, threads=4)
        assert one.probs == many.probs
        assert one.log_likelihoods == many.log_likelihoods

    def test_bad_inputs_are_fatal(self):
        with pytest.raises(PipelineError, match="iterations"):
            train_model1(TWO_PAIR_FIXTURE, iterations=0)
        with pytest.raises(PipelineError, match="empty corpus"):
            train_model1([], iterations=1)
        with pytest.raises(PipelineError, match="pair 1"):
            train_model1([(("a",), ("x",)), ((), ("y",))], iterations=1)

    def test_unknown_pair_probability_is_floored(self):
        table = train_model1(TWO_PAIR_FIXTURE, iterations=2)
        assert table.prob("the", "never-seen") == PROB_FLOOR
        assert table.prob("never-seen", "la") == PROB_FLOOR


class TestViterbi:
    def test_fixture_aligns_diagonally(self):
        table = train_model1(TWO_PAIR_FIXTURE, iterations=10, use_null=False)
        alignment = viterbi_align(TWO_PAIR_FIXTURE[0], table)
        assert alignment.links == frozenset({(0, 0), (1, 1)})

    def test_ties_break_to_lowest_source_index(self):
        table = TranslationTable({"a": {"x": 0.5}, "b": {"x": 0.5}}, use_null=False)
        alignment = viterbi_align((("a", "b"), ("x",)), table)
        assert alignment.links == frozenset({(0, 0)})

    def test_null_absorbs_when_tied_or_better(self):
        # Equal scores everywhere: NULL (index -1) wins the tie, link dropped.
        table = TranslationTable({}, use_null=True)
        alignment = viterbi_align((("a",), ("x",)), table)
        assert alignment.links == frozenset()

    def test_matches_reference_decoder_on_random_tables(self):
        rng = random.Random(303)
        vocab_src = ["a", "b", "c"]
        vocab_tgt = ["u", "v", "w"]
        for _ in range(40):
            pairs = random_corpus(rng, 10, vocab_src, vocab_tgt, max_len=5)
            table = train_model1(pairs, iterations=2, use_null=True)
            flat = {
                (e, f): p for e, row in table.probs.items() for f, p in row.items()
            }
            for pair in pairs[:4]:
                got = viterbi_align(pair, table)
                want = viterbi_reference(pair[0], pair[1], flat, use_null=True)
                assert got.links == frozenset(want)

    def test_empty_source_requires_null(self):
        table = TranslationTable({}, use_null=False)
        with pytest.raises(PipelineError):
            viterbi_align(((), ("x",)), table, use_null=False)


class TestModel2:
    def test_rows_normalized_and_ll_non_decreasing(self):
        rng = random.Random(21)
        pairs = random_corpus(rng, 40, ["a", "b", "c"], ["u", "v", "w"], max_len=4)
        tables = train_model2(pairs, iterations=5)
        assert_rows_normalized(tables.probs)
        for row in tables.distortion.values():
            assert abs(sum(row.values()) - 1.0) <= 1e-9
        lls = tables.log_likelihoods
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_distortion_prefers_observed_position(self):
        # Target word always translates the second source token.
        pairs = [(("a", "b"), ("v",)), (("c", "b"), ("v",)), (("d", "b"), ("v",))]
        tables = train_model2(pairs, iterations=8, use_null=False)
        alignment = viterbi_align_model2((("z", "b"), ("v",)), tables)
        assert alignment.links == frozenset({(1, 0)})

    def test_unseen_length_configuration_falls_back_to_lexical(self):
        tables = train_model2(TWO_PAIR_FIXTURE, iterations=8, use_null=False)
        # 3-token source never seen in training: uniform distortion, lexical wins.
        alignment = viterbi_align_model2((("pad", "the", "house"), ("la",)), tables)
        assert alignment.links == frozenset({(1, 0)})

    def test_thread_count_is_invisible_in_output(self):
        rng = random.Random(4)
        pairs = random_corpus(rng, 2 * CHUNK_SIZE + 300, ["a", "b", "c"], ["u", "v"], max_len=3)
        one = train_model2(pairs, iterations=2, threads=1)
        many = train_model2(pairs, iterations=2, threads=4)
        assert one.probs == many.probs
        assert one.distortion == many.distortion
        assert one.log_likelihoods == many.log_likelihoods

    def test_matches_flat_reference_implementation(self):
        rng = random.Random(77)
        corpora = [
            TWO_PAIR_FIXTURE,
            random_corpus(rng, 30, ["a", "b", "c"], ["u", "v", "w"], max_len=4),
            random_corpus(rng, CHUNK_SIZE + 300, ["a", "b", "c"], ["u", "v", "w"], max_len=4),
        ]
        for pairs in corpora:
            for use_null in (False, True):
                tables = train_model2(pairs, iterations=5, use_null=use_null)
                ref_t, ref_q, ref_lls = em_model2_reference(pairs, iterations=5, use_null=use_null)
                probs = tables.probs
                assert {(e, f) for e, row in probs.items() for f in row} == set(ref_t)
                for e, row in probs.items():
                    for f, p in row.items():
                        assert p == pytest.approx(ref_t[(e, f)], abs=1e-12)
                got_q = {
                    (i, j, l, m): p
                    for (l, m, j), row in tables.distortion.items()
                    for i, p in row.items()
                }
                assert set(got_q) == set(ref_q)
                for key, p in got_q.items():
                    assert p == pytest.approx(ref_q[key], abs=1e-12)
                assert len(tables.log_likelihoods) == 5
                for got, want in zip(tables.log_likelihoods, ref_lls):
                    assert got == pytest.approx(want, abs=1e-9)


class TestTrainedPairDecoding:
    def test_matches_per_pair_decoders_across_chunks(self):
        rng = random.Random(12)
        vocab_src, vocab_tgt = ["a", "b", "c", "d"], ["u", "v", "w"]
        pairs = random_corpus(rng, CHUNK_SIZE + 200, vocab_src, vocab_tgt, max_len=4)
        indices = range(CHUNK_SIZE - 100, len(pairs))  # crosses a chunk boundary
        for use_null in (True, False):
            table = train_model1(pairs, iterations=2, use_null=use_null)
            want = [viterbi_align(pairs[k], table).links for k in indices]
            assert link_sets(table.viterbi_training_pairs(indices)) == want
            tables = train_model2(pairs, iterations=2, use_null=use_null)
            want = [viterbi_align_model2(pairs[k], tables).links for k in indices]
            assert link_sets(tables.viterbi_training_pairs(indices)) == want


class TestPinnedFloats:
    # SHA-256 of the repr of every trained float and every decoded link on a
    # fixed corpus of two chunks. Any change in how EM adds up its sums, or a
    # non-Python float handed out, changes the digest.
    DIGEST = "c3630585d87a64e721310855dff30bcecc005e0cb244b8acbe482fad4899f306"

    def test_em_floats_and_links_are_pinned(self):
        rng = random.Random(2017)
        vocab_src = [f"s{k}" for k in range(40)]
        vocab_tgt = [f"t{k}" for k in range(30)]
        pairs = random_corpus(rng, CHUNK_SIZE + 300, vocab_src, vocab_tgt, max_len=8)
        parts = []
        for train in (train_model1, train_model2):
            table = train(pairs, iterations=4)
            parts.append(sorted((e, sorted(row.items())) for e, row in table.probs.items()))
            parts.append(sorted((key, sorted(row.items())) for key, row in table.distortion.items()))
            parts.append(table.log_likelihoods)
            decoded = table.viterbi_training_pairs(range(len(pairs)))
            parts.append([decoded.pair(k) for k in range(len(decoded))])
        digest = hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
        assert digest == self.DIGEST


def links(*pairs):
    return frozenset(pairs)


def link_sets(decoded):
    return [frozenset(decoded.pair(k)) for k in range(len(decoded))]


def sym(fwd, bwd, heuristic):
    """`symmetrize` on one pair's link sets."""
    (grown,) = link_sets(symmetrize(Links.of([fwd]), Links.of([bwd]), heuristic))
    return grown


class TestSymmetrize:
    def test_intersection_and_union(self):
        fwd = links((0, 0), (1, 1))
        bwd = links((0, 0), (2, 1))
        assert sym(fwd, bwd, "intersection") == links((0, 0))
        assert sym(fwd, bwd, "union") == links((0, 0), (1, 1), (2, 1))

    def test_grow_diag_adopts_adjacent_links(self):
        fwd = links((0, 0), (1, 1))
        bwd = links((0, 0), (2, 1))
        assert sym(fwd, bwd, "grow-diag-final") == links((0, 0), (1, 1), (2, 1))

    def test_final_pass_rescues_detached_links(self):
        # (5, 5) is far from the seed but covers otherwise-unaligned rows.
        assert (5, 5) in sym(links((0, 0), (5, 5)), links((0, 0)), "grow-diag-final")

    def test_sandwich_and_idempotence_on_random_links(self):
        rng = random.Random(909)
        for _ in range(100):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            all_cells = [(i, j) for i in range(n) for j in range(m)]
            fwd = frozenset(c for c in all_cells if rng.random() < 0.3)
            bwd = frozenset(c for c in all_cells if rng.random() < 0.3)
            inter = sym(fwd, bwd, "intersection")
            union = sym(fwd, bwd, "union")
            grown = sym(fwd, bwd, "grow-diag-final")
            assert inter <= grown <= union
            assert sym(fwd, fwd, "grow-diag-final") == fwd

    def test_equals_set_oracle_over_a_batch(self):
        # One batch of more than a chunk of pairs: empty link sets, one-token
        # sides and larger grids side by side in one numbering of cells.
        rng = random.Random(31)
        fwd_sets, bwd_sets = [], []
        for _ in range(CHUNK_SIZE + 200):
            n, m = rng.choice((1, rng.randint(1, 8))), rng.choice((1, rng.randint(1, 8)))
            rate = rng.choice((0.0, 0.15, 0.35))
            cells = [(i, j) for i in range(n) for j in range(m)]
            fwd_sets.append(frozenset(c for c in cells if rng.random() < rate))
            bwd_sets.append(frozenset(c for c in cells if rng.random() < rate))
        assert any(not f and not b for f, b in zip(fwd_sets, bwd_sets))
        fwd, bwd = Links.of(fwd_sets), Links.of(bwd_sets)
        for heuristic in HEURISTICS:
            want = [symmetrize_reference(f, b, heuristic) for f, b in zip(fwd_sets, bwd_sets)]
            assert link_sets(symmetrize(fwd, bwd, heuristic)) == want, heuristic

    def test_unknown_heuristic_is_fatal(self):
        fwd = Links.of([links((0, 0))])
        with pytest.raises(PipelineError, match="heuristic"):
            symmetrize(fwd, fwd, "mystery")

    def test_transpose_flips_orientation(self):
        flipped = transpose(Links.of([links((0, 2), (3, 1)), links(), links((1, 0), (0, 1))]))
        assert link_sets(flipped) == [links((2, 0), (1, 3)), links(), links((0, 1), (1, 0))]
        assert flipped.pair(0) == [(1, 3), (2, 0)]


class TestAlignmentIO:
    def test_format_is_sorted_pharaoh(self):
        alignment = Links.of([links((2, 1), (0, 0), (2, 0)), links(), links((10, 3))])
        assert format_alignments(alignment) == "0-0 2-0 2-1\n\n10-3\n"

    def test_write_read_round_trip(self, tmp_path):
        alignments = [links((0, 0), (1, 2)), frozenset(), links((3, 3))]
        path = tmp_path / "aln.txt"
        write_alignments(Links.of(alignments), str(path))
        assert link_sets(read_alignments(str(path))) == alignments

    def test_unordered_and_repeated_links_read_as_a_set(self, tmp_path):
        path = tmp_path / "aln.txt"
        path.write_bytes(b"2-1 0-0  2-1\t0-0\r\n\n3-0 1-12")
        reloaded = read_alignments(str(path))
        assert [reloaded.pair(k) for k in range(len(reloaded))] == [
            [(0, 0), (2, 1)], [], [(1, 12), (3, 0)]
        ]

    def test_lines_split_on_newline_only(self, tmp_path):
        path = tmp_path / "aln.txt"
        path.write_bytes(b"0-0\x0c1-1\n2-2\n")
        assert link_sets(read_alignments(str(path))) == [links((0, 0), (1, 1)), links((2, 2))]

    def test_blocks_of_lines_read_as_one(self, tmp_path, monkeypatch):
        rng = random.Random(5)
        sets = [
            frozenset((rng.randrange(12), rng.randrange(1200)) for _ in range(rng.randrange(5)))
            for _ in range(300)
        ]
        path = tmp_path / "aln.txt"
        write_alignments(Links.of(sets), str(path))
        monkeypatch.setattr(alignment, "_BLOCK", 7)
        assert link_sets(read_alignments(str(path))) == sets
        with path.open("a", encoding="utf-8") as fh:
            fh.write("1-1\n2-2 3-x\n")
        with pytest.raises(PipelineError, match="bad link '3-x' at line 302"):
            read_alignments(str(path))

    def test_bad_link_reports_line(self, tmp_path):
        path = tmp_path / "aln.txt"
        path.write_text("0-0\n1_2\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="line 2"):
            read_alignments(str(path))

    @pytest.mark.parametrize("token", ["3", "1-2-3", "-1-2", "1--2", "4-", "-", "1-x", "1-٢"])
    def test_malformed_token_is_named(self, tmp_path, token):
        path = tmp_path / "aln.txt"
        path.write_text(f"0-0\n\n1-1 {token} 2-2\n", encoding="utf-8")
        with pytest.raises(PipelineError, match=f"bad link {token!r} at line 3"):
            read_alignments(str(path))

    def test_translation_table_export_ordering(self, tmp_path):
        table = TranslationTable({"b": {"v": 0.25, "u": 0.75}, "a": {"x": 1.0}}, True)
        path = tmp_path / "ttable.tsv"
        write_translation_table(table, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("a\tx\t")
        assert lines[1].startswith("b\tu\t")
        assert lines[2].startswith("b\tv\t")
        assert float(lines[1].split("\t")[2]) == 0.75
