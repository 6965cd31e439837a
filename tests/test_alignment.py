"""EM training, Viterbi decoding, and alignment symmetrization."""

import hashlib
import random

import numpy as np
import pytest

from dclex import alignment, corpus
from dclex.alignment import (
    HEURISTICS,
    PROB_FLOOR,
    Links,
    format_alignments,
    read_alignments,
    symmetrize,
    train_model1,
    train_model2,
    transpose,
    viterbi_align_model2,
    write_alignments,
    write_translation_table,
)
from dclex.corpus import CHUNK_SIZE, Bitext, TokenColumns
from dclex.errors import PipelineError
from dclex.tagging import Tags, fuse_corpus

from oracles import (
    em_model1_reference,
    em_model2_reference,
    first_appearance_reference,
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


def flat_t(table):
    """t(f|e) of `table` keyed by (e, f), as the oracles take it."""
    return {(e, f): p for e, row in table.probs.items() for f, p in row.items()}


class TestViterbi:
    """Viterbi decoding of the training pairs (`TranslationTable.decode`)."""

    def test_fixture_aligns_diagonally(self):
        table = train_model1(TWO_PAIR_FIXTURE, iterations=10, use_null=False)
        assert link_sets(table.decode([0])) == [links((0, 0), (1, 1))]

    def test_ties_break_to_lowest_source_index(self):
        # Both source tokens are one word, so their scores tie.
        for train in (train_model1, train_model2):
            table = train([(("a", "a"), ("x",))], iterations=2, use_null=False)
            assert link_sets(table.decode([0])) == [links((0, 0))]

    def test_null_absorbs_when_tied_or_better(self):
        # t(x|NULL) = t(x|a) = 1: NULL (index -1) wins the tie, link dropped.
        for train in (train_model1, train_model2):
            table = train([(("a",), ("x",))], iterations=2, use_null=True)
            assert flat_t(table) == {(alignment.NULL_TOKEN, "x"): 1.0, ("a", "x"): 1.0}
            assert link_sets(table.decode([0])) == [links()]

    def test_matches_reference_decoder_on_random_tables(self):
        rng = random.Random(303)
        vocab_src = ["a", "b", "c"]
        vocab_tgt = ["u", "v", "w"]
        for _ in range(40):
            pairs = random_corpus(rng, 10, vocab_src, vocab_tgt, max_len=5)
            table = train_model1(pairs, iterations=2, use_null=True)
            flat = flat_t(table)
            want = [frozenset(viterbi_reference(src, tgt, flat, True)) for src, tgt in pairs[:4]]
            assert link_sets(table.decode(range(4))) == want

    def test_empty_source_requires_null(self):
        # Only the per-pair reference takes pairs that training did not see.
        table = train_model2(TWO_PAIR_FIXTURE, iterations=1, use_null=False)
        with pytest.raises(PipelineError, match="empty source"):
            viterbi_align_model2(((), ("la",)), table)
        table = train_model2(TWO_PAIR_FIXTURE, iterations=1, use_null=True)
        assert viterbi_align_model2(((), ("la",)), table) == frozenset()


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
        assert viterbi_align_model2((("z", "b"), ("v",)), tables) == links((1, 0))

    def test_unseen_length_configuration_falls_back_to_lexical(self):
        tables = train_model2(TWO_PAIR_FIXTURE, iterations=8, use_null=False)
        # 3-token source never seen in training: uniform distortion, lexical wins.
        assert viterbi_align_model2((("pad", "the", "house"), ("la",)), tables) == links((1, 0))

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
    """`TranslationTable.decode` against the oracle for Model 1 and against
    `viterbi_align_model2` for Model 2."""

    def test_matches_per_pair_decoders_across_chunks(self):
        rng = random.Random(12)
        vocab_src, vocab_tgt = ["a", "b", "c", "d"], ["u", "v", "w"]
        pairs = random_corpus(rng, CHUNK_SIZE + 200, vocab_src, vocab_tgt, max_len=4)
        indices = range(CHUNK_SIZE - 100, len(pairs))  # crosses a chunk boundary
        scattered = [len(pairs) - 1, 5, 4, CHUNK_SIZE, 5, 0]  # not a run of pairs
        for use_null in (True, False):
            table = train_model1(pairs, iterations=2, use_null=use_null)
            tables = train_model2(pairs, iterations=2, use_null=use_null)
            flat = flat_t(table)
            for picked in (indices, scattered):
                want = [frozenset(viterbi_reference(*pairs[k], flat, use_null)) for k in picked]
                assert link_sets(table.decode(picked)) == want
                want = [viterbi_align_model2(pairs[k], tables) for k in picked]
                assert link_sets(tables.decode(picked)) == want


class TestLinksOrder:
    """`decode`, `transpose` and `symmetrize` build their columns with one
    sort key each, or none: every pair's links must be those of the per-pair
    references, in Links order, empty pairs included."""

    @staticmethod
    def random_link_sets(rng, n_pairs):
        sets = []
        for _ in range(n_pairs):
            h, w = rng.randint(1, 12), rng.randint(1, 12)
            size = 0 if rng.random() < 0.2 else rng.randint(1, h * w)
            sets.append({(rng.randrange(h), rng.randrange(w)) for _ in range(size)})
        return sets

    @pytest.mark.parametrize("train", [train_model1, train_model2])
    @pytest.mark.parametrize("use_null", [True, False], ids=["null", "no-null"])
    def test_decode_equals_the_per_pair_reference(self, train, use_null):
        rng = random.Random(41)
        pairs = random_corpus(rng, 400, ["a", "b", "c", "d"], ["u", "v", "w"], max_len=5)
        # A target word of every pair goes to NULL, so these pairs link nothing.
        pairs += [(("a",), ("x",)), (("b", "c"), ("x", "x"))] * 3
        pairs = [(src, (*tgt, "x")) for src, tgt in pairs]
        table = train(pairs, iterations=2, use_null=use_null)
        picked = [rng.randrange(len(pairs)) for _ in range(300)]
        picked += range(len(pairs) - 6, len(pairs))
        decoded = table.decode(picked)
        if train is train_model1:
            want = [sorted(viterbi_reference(*pairs[k], flat_t(table), use_null)) for k in picked]
        else:
            want = [sorted(viterbi_align_model2(pairs[k], table)) for k in picked]
        assert [decoded.pair(k) for k in range(len(decoded))] == want
        assert not use_null or [] in want
        assert columns(decoded) == columns(Links.of(want))

    def test_transpose_equals_the_per_pair_reference(self):
        sets = self.random_link_sets(random.Random(19), 500)
        flipped = transpose(Links.of(sets))
        want = [sorted((j, i) for i, j in links) for links in sets]
        assert [flipped.pair(k) for k in range(len(flipped))] == want
        assert columns(flipped) == columns(Links.of(want))

    def test_symmetrize_equals_the_per_pair_reference(self):
        rng = random.Random(23)
        fwd, bwd = self.random_link_sets(rng, 500), self.random_link_sets(rng, 500)
        for heuristic in HEURISTICS:
            got = symmetrize(Links.of(fwd), Links.of(bwd), heuristic)
            want = [sorted(symmetrize_reference(f, b, heuristic)) for f, b in zip(fwd, bwd)]
            assert [got.pair(k) for k in range(len(got))] == want, heuristic
            assert columns(got) == columns(Links.of(want)), heuristic


def swap(pairs):
    return [(tgt, src) for src, tgt in pairs]


def keys_homed_at_the_end(count):
    """int64 keys whose hashes are the largest there are, so that in a
    table of fewer than 2**24 cells they all have the last cell as home."""
    inverse = pow(alignment._GOLDEN, -1, 1 << 64)
    keys = [((1 << 64) - 1 - k) * inverse % (1 << 64) for k in range(count)]
    return np.array(keys, np.uint64).view(np.int64)


class TestFirstAppearance:
    """`_first_appearance` against a dict.setdefault loop over the keys."""

    @staticmethod
    def chunks():
        rng = np.random.default_rng(2017)
        pool = rng.integers(-(1 << 40), 1 << 40, 3000)
        chunks = [rng.choice(pool, size) for size in rng.integers(1, 400, 60)]
        chunks.insert(10, np.concatenate([chunks[k][:40] for k in range(10)]))  # all seen before
        chunks.insert(20, np.full(7, pool[1]))
        chunks.insert(30, pool[2:3].copy())
        chunks.insert(31, np.zeros(0, np.int64))
        # Too wide for any packing with positions: the sort falls back.
        wide = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 300, endpoint=True)
        wide[::7] = np.iinfo(np.int64).max
        chunks.insert(40, np.concatenate((wide, chunks[5][:20])))
        chunks.insert(50, wide[::-3].copy())
        # Probe sequences that run past the table's last cell wrap round,
        # in a table built from earlier chunks and in one grown chunk by chunk.
        end = keys_homed_at_the_end(60)
        chunks.insert(0, end[:30].copy())
        chunks.insert(45, end[20:50].copy())
        chunks.insert(55, end[::-1].copy())
        return chunks

    def test_slots_and_keys_equal_the_reference(self):
        chunks = self.chunks()
        shifts = [alignment._packing_shift(chunk) for chunk in chunks if len(chunk)]
        assert None in shifts and any(shift is not None for shift in shifts)
        want_slots, want_keys = first_appearance_reference([c.tolist() for c in chunks])
        out = np.full(sum(map(len, chunks)), -1, np.int32)
        keys = alignment._first_appearance([chunk.copy() for chunk in chunks], out)
        assert out.tolist() == want_slots
        assert keys.tolist() == want_keys

    def test_one_chunk_and_none(self):
        out = np.empty(4, np.int32)
        keys = alignment._first_appearance([np.array([9, -3, 9, 5])], out)
        assert (out.tolist(), keys.tolist()) == ([0, 1, 0, 2], [9, -3, 5])
        assert alignment._first_appearance([], np.empty(0, np.int32)).tolist() == []


def test_spans_skip_empty_ones_and_fill_out():
    starts = np.array([5, 0, 9, 2, 7])
    lengths = np.array([3, 0, 2, 0, 1])
    want = [5, 6, 7, 9, 10, 7]
    assert alignment._spans(starts, lengths).tolist() == want
    out = np.empty(6, np.int32)
    assert alignment._spans(starts, lengths, out) is out
    assert out.tolist() == want


class TestChunking:
    """Chunks bound the E-step's memory and nothing else: t, q, the order of
    their slots, the log-likelihoods and the decoded links are the same for
    any chunk size. The log-likelihood is one running sum over the rows in
    corpus order, carried from chunk to chunk."""

    PAIRS = random_corpus(random.Random(5), 300, [f"s{k}" for k in range(25)],
                          [f"t{k}" for k in range(20)], max_len=8)

    @staticmethod
    def state(table, n_pairs):
        q = (table.shapes, table.q.values.tolist()) if table.q is not None else None
        decoded = [table.decode(picked) for picked in
                   (range(n_pairs), range(n_pairs - 1, -1, -3))]
        return (table.e_words, table.f_words, table.t.row_of.tolist(), table.t_cols.tolist(),
                table.t.values.tolist(), q, table.log_likelihoods,
                [columns(links) for links in decoded])

    @pytest.mark.parametrize("train", [train_model1, train_model2])
    @pytest.mark.parametrize("use_null", [True, False], ids=["null", "no-null"])
    def test_training_does_not_depend_on_the_chunk_size(self, monkeypatch, train, use_null):
        n = len(self.PAIRS)
        states = []
        for size in (7, 64, CHUNK_SIZE):
            monkeypatch.setattr(corpus, "CHUNK_SIZE", size)
            forward = train(self.PAIRS, 3, use_null)
            assert len(forward.chunks) == -(-n // size)
            forward_state = self.state(forward, n)
            backward = train(swap(self.PAIRS), 3, use_null, inverse=forward)
            states.append((forward_state, self.state(backward, n)))
        assert states[0] == states[1] == states[2]


def repetitive_corpus(rng, n_pairs):
    """Pairs with one-token sides and words repeated within a sentence."""
    pairs = []
    for _ in range(n_pairs):
        sides = []
        for prefix, vocab in (("s", 30), ("t", 25)):
            words = [f"{prefix}{k}" for k in rng.sample(range(vocab), 3)]
            length = rng.choice((1, rng.randint(1, 9)))
            sides.append(tuple(rng.choice(words) for _ in range(length)))
        pairs.append(tuple(sides))
    return pairs


def columns(decoded):
    return decoded.offsets.tolist(), decoded.src.tolist(), decoded.tgt.tolist()


class TestInverseDirection:
    """The backward direction takes its cells from the forward one; it must
    train exactly as it does from the swapped pairs alone."""

    PAIRS = repetitive_corpus(random.Random(77), CHUNK_SIZE + 300)

    @pytest.mark.parametrize("positional", [False, True], ids=["model1", "model2"])
    @pytest.mark.parametrize("use_null", [True, False], ids=["null", "no-null"])
    def test_cells_equal_the_interned_ones(self, use_null, positional):
        # The slot ids differ: the derived table keeps the forward's. What
        # training reads is the same: the word pair of each cell, the order
        # of the slots within each row, and so t.
        train = train_model2 if positional else train_model1
        forward = train(self.PAIRS, 1, use_null)
        derived = train(swap(self.PAIRS), 1, use_null, inverse=forward)
        interned = train(swap(self.PAIRS), 1, use_null)
        assert (derived.e_words, derived.f_words) == (interned.e_words, interned.f_words)

        def read_by_training(table):
            """The word pair of each cell, each row's word pairs in slot
            order, and t by word pair."""
            e = np.array(table.e_words, object)[table.t.row_of].tolist()
            f = np.array(table.f_words, object)[table.t_cols].tolist()
            pairs = list(zip(e, f))
            by_row = np.argsort(table.t.row_of, kind="stable").tolist()
            return (
                [pairs[s] for s in table.cells.tolist()],
                [pairs[s] for s in by_row],
                dict(zip(pairs, table.t.values.tolist())),
            )

        assert read_by_training(derived) == read_by_training(interned)
        if positional:
            assert derived.q_cells.tolist() == interned.q_cells.tolist()

    @pytest.mark.parametrize("train", [train_model1, train_model2])
    @pytest.mark.parametrize("use_null", [True, False], ids=["null", "no-null"])
    def test_training_is_unchanged(self, train, use_null):
        forward = train(self.PAIRS, 2, use_null)
        derived = train(swap(self.PAIRS), 3, use_null, inverse=forward)
        interned = train(swap(self.PAIRS), 3, use_null)
        assert derived.probs == interned.probs
        assert derived.distortion == interned.distortion
        assert derived.log_likelihoods == interned.log_likelihoods
        everything = range(len(self.PAIRS))
        assert columns(derived.decode(everything)) == columns(interned.decode(everything))

    @staticmethod
    def fused_pairs():
        """Pairs whose source side is shaped as `fuse_corpus` makes it: every
        `even though` is one fused token, so `even` and `though` no longer
        occur but stay in the vocabulary, and the fused tokens, appended
        after them, occur from the first sentence on."""
        rng = random.Random(21)
        pairs = repetitive_corpus(rng, 200)
        src, spans = [], []
        for k, (words, _) in enumerate(pairs):
            if k % 3 == 0:
                at = rng.randint(0, len(words))
                words = (*words[:at], "even", "though", *words[at:])
                spans.append((k, at, at + 1, f"Rel{k % 2}"))
            src.append(words)
        fused = fuse_corpus(TokenColumns.intern(src), Tags(*zip(*spans)))
        return fused, TokenColumns.intern(tgt for _, tgt in pairs)

    @pytest.mark.parametrize("train", [train_model1, train_model2])
    @pytest.mark.parametrize("use_null", [True, False], ids=["null", "no-null"])
    def test_fused_source_side_trains_as_the_interned_swap(self, monkeypatch, train, use_null):
        monkeypatch.setattr(corpus, "CHUNK_SIZE", 64)
        fused, tgt = self.fused_pairs()
        seen = list(dict.fromkeys(fused.vocab[w] for w in fused.ids.tolist()))
        assert fused.vocab[-2:] == ["even_though-Rel0", "even_though-Rel1"]
        assert [word for word in fused.vocab if word in seen] != seen
        assert {"even", "though"} <= set(fused.vocab) - set(seen)
        forward = train(Bitext(fused, tgt), 2, use_null)
        derived = train(Bitext(tgt, fused), 3, use_null, inverse=forward)
        interned = train(swap(zip(fused, tgt)), 3, use_null)
        assert derived.probs == interned.probs
        assert derived.distortion == interned.distortion
        assert derived.log_likelihoods == interned.log_likelihoods
        everything = range(len(tgt))
        assert columns(derived.decode(everything)) == columns(interned.decode(everything))

    def test_backward_table_is_made_after_the_forward_arrays_go(self, monkeypatch):
        forward = train_model1(self.PAIRS, 1)
        held = []

        class Recorded(alignment._Table):
            def __init__(self, row_of, n_rows):
                held.append([name for name in ("cells", "t", "t_cols")
                             if getattr(forward, name) is not None])
                super().__init__(row_of, n_rows)

        monkeypatch.setattr(alignment, "_Table", Recorded)
        train_model1(swap(self.PAIRS), 1, inverse=forward)
        assert held == [[]]

    @pytest.mark.parametrize("side", [0, 1])
    def test_word_spelled_like_null(self, side):
        # With NULL, the token that names it is reserved on either side;
        # without, it is a word like any other.
        pairs = [list(pair) for pair in TWO_PAIR_FIXTURE]
        pairs[1][side] = (alignment.NULL_TOKEN, *pairs[1][side])
        for train in (train_model1, train_model2):
            with pytest.raises(PipelineError, match="pair 1 holds the token <NULL>"):
                train(pairs, 2)
            with pytest.raises(PipelineError, match="pair 1 holds the token <NULL>"):
                train(swap(pairs), 2)
            forward = train(pairs, 2, use_null=False)
            e, f = (alignment.NULL_TOKEN, "la") if side == 0 else ("the", alignment.NULL_TOKEN)
            assert f in forward.probs[e]
            derived = train(swap(pairs), 2, use_null=False, inverse=forward)
            interned = train(swap(pairs), 2, use_null=False)
            assert derived.probs == interned.probs
            assert derived.log_likelihoods == interned.log_likelihoods

    def test_state_is_handed_over(self):
        forward = train_model2(self.PAIRS, 1)
        forward_probs = forward.probs
        train_model2(swap(self.PAIRS), 1, inverse=forward)
        assert forward.probs is forward_probs
        # The forward table outlives the backward EM with nothing corpus-sized.
        released = ("cells", "t", "t_cols", "q", "q_cells", "widths", "first_cell", "n", "m",
                    "chunks")
        assert [name for name in released if getattr(forward, name) is not None] == []
        arrays = [value for value in vars(forward).values() if isinstance(value, np.ndarray)]
        assert all(len(array) < len(self.PAIRS) for array in arrays)
        for use in (lambda: forward.decode(range(2)), lambda: forward.distortion,
                    lambda: train_model2(swap(self.PAIRS), 1, inverse=forward)):
            with pytest.raises(PipelineError, match="no EM state"):
                use()

    def test_pairs_that_are_not_the_swapped_ones_are_fatal(self):
        pairs = [(("a", "b", "c"), ("x",)), (("a",), ("x", "y"))]
        for other in (pairs, swap(pairs)[:1], swap(pairs) + [(("x",), ("a",))]):
            with pytest.raises(PipelineError, match="not trained on these pairs swapped"):
                train_model1(other, 1, inverse=train_model1(pairs, 1))
        with pytest.raises(PipelineError, match="use_null=True"):
            train_model2(swap(pairs), 1, use_null=False, inverse=train_model2(pairs, 1))


class TestPinnedFloats:
    """EM on a fixed corpus of two chunks, both models, four iterations."""

    # SHA-256 of the repr of every trained t and q float and every decoded
    # link. Any change in how EM adds up the sums that feed t and q, or a
    # non-Python float handed out, changes the digest.
    DIGEST = "134a3712a682daaafdf7bfb52e020ffca0fb4ee740085e756bd1ceb23e53572b"

    @staticmethod
    def pairs():
        rng = random.Random(2017)
        vocab_src = [f"s{k}" for k in range(40)]
        vocab_tgt = [f"t{k}" for k in range(30)]
        return random_corpus(rng, CHUNK_SIZE + 300, vocab_src, vocab_tgt, max_len=8)

    def test_em_floats_and_links_are_pinned(self):
        pairs = self.pairs()
        parts = []
        for train in (train_model1, train_model2):
            table = train(pairs, iterations=4)
            parts.append(sorted((e, sorted(row.items())) for e, row in table.probs.items()))
            parts.append(sorted((key, sorted(row.items())) for key, row in table.distortion.items()))
            decoded = table.decode(range(len(pairs)))
            parts.append([decoded.pair(k) for k in range(len(decoded))])
        digest = hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
        assert digest == self.DIGEST

    def test_log_likelihoods_equal_the_references(self):
        # The log of each row's total is numpy's, whose last bits may vary
        # with the host, so the log-likelihood is checked, not pinned. The
        # references add their ~10k terms in another order: at about -2e4
        # they differ by up to 1.1e-9, so the tolerance is relative.
        pairs = self.pairs()
        _, want = em_model1_reference(pairs, iterations=4, use_null=True)
        got = train_model1(pairs, iterations=4).log_likelihoods
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        _, _, want = em_model2_reference(pairs, iterations=4, use_null=True)
        got = train_model2(pairs, iterations=4).log_likelihoods
        assert got == pytest.approx(want, rel=1e-12, abs=0)


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

    def test_candidate_adjacent_only_on_a_later_pass(self):
        # (0, 2) is scanned before (1, 2) joins the links, so only the second
        # pass adopts it; left to the final pass, (0, 0) would take source
        # word 0 first and (0, 2) would stay out.
        fwd = links((0, 0), (0, 2), (1, 2), (2, 1))
        bwd = links((2, 1))
        assert sym(fwd, bwd, "grow-diag-final") == fwd
        assert symmetrize_reference(fwd, bwd, "grow-diag-final") == fwd

    def test_empty_intersection_keeps_the_scan_order(self):
        # Only the final pass adopts; in ascending order (1, 1) comes last,
        # when both its words are aligned. Scanned the other way round,
        # (0, 0) would be the one left out.
        fwd, bwd = links((0, 0), (1, 1)), links((0, 1), (1, 0))
        assert sym(fwd, bwd, "grow-diag-final") == links((0, 0), (0, 1), (1, 0))

    def test_adversarial_batches_equal_the_set_oracle(self):
        rng = random.Random(8)

        def grid(n, m, rate):
            return frozenset((i, j) for i in range(n) for j in range(m) if rng.random() < rate)

        # One pair with many candidates among many with one.
        busy = (grid(12, 12, 0.5), grid(12, 12, 0.5))
        single = [(links((0, 0)), links((0, 0), (1, 1 + k % 3))) for k in range(300)]
        # Empty pairs, pairs without candidates and pairs without seeds.
        sparse = [(links(), links()), (links((1, 1)), links((1, 1))), (links((0, 1)), links())]
        # Dense small grids, where scans go on for several passes.
        dense = [(grid(5, 5, 0.45), grid(5, 5, 0.45)) for _ in range(400)]
        batches = [
            [single[0], busy, *single[1:]],
            [*sparse, *single[:50], busy, *sparse, busy],
            [*dense, *sparse],
            [*sparse, busy],
            sparse,
        ]
        for batch in batches:
            fwd, bwd = (Links.of(side) for side in zip(*batch))
            for heuristic in HEURISTICS:
                want = [symmetrize_reference(f, b, heuristic) for f, b in batch]
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
        # Trained, t holds rows in order of first appearance: b before a, and
        # v before u in b's row; t(u|b) = 3/4, t(v|b) = 1/4, t(x|a) = 1.
        pairs = [(("b",), ("v", "u", "u", "u")), (("a",), ("x",))]
        table = train_model1(pairs, iterations=1, use_null=False)
        assert table.probs == {"b": {"v": 0.25, "u": 0.75}, "a": {"x": 1.0}}
        assert [list(row) for row in table.probs.values()] == [["v", "u"], ["x"]]
        path = tmp_path / "ttable.tsv"
        write_translation_table(table, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("a\tx\t")
        assert lines[1].startswith("b\tu\t")
        assert lines[2].startswith("b\tv\t")
        assert float(lines[1].split("\t")[2]) == 0.75
