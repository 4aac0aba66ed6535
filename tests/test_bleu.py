"""Corpus BLEU from n-gram counts, and macro/micro aggregates."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmt import bleu
from fedmt.bleu import counts, macro_micro, pair_scores, score


def toks(text):
    return text.split()


def corpus_bleu(hyps, refs):
    return score(counts(hyps, refs))


class TestCorpusBleu:
    def test_identity_is_100(self):
        hyps = [toks("a b c d e"), toks("x y z w")]
        assert corpus_bleu(hyps, hyps) == pytest.approx(100.0)

    def test_brevity_penalty_hand_case(self):
        # p1..p4 all 1, hyp_len 4 vs ref_len 5 -> 100 * exp(1 - 5/4)
        score = corpus_bleu([toks("a b c d")], [toks("a b c d e")])
        assert score == pytest.approx(100.0 * math.exp(-0.25), abs=0.01)
        assert score == pytest.approx(77.88, abs=0.01)

    def test_zero_unigram_overlap_scores_zero(self):
        assert corpus_bleu([toks("a b c")], [toks("x y z")]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            counts([toks("a")], [toks("a"), toks("b")])

    def test_empty_hypothesis_list_rejected(self):
        with pytest.raises(ValueError):
            counts([], [])

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            counts([toks("a")], [[]])

    def test_counts_hand_case(self):
        # "a a b" against "a b c": unigrams a (clipped to 1) and b match,
        # bigram "a b" matches, no trigram matches, no 4-gram exists
        assert counts([toks("a a b")], [toks("a b c")]) == (2, 1, 0, 0, 3, 2, 1, 0, 3, 3)

    def test_counts_are_additive(self):
        hyps = [toks("a b c d"), toks("b c"), toks("e")]
        refs = [toks("a b c"), toks("b d c"), toks("e f g")]
        parts = [counts(hyps[:1], refs[:1]), counts(hyps[1:], refs[1:])]
        assert tuple(map(sum, zip(*parts))) == counts(hyps, refs)

    def test_token_ids_score_as_their_strings(self):
        # a run scores the decoder's ids; a bijection leaves every count alone
        hyps = [toks("a b c d"), toks("b c x")]
        refs = [toks("a b c"), toks("b d c")]
        ids = {tok: i for i, tok in enumerate("abcdx")}

        def encode(sents):
            return [[ids[t] for t in sent] for sent in sents]

        assert counts(encode(hyps), encode(refs)) == counts(hyps, refs)

    def test_sentence_order_invariance(self):
        hyps = [toks("a b c"), toks("d e f g"), toks("a a b")]
        refs = [toks("a b d"), toks("d e f f"), toks("a b b")]
        forward = corpus_bleu(hyps, refs)
        backward = corpus_bleu(hyps[::-1], refs[::-1])
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_duplication_near_invariance(self):
        # unsmoothed precisions and the brevity penalty are exactly
        # duplication-invariant; the add-one terms on n>=2 shift with corpus
        # size, vanishing as counts grow, so assert a small drift on a
        # moderately sized corpus
        hyps = [toks("a b c d e"), toks("b c d f"), toks("a c e g h")] * 10
        refs = [toks("a b c d e"), toks("b c d g"), toks("a c e g f")] * 10
        once = corpus_bleu(hyps, refs)
        twice = corpus_bleu(hyps * 2, refs * 2)
        assert abs(once - twice) < 0.25

    def test_duplication_exact_when_unsmoothed_components_full(self):
        hyps = [toks("a b c d e")]
        refs = [toks("a b c d e")]
        assert corpus_bleu(hyps * 2, refs * 2) == pytest.approx(corpus_bleu(hyps, refs))


def naive_pooled_bleu(outputs):
    """Independent pooled-BLEU recomputation for the micro oracle."""
    hyps, refs = [], []
    for h, r in outputs.values():
        hyps.extend(h)
        refs.extend(r)
    matches, totals = [0] * 4, [0] * 4
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    for h, r in zip(hyps, refs):
        for n in range(1, 5):
            h_grams = Counter(tuple(h[i:i + n]) for i in range(len(h) - n + 1))
            r_grams = Counter(tuple(r[i:i + n]) for i in range(len(r) - n + 1))
            totals[n - 1] += sum(h_grams.values())
            matches[n - 1] += sum(min(c, r_grams[g]) for g, c in h_grams.items())
    if matches[0] == 0:
        return 0.0
    logs = [math.log(matches[0] / totals[0])]
    logs += [math.log((matches[n] + 1) / (totals[n] + 1)) for n in range(1, 4)]
    bp = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(sum(logs) / 4)


class TestMacroMicro:
    def test_single_pair_macro_equals_micro(self):
        outputs = {"xx-yy": ([toks("a b c")], [toks("a b d")])}
        _, macro, micro = macro_micro(outputs)
        assert macro == pytest.approx(micro)
        assert macro == pytest.approx(corpus_bleu(*outputs["xx-yy"]))

    def test_macro_is_unweighted_mean(self):
        outputs = {
            "p1": ([toks("a b c d")], [toks("a b c d")]),      # 100
            "p2": ([toks("a b c d")], [toks("a b c d e")]),    # 77.88
        }
        scores, macro, _ = macro_micro(outputs)
        assert scores == pair_scores({cid: counts(*out) for cid, out in outputs.items()}) == {
            "p1": corpus_bleu(*outputs["p1"]), "p2": corpus_bleu(*outputs["p2"])}
        assert macro == pytest.approx(sum(scores.values()) / 2)

    def test_out_of_range_score_names_the_client(self, monkeypatch):
        monkeypatch.setattr(bleu, "score", lambda corpus: 100.5)
        with pytest.raises(ValueError, match="client p1: BLEU out of range: 100.5"):
            pair_scores({"p1": counts([toks("a")], [toks("a")])})

    def test_two_pair_example(self):
        outputs = {
            "p1": ([toks("a b")], [toks("a b")]),
            "p2": ([toks("c")], [toks("d")]),
        }
        _, macro, _ = macro_micro(outputs)
        assert macro == pytest.approx((100.0 + 0.0) / 2)

    def test_micro_matches_naive_pooled(self):
        outputs = {
            "p1": ([toks("a b c"), toks("d e")], [toks("a b c"), toks("d f")]),
            "p2": ([toks("g h i j")], [toks("g h i")]),
            "p3": ([toks("k")], [toks("k l m")]),
        }
        _, _, micro = macro_micro(outputs)
        assert micro == pytest.approx(naive_pooled_bleu(outputs), abs=1e-9)

    def test_macro_pair_order_invariant(self):
        outputs = {
            "p1": ([toks("a b c")], [toks("a b d")]),
            "p2": ([toks("e f")], [toks("e f")]),
        }
        _, macro1, _ = macro_micro(outputs)
        _, macro2, _ = macro_micro(dict(reversed(list(outputs.items()))))
        assert macro1 == pytest.approx(macro2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            macro_micro({})


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
    ),
    min_size=1, max_size=6,
))
def test_bleu_bounded_and_permutation_invariant(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    score = corpus_bleu(hyps, refs)
    assert 0.0 <= score <= 100.0
    assert corpus_bleu(hyps[::-1], refs[::-1]) == pytest.approx(score, abs=1e-9)
