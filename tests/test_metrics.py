from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from reference_metrics import ref_bleu4, ref_rouge_l
from socialagent.errors import InvariantError
from socialagent.metrics import (
    bleu4,
    exact_match,
    hierarchical_scores,
    normalize_answer,
    rouge_l,
    token_f1,
)

words = st.lists(
    st.text(st.sampled_from("abcdefg"), min_size=1, max_size=4), min_size=1, max_size=8
).map(" ".join)


class TestNormalizeAnswer:
    def test_rule_application(self):
        assert normalize_answer("The Eiffel Tower!") == "eiffel tower"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_articles_and_whitespace(self):
        assert normalize_answer("A  dog,  an apple") == "dog apple"

    def test_punctuation_only(self):
        assert normalize_answer("?!.,;") == ""


# (pred, gold, em, f1, p, r): hand-computed token-overlap oracles
OVERLAP_CASES = [
    ("Paris", "paris", 1, 1.0, 1.0, 1.0),
    ("eiffel tower paris", "the eiffel tower", 0, 0.8, 2 / 3, 1.0),
    ("blue", "red", 0, 0.0, 0.0, 0.0),
    ("the answer", "answer", 1, 1.0, 1.0, 1.0),
    ("w x y z", "w x", 0, 2 / 3, 0.5, 1.0),
    ("w x", "w x y z", 0, 2 / 3, 1.0, 0.5),
    ("x y z", "x y z", 1, 1.0, 1.0, 1.0),
    ("one two three", "three two one", 0, 1.0, 1.0, 1.0),
    ("b b c", "b c c", 0, 2 / 3, 2 / 3, 2 / 3),
    ("new york city", "york", 0, 0.5, 1 / 3, 1.0),
    ("42", "42", 1, 1.0, 1.0, 1.0),
    ("", "something", 0, 0.0, 0.0, 0.0),
    ("something", "", 0, 0.0, 0.0, 0.0),
    ("", "", 1, 1.0, 1.0, 1.0),
    ("An Apple!", "apple", 1, 1.0, 1.0, 1.0),
    ("apple pie", "apple tart", 0, 0.5, 0.5, 0.5),
    ("w w w", "w", 0, 0.5, 1 / 3, 1.0),
    ("alpha beta", "beta gamma delta", 0, 0.4, 0.5, 1 / 3),
    ("k l m n", "k l m n o p q r", 0, 2 / 3, 1.0, 0.5),
    ("same same", "same", 0, 2 / 3, 0.5, 1.0),
    ("u v", "v u w", 0, 0.8, 1.0, 2 / 3),
    ("the a an", "", 1, 1.0, 1.0, 1.0),
]


class TestOverlapScores:
    @pytest.mark.parametrize("pred,gold,em,f1,p,r", OVERLAP_CASES)
    def test_hand_computed_cases(self, pred, gold, em, f1, p, r):
        assert exact_match(pred, gold) == em
        scores = token_f1(pred, gold)
        assert scores.f1 == pytest.approx(f1, abs=1e-12)
        assert scores.precision == pytest.approx(p, abs=1e-12)
        assert scores.recall == pytest.approx(r, abs=1e-12)

    @given(words)
    @settings(max_examples=50)
    def test_self_comparison_is_perfect(self, text):
        assert exact_match(text, text) == 1
        assert token_f1(text, text) == token_f1(text, text)
        scores = token_f1(text, text)
        assert (scores.f1, scores.precision, scores.recall) == (1.0, 1.0, 1.0)

    @given(words, words)
    @settings(max_examples=100)
    def test_scores_bounded_and_em_implies_f1(self, pred, gold):
        scores = token_f1(pred, gold)
        for value in (scores.f1, scores.precision, scores.recall):
            assert 0.0 <= value <= 1.0
        if exact_match(pred, gold) == 1:
            assert scores.f1 == 1.0


BLEU_ROUGE_FIXTURE = [
    ("solar power reaches record output", "solar power reaches record output"),
    ("council approves new park plan", "city council approves new park"),
    ("scientists map reef decline", "scientists map coral reef decline"),
    ("bakery wins award", "local bakery wins national award"),
    ("severe weather update", "storm closes mountain roads"),
    ("quick brown fox jumps over lazy dog", "quick brown fox jumped over lazy dog"),
    ("one two three four five six", "one two three four five six seven"),
    ("alpha beta gamma delta", "delta gamma beta alpha"),
    ("b c d e f g", "b c x e f y"),
    ("short", "much longer reference title here"),
]


class TestBleu4:
    def test_identity_on_long_sentence(self):
        text = "four tokens minimum here"
        assert bleu4(text, text) == pytest.approx(1.0, abs=1e-12)

    def test_empty_prediction_scores_zero(self):
        assert bleu4("", "anything at all") == 0.0

    def test_hand_case_geometric_mean(self):
        # precisions 4/5, 3/4, 2/3, 1/2; equal lengths so no brevity penalty
        value = bleu4("council approves new park plan", "city council approves new park")
        assert value == pytest.approx(0.2 ** 0.25, abs=1e-12)

    @pytest.mark.parametrize("pred,gold", BLEU_ROUGE_FIXTURE)
    def test_matches_independent_reference(self, pred, gold):
        assert bleu4(pred, gold) == pytest.approx(ref_bleu4(pred, gold), abs=1e-6)

    @given(words, words)
    @settings(max_examples=100)
    def test_bounded(self, pred, gold):
        assert 0.0 <= bleu4(pred, gold) <= 1.0


class TestRougeL:
    def test_identity(self):
        scores = rouge_l("alpha beta gamma", "alpha beta gamma")
        assert (scores.f1, scores.precision, scores.recall) == (1.0, 1.0, 1.0)

    def test_hand_lcs_case(self):
        # lcs("x b c", "x c d") = "x c", length 2; p = r = 2/3
        scores = rouge_l("x b c", "x c d")
        assert scores.precision == pytest.approx(2 / 3, abs=1e-12)
        assert scores.recall == pytest.approx(2 / 3, abs=1e-12)
        assert scores.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_empty_prediction(self):
        scores = rouge_l("", "gold text")
        assert (scores.f1, scores.precision, scores.recall) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("pred,gold", BLEU_ROUGE_FIXTURE)
    def test_matches_brute_force_reference(self, pred, gold):
        # fixture strings are already normalized, so the reference sees the
        # same tokens the implementation does
        expected = ref_rouge_l(pred, gold)
        scores = rouge_l(pred, gold)
        assert scores.f1 == pytest.approx(expected[0], abs=1e-6)
        assert scores.precision == pytest.approx(expected[1], abs=1e-6)
        assert scores.recall == pytest.approx(expected[2], abs=1e-6)

    @given(words, words)
    @settings(max_examples=60)
    def test_agrees_with_reference_on_random_pairs(self, pred, gold):
        expected = ref_rouge_l(normalize_answer(pred), normalize_answer(gold))
        scores = rouge_l(pred, gold)
        assert scores.f1 == pytest.approx(expected[0], abs=1e-9)


class TestHierarchicalScores:
    def test_all_correct_is_all_ones(self):
        pairs = [("sport", "tennis"), ("politics", "policy")]
        levels = hierarchical_scores(pairs, pairs)
        for level in levels.values():
            assert (level.accuracy, level.f1, level.precision, level.recall) == (
                1.0,
                1.0,
                1.0,
                1.0,
            )

    def test_one_of_two_correct_single_class(self):
        golds = [("a", "x"), ("a", "x")]
        preds = [("a", "x"), ("b", "y")]
        levels = hierarchical_scores(preds, golds)
        assert levels["level1"].accuracy == 0.5
        assert levels["level2"].accuracy == 0.5

    def test_three_class_confusion_matrix_oracle(self):
        # gold: a a b b c c ; pred: a a a b c b
        golds = [("a", "_"), ("a", "_"), ("b", "_"), ("b", "_"), ("c", "_"), ("c", "_")]
        preds = [("a", "_"), ("a", "_"), ("a", "_"), ("b", "_"), ("c", "_"), ("b", "_")]
        # per class (weight 1/3 each):
        #   a: tp=2, pred=3, gold=2 -> p=2/3, r=1,   f1=0.8
        #   b: tp=1, pred=2, gold=2 -> p=1/2, r=1/2, f1=1/2
        #   c: tp=1, pred=1, gold=2 -> p=1,   r=1/2, f1=2/3
        level = hierarchical_scores(preds, golds)["level1"]
        assert level.accuracy == pytest.approx(4 / 6, abs=1e-12)
        assert level.precision == pytest.approx((2 / 3 + 0.5 + 1.0) / 3, abs=1e-12)
        assert level.recall == pytest.approx((1.0 + 0.5 + 0.5) / 3, abs=1e-12)
        assert level.f1 == pytest.approx((0.8 + 0.5 + 2 / 3) / 3, abs=1e-12)

    def test_weighted_recall_equals_accuracy(self):
        golds = [("a", "x"), ("a", "y"), ("b", "x"), ("c", "z"), ("c", "z")]
        preds = [("a", "x"), ("b", "y"), ("b", "z"), ("c", "z"), ("a", "x")]
        levels = hierarchical_scores(preds, golds)
        for level in levels.values():
            assert level.recall == pytest.approx(level.accuracy, abs=1e-12)

    def test_unseen_predicted_label_counts_as_wrong(self):
        golds = [("a", "x")]
        preds = [("never-seen", "x")]
        level = hierarchical_scores(preds, golds)["level1"]
        assert level.accuracy == 0.0
        assert level.f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvariantError):
            hierarchical_scores([("a", "x")], [])
        # equal lengths, but no record to score
        with pytest.raises(InvariantError, match="requires at least one record$"):
            hierarchical_scores([], [])

    def test_cross_checked_against_sklearn(self):
        golds = ["a", "a", "b", "b", "c", "c", "a", "b"]
        preds = ["a", "b", "b", "b", "c", "a", "a", "c"]
        level = hierarchical_scores(
            [(p, "_") for p in preds], [(g, "_") for g in golds]
        )["level1"]
        # sklearn.metrics.precision_recall_fscore_support(golds, preds,
        # average="weighted", zero_division=0) gives 5/8 for P, R and F1:
        #   a: support 3, predicted 3, hits 2 -> P = R = F1 = 2/3
        #   b: support 3, predicted 3, hits 2 -> P = R = F1 = 2/3
        #   c: support 2, predicted 2, hits 1 -> P = R = F1 = 1/2
        #   weighted by support: (3 * 2/3 + 3 * 2/3 + 2 * 1/2) / 8 = 5/8
        assert level.precision == pytest.approx(5 / 8, abs=1e-12)
        assert level.recall == pytest.approx(5 / 8, abs=1e-12)
        assert level.f1 == pytest.approx(5 / 8, abs=1e-12)
