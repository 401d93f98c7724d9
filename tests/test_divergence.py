from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mock_provider
from reference_metrics import ref_jsd_base2
from socialagent.core import Transcript
from socialagent.divergence import (
    Distribution,
    EmbeddingVector,
    GateDecision,
    jsd,
    should_criticize,
    to_distribution,
)
from socialagent.errors import InvariantError


def uniform(n: int) -> Distribution:
    return Distribution(tuple(1.0 / n for _ in range(n)))


def random_distribution(rng: random.Random, dim: int) -> Distribution:
    weights = [rng.random() + 1e-9 for _ in range(dim)]
    total = sum(weights)
    values = [w / total for w in weights]
    # repair rounding drift so the invariant holds exactly enough
    values[-1] = 1.0 - sum(values[:-1])
    return Distribution(tuple(values))


class TestToDistribution:
    def test_two_zeros_give_half_half(self):
        assert to_distribution(EmbeddingVector((0.0, 0.0))).probabilities == (0.5, 0.5)

    def test_shift_invariance_gives_uniform(self):
        for c in (-3.5, 0.0, 7.25):
            result = to_distribution(EmbeddingVector((c, c, c, c)))
            assert result.probabilities == pytest.approx((0.25,) * 4, abs=1e-15)

    def test_log3_zero_gives_three_quarters(self):
        result = to_distribution(EmbeddingVector((math.log(3), 0.0)))
        assert result.probabilities[0] == pytest.approx(0.75, abs=1e-12)
        assert result.probabilities[1] == pytest.approx(0.25, abs=1e-12)

    def test_non_finite_component_rejected(self):
        with pytest.raises(InvariantError):
            EmbeddingVector((float("nan"), 0.0))
        with pytest.raises(InvariantError):
            EmbeddingVector((float("inf"), 0.0))

    def test_large_components_are_stable(self):
        result = to_distribution(EmbeddingVector((1000.0, 999.0)))
        assert all(math.isfinite(p) for p in result.probabilities)
        assert sum(result.probabilities) == pytest.approx(1.0, abs=1e-12)


class TestJsd:
    def test_identical_distributions_give_exact_zero(self):
        p = Distribution((0.3, 0.7))
        assert jsd(p, p) == 0.0

    def test_disjoint_supports_hit_the_base2_bound(self):
        assert jsd(Distribution((1.0, 0.0)), Distribution((0.0, 1.0))) == 1.0

    def test_hand_case(self):
        value = jsd(Distribution((1.0, 0.0)), Distribution((0.5, 0.5)))
        assert value == pytest.approx(0.311278, abs=1e-6)

    def test_zero_probability_terms_contribute_nothing(self):
        value = jsd(Distribution((0.5, 0.5, 0.0)), Distribution((0.5, 0.5, 0.0)))
        assert value == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvariantError):
            jsd(uniform(2), uniform(3))

    def test_invalid_distribution_rejected(self):
        with pytest.raises(InvariantError):
            Distribution((0.5, 0.6))
        with pytest.raises(InvariantError):
            Distribution((-0.1, 1.1))

    @settings(max_examples=200)
    @given(
        st.integers(min_value=2, max_value=16),
        st.randoms(use_true_random=False),
    )
    def test_symmetry_and_bounds_properties(self, dim, rng):
        p = random_distribution(rng, dim)
        q = random_distribution(rng, dim)
        forward = jsd(p, q)
        backward = jsd(q, p)
        assert abs(forward - backward) <= 1e-12
        assert 0.0 <= forward <= 1.0
        assert jsd(p, p) == 0.0

    def test_oracle_equivalence_on_random_pairs(self):
        rng = random.Random(20240917)
        for _ in range(200):
            dim = rng.randint(2, 64)
            p = random_distribution(rng, dim)
            q = random_distribution(rng, dim)
            expected = ref_jsd_base2(list(p.probabilities), list(q.probabilities))
            assert abs(jsd(p, q) - expected) <= 1e-9


class TestGate:
    def test_identical_texts_never_activate_for_positive_theta(self):
        provider = mock_provider()
        decision = should_criticize(
            "same text", "same text", provider, theta=0.01, transcript=Transcript()
        )
        assert decision.divergence == 0.0
        assert decision.activate is False

    def test_forced_embeddings_compose_with_the_kl_oracle(self):
        provider = mock_provider(
            embedding_overrides={
                "plan text": (math.log(3), 0.0),
                "optimized text": (0.0, 0.0),
            }
        )
        decision = should_criticize(
            "plan text", "optimized text", provider, theta=0.05, transcript=Transcript()
        )
        expected = ref_jsd_base2([0.75, 0.25], [0.5, 0.5])
        assert decision.divergence == pytest.approx(expected, abs=1e-12)
        assert decision.activate == (decision.divergence >= 0.05)

    def test_theta_zero_activates_whenever_texts_are_embedded(self):
        provider = mock_provider()
        decision = should_criticize(
            "text one", "text two", provider, theta=0.0, transcript=Transcript()
        )
        assert decision.activate is True  # JSD >= 0 always

    def test_theta_zero_activates_on_identical_texts(self):
        # the critic runs when JSD >= θ, so a divergence of 0 reaches θ = 0
        assert GateDecision(divergence=0.0, theta=0.0).activate is True
        decision = should_criticize(
            "same text", "same text", mock_provider(), theta=0.0, transcript=Transcript()
        )
        assert decision.divergence == 0.0
        assert decision.activate is True

    def test_exactly_two_embed_calls(self):
        provider = mock_provider()
        should_criticize("a", "b", provider, theta=0.5, transcript=Transcript())
        assert provider.embed_log == ["a", "b"]

    def test_monotone_in_theta(self):
        provider_config = dict(
            embedding_overrides={"a": (1.0, 0.0), "b": (0.0, 1.0)}
        )
        divergence = should_criticize(
            "a", "b", mock_provider(**provider_config), theta=0.0, transcript=Transcript()
        ).divergence
        previous = True
        for theta in [0.0, divergence / 2, divergence, min(1.0, divergence + 0.1), 1.0]:
            decision = should_criticize(
                "a", "b", mock_provider(**provider_config), theta=theta, transcript=Transcript()
            )
            assert previous or not decision.activate  # non-increasing
            previous = decision.activate

    def test_empty_text_rejected(self):
        with pytest.raises(InvariantError):
            should_criticize("", "b", mock_provider(), theta=0.1, transcript=Transcript())

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(InvariantError):
            should_criticize("a", "b", mock_provider(), theta=1.5, transcript=Transcript())
