"""Critic-activation gate: embedding distributions, Jensen-Shannon
divergence (base 2), and the threshold comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import UnitRole
from .errors import InvariantError

if TYPE_CHECKING:
    from .core import Transcript
    from .providers import Provider


@dataclass(frozen=True)
class EmbeddingVector:
    components: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(float(c) for c in self.components))
        if len(self.components) < 2:
            raise InvariantError("embedding dimension must be >= 2")
        if not all(math.isfinite(c) for c in self.components):
            raise InvariantError("embedding components must be finite")


@dataclass(frozen=True)
class Distribution:
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "probabilities", tuple(float(p) for p in self.probabilities)
        )
        if any(p < 0 or not math.isfinite(p) for p in self.probabilities):
            raise InvariantError("probabilities must be finite and non-negative")
        if abs(sum(self.probabilities) - 1.0) > 1e-12:
            raise InvariantError("probabilities must sum to 1 within 1e-12")

    def __len__(self) -> int:
        return len(self.probabilities)


def to_distribution(v: EmbeddingVector) -> Distribution:
    """Softmax over the components, max-shifted for numeric stability."""
    peak = max(v.components)
    exps = [math.exp(c - peak) for c in v.components]
    total = sum(exps)
    return Distribution(tuple(e / total for e in exps))


def jsd(p: Distribution, q: Distribution) -> float:
    """Jensen-Shannon divergence in base 2: 1/2 KL(P||M) + 1/2 KL(Q||M)
    with M the midpoint distribution. Bounded by [0, 1]; zero iff P == Q.
    Terms with p_i = 0 contribute nothing (0 * log 0 convention)."""
    if len(p) != len(q):
        raise InvariantError(
            f"distribution lengths differ: {len(p)} != {len(q)}"
        )
    total = 0.0
    for pi, qi in zip(p.probabilities, q.probabilities):
        mi = 0.5 * (pi + qi)
        if pi > 0.0:
            total += 0.5 * pi * math.log2(pi / mi)
        if qi > 0.0:
            total += 0.5 * qi * math.log2(qi / mi)
    # Guard against rounding drift just outside the analytic bounds.
    if -1e-12 < total < 0.0:
        return 0.0
    if 1.0 < total < 1.0 + 1e-12:
        return 1.0
    return total


@dataclass(frozen=True)
class GateDecision:
    divergence: float
    theta: float
    activate: bool


def should_criticize(
    plan_text: str,
    optimized_text: str,
    embedder: "Provider",
    theta: float,
    *,
    transcript: "Transcript",
) -> GateDecision:
    """Embed both responses and activate the critic when their divergence
    reaches the threshold. Makes exactly two embed calls."""
    if not plan_text or not optimized_text:
        raise InvariantError("gate requires two non-empty texts")
    if not (0 <= theta <= 1):
        raise InvariantError("theta must be in [0, 1]")
    p = to_distribution(
        embedder.embed(plan_text, transcript=transcript, unit=UnitRole.CRITIC)
    )
    q = to_distribution(
        embedder.embed(optimized_text, transcript=transcript, unit=UnitRole.CRITIC)
    )
    divergence = jsd(p, q)
    return GateDecision(divergence=divergence, theta=theta, activate=divergence >= theta)
