"""Simulated provider backend: a `MockProvider` behind a deterministic
network delay, with per-task counters of calls, tokens and waiting.

The mock still serves its script and enforces its matchers; this wrapper
only adds the delay a real backend would take and counts what it sees.
Tokens are whitespace-separated words of the flattened request and of the
response text.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from socialagent.errors import ProviderError
from socialagent.providers import MockProvider


@dataclass(frozen=True)
class Latency:
    """Completion sleeps base + a*prompt_tokens + b*completion_tokens;
    an embed sleeps a fixed time."""

    base_s: float = 0.0
    per_prompt_token_s: float = 0.0
    per_completion_token_s: float = 0.0
    embed_s: float = 0.0

    def completion(self, prompt_tokens: int, completion_tokens: int) -> float:
        return (
            self.base_s
            + self.per_prompt_token_s * prompt_tokens
            + self.per_completion_token_s * completion_tokens
        )


@dataclass
class Meter:
    """What one task's provider calls cost."""

    calls: Counter = field(default_factory=Counter)
    prompt_tokens: Counter = field(default_factory=Counter)
    completion_tokens: Counter = field(default_factory=Counter)
    embeds: int = 0
    errors: int = 0
    sampling_mismatch: int = 0
    modelled_s: float = 0.0
    wait_s: float = 0.0
    busy_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def total_calls(self) -> int:
        """Completions plus embeds, the unit of the protocol's budget."""
        return sum(self.calls.values()) + self.embeds

    def counts(self) -> tuple:
        """The deterministic part, for comparing two runs of one task."""
        return (
            sorted(self.calls.items()),
            sorted(self.prompt_tokens.items()),
            sorted(self.completion_tokens.items()),
            self.embeds,
            self.errors,
            self.sampling_mismatch,
        )


class SimBackend:
    """Provider stand-in handed to `engine.solve` through `UnitSet`."""

    def __init__(self, inner: MockProvider, latency: Latency, meter: Meter, tracer=None) -> None:
        self.config = inner.config
        self._inner = inner
        self._latency = latency
        self._meter = meter
        self._tracer = tracer

    def _wait(self, seconds: float) -> None:
        # A sleep overshoots by a varying amount; sleeping only what the task
        # still owes keeps its total wait at the modelled sum.
        meter = self._meter
        meter.modelled_s += seconds
        owed = meter.modelled_s - meter.wait_s
        if owed > 0:
            started = time.perf_counter()
            time.sleep(owed)
            meter.wait_s += time.perf_counter() - started

    def complete(self, request, *, transcript=None, unit=None, operation="complete"):
        span = self._tracer.open("providers.complete") if self._tracer else None
        started = time.perf_counter()
        try:
            response = self._inner.complete(
                request, transcript=transcript, unit=unit, operation=operation
            )
        except ProviderError:
            self._meter.errors += 1
            if span:
                self._tracer.close(span, error=True)
            raise
        prompt_tokens = len(request.flattened().split())
        completion_tokens = len(response.text.split())
        name = unit.value if unit is not None else "unknown"
        meter = self._meter
        meter.calls[name] += 1
        meter.prompt_tokens[name] += prompt_tokens
        meter.completion_tokens[name] += completion_tokens
        if request.sampling != self.config.sampling:
            meter.sampling_mismatch += 1
        meter.busy_s += time.perf_counter() - started
        self._wait(self._latency.completion(prompt_tokens, completion_tokens))
        if span:
            self._tracer.close(span)
        return response

    def embed(self, text, *, transcript=None, unit=None, operation="embed"):
        span = self._tracer.open("providers.embed") if self._tracer else None
        started = time.perf_counter()
        vector = self._inner.embed(text, transcript=transcript, unit=unit, operation=operation)
        self._meter.embeds += 1
        self._meter.busy_s += time.perf_counter() - started
        self._wait(self._latency.embed_s)
        if span:
            self._tracer.close(span)
        return vector
