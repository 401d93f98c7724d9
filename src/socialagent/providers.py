"""Model backends behind one interface: a deterministic scripted mock for
tests and a generic JSON-over-HTTP chat client for live models."""

from __future__ import annotations

import base64
import json
import os
import threading
import time
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path

from .canonical import parse_text
# digest goes unused here, but bench/spans.py wraps providers.digest
from .core import ContentItem, ContentKind, SamplingConfig, Transcript, UnitRole, digest, sha256
from .divergence import EmbeddingVector
from .errors import (
    AuthenticationError,
    ConfigError,
    EmptyTextError,
    ImageUnsupportedError,
    InvariantError,
    MalformedInputError,
    MockScriptExhaustedError,
    MockScriptMismatchError,
    ProviderError,
    TransportError,
)

EMBED_DIMENSION = 8
RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 0.5
TIMEOUT_S = 60


class Backend(Enum):
    MOCK = "mock"
    HTTP_CHAT = "http_chat"


@dataclass(frozen=True)
class MockScriptEntry:
    """One queued mock response; the optional matcher asserts that its
    substring occurs in the request consuming this entry."""

    response: str
    matcher: str | None = None


@dataclass(frozen=True)
class MockScript:
    entries: tuple[MockScriptEntry, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def of(cls, *responses: str) -> MockScript:
        return cls(tuple(MockScriptEntry(response=r) for r in responses))


@dataclass(frozen=True)
class ProviderConfig:
    """Everything needed to talk to one backend, including sampling
    parameters and (for the mock) the scripted responses."""

    backend: Backend
    model_name: str
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    supports_images: bool = False
    endpoint: str | None = None
    api_key_env: str | None = None
    embed_endpoint: str | None = None
    embed_model: str | None = None
    script: MockScript | None = None
    embedding_overrides: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.model_name:
            raise InvariantError("model_name must be non-empty")
        if self.backend is Backend.HTTP_CHAT:
            if not self.endpoint or not self.api_key_env:
                raise InvariantError("http backend requires endpoint and api_key_env")
            if self.script is not None or self.embedding_overrides:
                raise InvariantError("http backend takes no script or embedding_overrides")


@dataclass(frozen=True)
class ProviderRequest:
    system_role: str
    messages: tuple[ContentItem, ...]
    sampling: SamplingConfig = field(default_factory=SamplingConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise InvariantError("request must contain at least one message")

    def flattened(self) -> str:
        """All request text in order (system role first), for digests and
        mock matchers; image items appear as placeholders."""
        parts = [self.system_role]
        for item in self.messages:
            if item.kind is ContentKind.TEXT:
                parts.append(item.text or "")
            else:
                parts.append(f"[image:{item.image.location}]")
        return "\n".join(parts)


@dataclass(frozen=True)
class ProviderResponse:
    text: str


def _check_images(config: ProviderConfig, request: ProviderRequest) -> None:
    if config.supports_images:
        return
    for item in request.messages:
        if item.kind is ContentKind.IMAGE_REF:
            raise ImageUnsupportedError(
                f"backend {config.model_name!r} does not accept image content"
            )


# records one failed try of a call, given the reason it failed
Attempt = Callable[[str], None]


def hash_embedding(text: str) -> EmbeddingVector:
    """Deterministic pseudo-embedding: each component is derived from a
    digest of the text, mapped into [-1, 1)."""
    components = []
    for i in range(EMBED_DIMENSION):
        # the leading 0 keeps every vector, and so each embed digest in the goldens, unchanged
        raw = sha256(f"0:{i}:{text}".encode("utf-8")).digest()
        value = int.from_bytes(raw[:8], "big") / 2**64
        components.append(value * 2.0 - 1.0)
    return EmbeddingVector(tuple(components))


class Provider(ABC):
    """One unit call, the same for every backend. Before the backend is
    asked, a completion checks image support and an embed rejects empty
    text. Each call records its event in the run's transcript under its unit
    (and, through ``attempt``, each failed try's ``<operation>.attempt``
    event before it). A backend supplies only the reply and the vector."""

    backend: Backend

    def __init__(self, config: ProviderConfig) -> None:
        if config.backend is not self.backend:
            raise InvariantError(
                f"{type(self).__name__} requires a {self.backend.value} backend config"
            )
        self.config = config

    def complete(
        self,
        request: ProviderRequest,
        *,
        transcript: Transcript,
        unit: UnitRole,
        operation: str = "complete",
    ) -> ProviderResponse:
        _check_images(self.config, request)
        flattened = request.flattened()
        attempt = partial(transcript.record, unit, f"{operation}.attempt", flattened)
        text = self._reply(request, flattened, attempt)
        transcript.record(unit, operation, flattened, text)
        return ProviderResponse(text)

    def embed(
        self,
        text: str,
        *,
        transcript: Transcript,
        unit: UnitRole,
        operation: str = "embed",
    ) -> EmbeddingVector:
        if not text:
            raise EmptyTextError("cannot embed empty text")
        attempt = partial(transcript.record, unit, f"{operation}.attempt", text)
        vector = self._vector(text, attempt)
        transcript.record(unit, operation, text, repr(vector.components))
        return vector

    @abstractmethod
    def _reply(self, request: ProviderRequest, flattened: str, attempt: Attempt) -> str:
        """The completion text for ``request``, whose flattened text is given."""

    @abstractmethod
    def _vector(self, text: str, attempt: Attempt) -> EmbeddingVector:
        """The embedding of non-empty ``text``."""


class MockProvider(Provider):
    """Fully deterministic backend: completions come from an ordered script,
    embeddings from a fixed hash plus an override table."""

    backend = Backend.MOCK

    def __init__(self, config: ProviderConfig) -> None:
        super().__init__(config)
        self._entries = list((config.script or MockScript()).entries)
        self._cursor = 0
        self._lock = threading.Lock()
        self.call_log: list[tuple[ProviderRequest, str]] = []
        self.embed_log: list[str] = []

    def _reply(self, request: ProviderRequest, flattened: str, attempt: Attempt) -> str:
        with self._lock:
            if self._cursor >= len(self._entries):
                raise MockScriptExhaustedError(
                    f"mock script for {self.config.model_name!r} exhausted after "
                    f"{self._cursor} response(s)"
                )
            entry = self._entries[self._cursor]
            self._cursor += 1
            if entry.matcher is not None and entry.matcher not in flattened:
                raise MockScriptMismatchError(
                    f"scripted response {self._cursor} expected request to contain "
                    f"{entry.matcher!r}"
                )
            self.call_log.append((request, entry.response))
        return entry.response

    def _vector(self, text: str, attempt: Attempt) -> EmbeddingVector:
        override = self.config.embedding_overrides.get(text)
        if override is not None:
            vector = EmbeddingVector(tuple(override))
        else:
            vector = hash_embedding(text)
        with self._lock:
            self.embed_log.append(text)
        return vector

    @property
    def remaining(self) -> int:
        return len(self._entries) - self._cursor


def _post(url: str, data: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
    """One POST; returns the status and body of any reply, error statuses
    included. Raises ValueError for a request that cannot be sent, and
    OSError or http.client.HTTPException when no reply arrives. The urllib
    stack is imported here, on the first request, so mock-only runs never
    load it."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=TIMEOUT_S) as reply:
            return reply.status, reply.read()
    except urllib.error.HTTPError as reply:
        with reply:
            return reply.code, reply.read()


class HttpChatProvider(Provider):
    """Generic chat-completion client: one JSON POST per call, base64 image
    parts inlined at the wire boundary, bounded retries on transport errors,
    429 and 5xx. The API key is read once, when the provider is built."""

    backend = Backend.HTTP_CHAT

    def __init__(self, config: ProviderConfig) -> None:
        super().__init__(config)
        self._key = os.environ.get(config.api_key_env or "")
        if not self._key:
            raise ConfigError(f"environment variable {config.api_key_env!r} is not set")

    def _message_parts(self, request: ProviderRequest) -> list[dict]:
        parts: list[dict] = []
        for item in request.messages:
            if item.kind is ContentKind.TEXT:
                parts.append({"type": "text", "text": item.text})
                continue
            try:
                raw = Path(item.image.location).read_bytes()
            except OSError as exc:
                raise ProviderError(f"cannot read image {item.image.location!r}: {exc}") from exc
            parts.append(
                {
                    "type": "image",
                    "media_type": item.image.media_type,
                    "data": base64.b64encode(raw).decode(),
                }
            )
        return parts

    def _post_with_retries(self, url: str, body: dict, attempt: Attempt) -> dict:
        import http.client

        data = json.dumps(body).encode("utf-8")
        headers = {"Authorization": f"Bearer {self._key}", "Content-Type": "application/json"}
        for number in range(1, RETRY_ATTEMPTS + 1):
            try:
                status, reply = _post(url, data, headers)
            except ValueError as exc:  # malformed URL or header: nothing was sent
                raise ProviderError(f"cannot send request to {url!r}: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                failure = f"transport error: {exc}"
            else:
                if status in (401, 403):
                    raise AuthenticationError(f"backend rejected credentials ({status})")
                if 200 <= status < 300:
                    try:
                        return parse_text(reply, "reply body")
                    except MalformedInputError as exc:
                        raise ProviderError(str(exc)) from exc
                if status != 429 and status < 500:
                    text = reply[:200].decode("utf-8", "replace")
                    raise ProviderError(f"backend error {status}: {text}")
                failure = f"backend status {status}"
            attempt(failure)
            if number < RETRY_ATTEMPTS:
                time.sleep(RETRY_BASE_DELAY * 2 ** (number - 1))
        raise TransportError(f"{failure} (after {RETRY_ATTEMPTS} attempt(s))")

    def _reply(self, request: ProviderRequest, flattened: str, attempt: Attempt) -> str:
        body = {
            "model": self.config.model_name,
            "messages": [
                {"role": "system", "content": request.system_role},
                {"role": "user", "content": self._message_parts(request)},
            ],
            "temperature": request.sampling.temperature,
            "top_p": request.sampling.top_p,
        }
        payload = self._post_with_retries(self.config.endpoint, body, attempt)
        try:
            choice = payload["choices"][0]
            text = choice.get("message", {}).get("content", choice.get("text", ""))
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ProviderError(f"unrecognized completion payload: {exc}") from exc
        if not isinstance(text, str):
            raise ProviderError("completion content is not text")
        return text

    def _vector(self, text: str, attempt: Attempt) -> EmbeddingVector:
        url = self.config.embed_endpoint or self.config.endpoint
        body = {"model": self.config.embed_model or self.config.model_name, "input": text}
        payload = self._post_with_retries(url, body, attempt)
        try:
            components = payload["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"unrecognized embedding payload: {exc}") from exc
        if not isinstance(components, list) or any(type(c) not in (int, float) for c in components):
            raise ProviderError("embedding is not a list of numbers")
        try:
            return EmbeddingVector(tuple(components))
        except (InvariantError, OverflowError) as exc:  # < 2, or not finite floats
            raise ProviderError(f"unusable embedding: {exc}") from exc


def invoke(
    provider: Provider,
    unit: UnitRole,
    operation: str,
    system_role: str,
    segments: tuple[ContentItem, ...],
    *,
    transcript: Transcript,
) -> str:
    """The one completion path of every unit: a request under the bound
    provider's own sampling, recorded in the transcript as (unit, operation).
    Returns the response text."""
    request = ProviderRequest(
        system_role=system_role, messages=segments, sampling=provider.config.sampling
    )
    return provider.complete(request, transcript=transcript, unit=unit, operation=operation).text


def build_provider(config: ProviderConfig) -> Provider:
    """Instantiate a fresh backend for one run; mock state never leaks
    across runs."""
    if config.backend is Backend.MOCK:
        return MockProvider(config)
    return HttpChatProvider(config)
