from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mock_config, mock_provider
from socialagent.core import ContentItem, Transcript, UnitRole
from socialagent.errors import (
    AuthenticationError,
    EmptyTextError,
    ImageUnsupportedError,
    InvariantError,
    MockScriptExhaustedError,
    MockScriptMismatchError,
    ProviderError,
    TransportError,
)
from socialagent.providers import (
    Backend,
    HttpChatProvider,
    MockScript,
    MockScriptEntry,
    MockProvider,
    ProviderConfig,
    ProviderRequest,
    build_provider,
    hash_embedding,
)


def request(*texts: str, system_role: str = "sys") -> ProviderRequest:
    return ProviderRequest(
        system_role=system_role,
        messages=tuple(ContentItem.from_text(t) for t in texts),
    )


class TestMockCompletions:
    def test_scripted_response_returned_verbatim(self):
        provider = mock_provider("PLAN: 1")
        assert provider.complete(request("anything")).text == "PLAN: 1"

    def test_consumed_strictly_in_order(self):
        provider = mock_provider("first", "second")
        assert provider.complete(request("a")).text == "first"
        assert provider.complete(request("b")).text == "second"

    def test_exhaustion_is_an_error(self):
        provider = mock_provider("only one")
        provider.complete(request("a"))
        with pytest.raises(MockScriptExhaustedError):
            provider.complete(request("b"))

    def test_matcher_asserts_request_content(self):
        script = MockScript((MockScriptEntry(response="ok", matcher="needle"),))
        provider = MockProvider(
            ProviderConfig(backend=Backend.MOCK, model_name="m", script=script)
        )
        with pytest.raises(MockScriptMismatchError):
            provider.complete(request("hay only"))

    def test_matcher_passes_when_substring_present(self):
        script = MockScript((MockScriptEntry(response="ok", matcher="needle"),))
        provider = MockProvider(
            ProviderConfig(backend=Backend.MOCK, model_name="m", script=script)
        )
        assert provider.complete(request("hay with needle inside")).text == "ok"

    def test_image_to_text_only_backend_rejected(self):
        provider = mock_provider("never used", supports_images=False)
        image_request = ProviderRequest(
            system_role="s",
            messages=(ContentItem.from_image("x.png", "image/png"),),
        )
        with pytest.raises(ImageUnsupportedError):
            provider.complete(image_request)
        assert provider.remaining == 1  # error raised before consuming the script

    def test_deterministic_across_instances(self):
        config = mock_config("m", "r1", "r2")
        t1, t2 = Transcript(), Transcript()
        for transcript in (t1, t2):
            provider = MockProvider(config)
            provider.complete(request("a"), transcript=transcript, unit=UnitRole.ACTOR)
            provider.complete(request("b"), transcript=transcript, unit=UnitRole.ACTOR)
        assert t1.signature() == t2.signature()
        assert [e.request_digest for e in t1.events] == [
            e.request_digest for e in t2.events
        ]
        assert [e.response_digest for e in t1.events] == [
            e.response_digest for e in t2.events
        ]

    def test_each_event_digests_each_text_once(self, monkeypatch):
        from socialagent import core, providers

        digested = []

        def counting(text: str) -> str:
            digested.append(text)
            return original(text)

        original = core.digest
        monkeypatch.setattr(core, "digest", counting)
        monkeypatch.setattr(providers, "digest", counting)
        transcript = Transcript()
        provider = mock_provider("reply")
        provider.complete(request("hello"), transcript=transcript, unit=UnitRole.PLANNER)
        provider.embed("text", transcript=transcript, unit=UnitRole.CRITIC)
        assert len(transcript) == 2
        assert len(digested) == 4

    def test_recording_requires_unit(self):
        provider = mock_provider("x")
        with pytest.raises(InvariantError):
            provider.complete(request("a"), transcript=Transcript())


class TestMockEmbeddings:
    def test_same_text_same_vector(self):
        provider = mock_provider()
        assert provider.embed("abc") == provider.embed("abc")

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyTextError):
            mock_provider().embed("")

    @settings(max_examples=100)
    @given(
        st.text(min_size=1, max_size=30),
        st.integers(min_value=2, max_value=64),
    )
    def test_dimension_matches_configuration(self, text, dimension):
        provider = mock_provider(embed_dimension=dimension)
        assert provider.embed(text).dimension == dimension

    def test_override_table_wins(self):
        provider = mock_provider(embedding_overrides={"abc": (1.0, 2.0)})
        assert provider.embed("abc").components == (1.0, 2.0)
        assert provider.embed("other").dimension == provider.config.embed_dimension

    def test_seed_changes_vectors(self):
        a = hash_embedding("abc", 8, seed=0)
        b = hash_embedding("abc", 8, seed=1)
        assert a != b
        assert all(-1.0 <= c < 1.0 for c in a.components)


class _FakeReply:
    def __init__(self, status_code: int, payload=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = str(payload)

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0
        self.posted: list[tuple[str, dict]] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        self.posted.append((url, json))
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


def http_config(**kwargs) -> ProviderConfig:
    return ProviderConfig(
        backend=Backend.HTTP_CHAT,
        model_name="live-model",
        endpoint="https://example.invalid/v1/chat",
        api_key_env="TEST_PROVIDER_KEY",
        **kwargs,
    )


class TestHttpChat:
    def test_missing_api_key_fails_before_any_network_call(self, monkeypatch):
        monkeypatch.delenv("TEST_PROVIDER_KEY", raising=False)
        session = _FakeSession([])
        provider = HttpChatProvider(http_config(), session=session)
        with pytest.raises(AuthenticationError):
            provider.complete(request("hello"))
        assert session.calls == 0

    def test_completion_parsed_from_first_choice(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        session = _FakeSession(
            [_FakeReply(200, {"choices": [{"message": {"content": "hi"}}]})]
        )
        provider = HttpChatProvider(http_config(), session=session)
        assert provider.complete(request("hello")).text == "hi"

    def test_retries_on_transport_error_then_succeeds(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        monkeypatch.setattr("socialagent.providers.time.sleep", lambda _: None)
        import requests

        session = _FakeSession(
            [
                requests.ConnectionError("down"),
                _FakeReply(200, {"choices": [{"message": {"content": "ok"}}]}),
            ]
        )
        provider = HttpChatProvider(http_config(), session=session)
        transcript = Transcript()
        response = provider.complete(
            request("hello"), transcript=transcript, unit=UnitRole.ACTOR
        )
        assert response.text == "ok"
        assert session.calls == 2
        # each transport attempt is recorded distinctly; success exactly once
        operations = [e.operation for e in transcript.events]
        assert operations == ["complete.attempt", "complete"]

    def test_no_retry_on_4xx(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        session = _FakeSession([_FakeReply(400, {"error": "bad"})])
        provider = HttpChatProvider(http_config(), session=session)
        with pytest.raises(ProviderError):
            provider.complete(request("hello"))
        assert session.calls == 1

    def test_auth_status_maps_to_auth_error(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        session = _FakeSession([_FakeReply(401)])
        provider = HttpChatProvider(http_config(), session=session)
        with pytest.raises(AuthenticationError):
            provider.complete(request("hello"))

    def test_transport_exhaustion_surfaces_attempt_count(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        monkeypatch.setattr("socialagent.providers.time.sleep", lambda _: None)
        import requests

        session = _FakeSession([requests.ConnectionError("down")] * 3)
        provider = HttpChatProvider(http_config(), session=session)
        with pytest.raises(TransportError) as excinfo:
            provider.complete(request("hello"))
        assert excinfo.value.attempts == 3


    def test_wire_body_carries_model_messages_and_sampling(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        session = _FakeSession(
            [_FakeReply(200, {"choices": [{"message": {"content": "hi"}}]})]
        )
        provider = HttpChatProvider(http_config(), session=session)
        provider.complete(request("hello there", system_role="be brief"))
        url, body = session.posted[0]
        assert url == "https://example.invalid/v1/chat"
        assert body["model"] == "live-model"
        assert body["messages"][0] == {"role": "system", "content": "be brief"}
        assert body["messages"][1]["role"] == "user"
        assert body["messages"][1]["content"][0] == {"type": "text", "text": "hello there"}
        assert body["temperature"] == 0.0
        assert body["top_p"] == 0.99

    def test_images_are_base64_inlined_at_the_wire_boundary(self, monkeypatch, tmp_path):
        import base64

        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        image_file = tmp_path / "img.png"
        image_file.write_bytes(b"fake-png-bytes")
        session = _FakeSession(
            [_FakeReply(200, {"choices": [{"message": {"content": "seen"}}]})]
        )
        provider = HttpChatProvider(http_config(supports_images=True), session=session)
        mixed = ProviderRequest(
            system_role="s",
            messages=(
                ContentItem.from_text("caption this"),
                ContentItem.from_image(str(image_file), "image/png"),
            ),
        )
        provider.complete(mixed)
        parts = session.posted[0][1]["messages"][1]["content"]
        assert parts[0] == {"type": "text", "text": "caption this"}
        assert parts[1]["type"] == "image"
        assert parts[1]["media_type"] == "image/png"
        assert base64.b64decode(parts[1]["data"]) == b"fake-png-bytes"

    def test_embedding_parsed_from_data_payload(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        session = _FakeSession(
            [_FakeReply(200, {"data": [{"embedding": [0.1, 0.2, 0.3]}]})]
        )
        provider = HttpChatProvider(
            http_config(embed_endpoint="https://example.invalid/v1/embed"),
            session=session,
        )
        vector = provider.embed("hello")
        assert vector.components == (0.1, 0.2, 0.3)

    def test_embed_empty_text_rejected_before_network(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        session = _FakeSession([])
        provider = HttpChatProvider(http_config(), session=session)
        with pytest.raises(EmptyTextError):
            provider.embed("")
        assert session.calls == 0


def test_http_config_requires_endpoint_and_key_env():
    with pytest.raises(InvariantError):
        ProviderConfig(backend=Backend.HTTP_CHAT, model_name="m")


def test_build_provider_dispatches_on_backend():
    assert isinstance(build_provider(mock_config("m")), MockProvider)
    assert isinstance(build_provider(http_config()), HttpChatProvider)
