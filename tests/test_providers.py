from __future__ import annotations

import http.server
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path
from urllib.error import URLError

import pytest
from hypothesis import given, settings, strategies as st

from conftest import engine_config, mock_config, mock_provider
from socialagent import canonical, providers
from socialagent.cli import main
from socialagent.core import (
    ActionSpec,
    ContentItem,
    Plan,
    ReasoningStrategy,
    Task,
    Transcript,
    UnitRole,
    digest,
)
from socialagent.divergence import EmbeddingVector
from socialagent.engine import RoleDescription, execute_actions
from socialagent.errors import (
    AuthenticationError,
    ConfigError,
    EmptyTextError,
    ImageUnsupportedError,
    InvariantError,
    MockScriptExhaustedError,
    MockScriptMismatchError,
    ProviderError,
    TransportError,
)
from socialagent.evaluation import load_setup
from socialagent.fixtures import fixture_path, golden_argv
from socialagent.providers import (
    EMBED_DIMENSION,
    Backend,
    HttpChatProvider,
    MockScript,
    MockScriptEntry,
    MockProvider,
    Provider,
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


def complete(provider: Provider, req: ProviderRequest) -> str:
    """One actor completion, recorded into a transcript of its own."""
    return provider.complete(req, transcript=Transcript(), unit=UnitRole.ACTOR).text


def embed(provider: Provider, text: str) -> EmbeddingVector:
    """One critic embed, recorded into a transcript of its own."""
    return provider.embed(text, transcript=Transcript(), unit=UnitRole.CRITIC)


class TestMockCompletions:
    def test_scripted_response_returned_verbatim(self):
        provider = mock_provider("PLAN: 1")
        assert complete(provider, request("anything")) == "PLAN: 1"

    def test_consumed_strictly_in_order(self):
        provider = mock_provider("first", "second")
        assert complete(provider, request("a")) == "first"
        assert complete(provider, request("b")) == "second"

    def test_exhaustion_is_an_error(self):
        provider = mock_provider("only one")
        complete(provider, request("a"))
        with pytest.raises(MockScriptExhaustedError):
            complete(provider, request("b"))

    def test_matcher_asserts_request_content(self):
        script = MockScript((MockScriptEntry(response="ok", matcher="needle"),))
        provider = MockProvider(
            ProviderConfig(backend=Backend.MOCK, model_name="m", script=script)
        )
        with pytest.raises(MockScriptMismatchError):
            complete(provider, request("hay only"))

    def test_matcher_passes_when_substring_present(self):
        script = MockScript((MockScriptEntry(response="ok", matcher="needle"),))
        provider = MockProvider(
            ProviderConfig(backend=Backend.MOCK, model_name="m", script=script)
        )
        assert complete(provider, request("hay with needle inside")) == "ok"

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


class TestMockEmbeddings:
    def test_same_text_same_vector(self):
        provider = mock_provider()
        assert embed(provider, "abc") == embed(provider, "abc")

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyTextError):
            embed(mock_provider(), "")

    @settings(max_examples=100)
    @given(st.text(min_size=1, max_size=30))
    def test_dimension_matches_configuration(self, text):
        components = embed(mock_provider(), text).components
        assert len(components) == EMBED_DIMENSION
        assert all(-1.0 <= c < 1.0 for c in components)

    def test_override_table_wins(self):
        provider = mock_provider(embedding_overrides={"abc": (1.0, 2.0)})
        assert embed(provider, "abc").components == (1.0, 2.0)
        assert len(embed(provider, "other").components) == EMBED_DIMENSION

    def test_vector_is_pinned(self):
        # the components hashlib.sha256 gives; gate decisions and goldens rest on them
        assert hash_embedding("plan").components == (
            -0.7036474507552666,
            -0.4913039504194773,
            -0.3914592104832808,
            -0.2381647618701873,
            -0.10397413864932614,
            -0.7088553679824381,
            -0.6674438818014298,
            0.5042312377699669,
        )


class _FakePost:
    """Stands in for `providers._post`: replays queued replies, each a
    (status, payload) pair or an exception to raise, and keeps every POST."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0
        self.posted: list[tuple[str, dict]] = []

    def __call__(self, url, data, headers):
        self.calls += 1
        self.posted.append((url, json.loads(data)))
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        status, payload = reply
        return status, payload if isinstance(payload, bytes) else json.dumps(payload).encode()


def fake_post(monkeypatch, *replies) -> _FakePost:
    poster = _FakePost(replies)
    monkeypatch.setattr(providers, "_post", poster)
    return poster


def http_config(endpoint: str = "https://example.invalid/v1/chat", **kwargs) -> ProviderConfig:
    return ProviderConfig(
        backend=Backend.HTTP_CHAT,
        model_name="live-model",
        endpoint=endpoint,
        api_key_env="TEST_PROVIDER_KEY",
        **kwargs,
    )


@pytest.fixture(params=[Backend.MOCK, Backend.HTTP_CHAT], ids=lambda backend: backend.value)
def scripted(request, monkeypatch):
    """Builds a provider of each backend that replies ``responses`` in order
    (an http one through `fake_post`, then one embedding), with a count of
    the completions and embeddings served so far."""

    def build(*responses: str, **kwargs):
        if request.param is Backend.MOCK:
            provider = mock_provider(*responses, **kwargs)
            return provider, lambda: len(responses) - provider.remaining + len(provider.embed_log)
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        replies = [(200, {"choices": [{"message": {"content": r}}]}) for r in responses]
        poster = fake_post(monkeypatch, *replies, (200, {"data": [{"embedding": [0.1, 0.2]}]}))
        return HttpChatProvider(http_config(**kwargs)), lambda: poster.calls

    return build


class TestUnitCallContract:
    """What every backend's call checks and records, whatever replies."""

    def test_image_to_text_only_backend_rejected(self, scripted):
        provider, served = scripted("never used", supports_images=False)
        image_request = ProviderRequest(
            system_role="s",
            messages=(ContentItem.from_image("x.png", "image/png"),),
        )
        with pytest.raises(ImageUnsupportedError):
            complete(provider, image_request)
        assert served() == 0  # raised before consuming the script or posting

    def test_each_event_digests_each_text_once(self, scripted, monkeypatch):
        from socialagent import core

        digested = []

        def counting(text: str) -> str:
            digested.append(text)
            return original(text)

        original = core.digest
        monkeypatch.setattr(core, "digest", counting)
        monkeypatch.setattr(providers, "digest", counting)
        transcript = Transcript()
        provider, _ = scripted("reply")
        provider.complete(request("hello"), transcript=transcript, unit=UnitRole.PLANNER)
        provider.embed("text", transcript=transcript, unit=UnitRole.CRITIC)
        assert len(transcript) == 2
        assert len(digested) == 4


class TestHttpChat:
    def test_missing_api_key_fails_before_any_network_call(self, monkeypatch):
        monkeypatch.delenv("TEST_PROVIDER_KEY", raising=False)
        poster = fake_post(monkeypatch)
        with pytest.raises(ConfigError, match="'TEST_PROVIDER_KEY' is not set"):
            HttpChatProvider(http_config())
        assert poster.calls == 0

    def test_completion_parsed_from_first_choice(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        fake_post(monkeypatch, (200, {"choices": [{"message": {"content": "hi"}}]}))
        provider = HttpChatProvider(http_config())
        assert complete(provider, request("hello")) == "hi"

    def test_retries_on_transport_error_then_succeeds(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        monkeypatch.setattr("socialagent.providers.time.sleep", lambda _: None)
        poster = fake_post(
            monkeypatch,
            URLError("down"),
            (200, {"choices": [{"message": {"content": "ok"}}]}),
        )
        provider = HttpChatProvider(http_config())
        transcript = Transcript()
        response = provider.complete(
            request("hello"), transcript=transcript, unit=UnitRole.ACTOR
        )
        assert response.text == "ok"
        assert poster.calls == 2
        # each transport attempt is recorded distinctly; success exactly once
        operations = [e.operation for e in transcript.events]
        assert operations == ["complete.attempt", "complete"]

    def test_no_retry_on_4xx(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        poster = fake_post(monkeypatch, (400, {"error": "bad"}))
        provider = HttpChatProvider(http_config())
        with pytest.raises(ProviderError):
            complete(provider, request("hello"))
        assert poster.calls == 1

    def test_auth_status_maps_to_auth_error(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        fake_post(monkeypatch, (401, {}))
        provider = HttpChatProvider(http_config())
        with pytest.raises(AuthenticationError):
            complete(provider, request("hello"))

    def test_transport_exhaustion_surfaces_attempt_count(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        monkeypatch.setattr("socialagent.providers.time.sleep", lambda _: None)
        fake_post(monkeypatch, *[URLError("down")] * 3)
        provider = HttpChatProvider(http_config())
        with pytest.raises(TransportError) as excinfo:
            complete(provider, request("hello"))
        assert str(excinfo.value) == "transport error: <urlopen error down> (after 3 attempt(s))"

    def test_wire_body_carries_model_messages_and_sampling(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        poster = fake_post(monkeypatch, (200, {"choices": [{"message": {"content": "hi"}}]}))
        provider = HttpChatProvider(http_config())
        complete(provider, request("hello there", system_role="be brief"))
        url, body = poster.posted[0]
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
        poster = fake_post(monkeypatch, (200, {"choices": [{"message": {"content": "seen"}}]}))
        provider = HttpChatProvider(http_config(supports_images=True))
        mixed = ProviderRequest(
            system_role="s",
            messages=(
                ContentItem.from_text("caption this"),
                ContentItem.from_image(str(image_file), "image/png"),
            ),
        )
        complete(provider, mixed)
        parts = poster.posted[0][1]["messages"][1]["content"]
        assert parts[0] == {"type": "text", "text": "caption this"}
        assert parts[1]["type"] == "image"
        assert parts[1]["media_type"] == "image/png"
        assert base64.b64decode(parts[1]["data"]) == b"fake-png-bytes"

    def test_embedding_parsed_from_data_payload(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        fake_post(monkeypatch, (200, {"data": [{"embedding": [0.1, 0.2, 0.3]}]}))
        provider = HttpChatProvider(
            http_config(embed_endpoint="https://example.invalid/v1/embed")
        )
        vector = embed(provider, "hello")
        assert vector.components == (0.1, 0.2, 0.3)

    def test_embed_empty_text_rejected_before_network(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        poster = fake_post(monkeypatch)
        provider = HttpChatProvider(http_config())
        with pytest.raises(EmptyTextError):
            embed(provider, "")
        assert poster.calls == 0


def test_http_actor_posts_each_image_input_once(monkeypatch, tmp_path):
    # the reasoned prompt already holds the task's inputs, so the actor's
    # request must not append them again
    monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
    image_file = tmp_path / "kite.png"
    image_file.write_bytes(b"fake-png-bytes")
    inputs = (
        ContentItem.from_text("Question: what flies over the field?"),
        ContentItem.from_image(str(image_file), "image/png"),
    )
    spec = ActionSpec(2, "Answer from the image.")
    reply = (200, {"choices": [{"message": {"content": "ANSWER: a red kite"}}]})
    poster = fake_post(monkeypatch, reply, reply)
    units = {
        UnitRole.REASONER: mock_provider(),
        UnitRole.ACTOR: HttpChatProvider(http_config(supports_images=True)),
        UnitRole.OPTIMIZER: mock_provider("p", "e", "g", "s", supports_images=True),
    }
    results, error = execute_actions(
        Plan(actions=(spec,)),
        RoleDescription(text="role"),
        engine_config(strategy=ReasoningStrategy()),
        units,
        task=Task(id="t-vqa", goal="Describe the image.", inputs=inputs),
        transcript=Transcript(),
    )
    assert error is None and results[0].answer == "a red kite"
    assert len(poster.posted) == 2
    for _, body in poster.posted:
        parts = body["messages"][1]["content"]
        assert [part["type"] for part in parts].count("image") == 1


class TestHttpChatFaults:
    """Live-backend failure modes, injected through a substituted `_post`:
    each surfaces as a ProviderError, never as a raw exception."""

    def test_unreadable_image_fails_before_any_post(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        poster = fake_post(monkeypatch)
        provider = HttpChatProvider(http_config(supports_images=True))
        missing = ProviderRequest(
            system_role="s",
            messages=(ContentItem.from_image(str(tmp_path / "gone.png"), "image/png"),),
        )
        with pytest.raises(ProviderError, match="gone.png"):
            complete(provider, missing)
        assert poster.calls == 0

    def test_non_json_success_body_is_a_provider_error(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        poster = fake_post(monkeypatch, (200, b"<html>gateway</html>"))
        with pytest.raises(
            ProviderError, match="^malformed reply body at line 1 column 1: Expecting value$"
        ):
            complete(HttpChatProvider(http_config()), request("hello"))
        assert poster.calls == 1

    def test_rate_limit_is_retried(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        monkeypatch.setattr("socialagent.providers.time.sleep", lambda _: None)
        poster = fake_post(
            monkeypatch,
            (429, {"error": "slow down"}),
            (200, {"choices": [{"message": {"content": "ok"}}]}),
        )
        transcript = Transcript()
        response = HttpChatProvider(http_config()).complete(
            request("hello"), transcript=transcript, unit=UnitRole.ACTOR, operation="act"
        )
        assert response.text == "ok"
        assert poster.calls == 2
        assert [e.operation for e in transcript.events] == ["act.attempt", "act"]

    def test_non_object_choice_is_a_provider_error(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        for choice, message in (
            ("x", "unrecognized completion payload"),
            ({"message": {"content": None}}, "completion content is not text"),
        ):
            fake_post(monkeypatch, (200, {"choices": [choice]}))
            with pytest.raises(ProviderError, match=message):
                complete(HttpChatProvider(http_config()), request("hello"))

    @pytest.mark.parametrize(
        ("components", "message"),
        [
            (["a", "b"], "list of numbers"),
            ([10**400, 0], "unusable embedding"),
            ([math.inf, 0], "unusable embedding"),
            ([0.5], "unusable embedding"),
        ],
        ids=["text", "int-beyond-float-range", "infinite", "one-component"],
    )
    def test_non_numeric_embedding_is_a_provider_error(self, monkeypatch, components, message):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        fake_post(monkeypatch, (200, {"data": [{"embedding": components}]}))
        with pytest.raises(ProviderError, match=message):
            embed(HttpChatProvider(http_config()), "hello")

    def test_embedding_payload_without_data_is_a_provider_error(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        fake_post(monkeypatch, (200, {"data": []}))
        with pytest.raises(ProviderError, match="unrecognized embedding payload"):
            embed(HttpChatProvider(http_config()), "hello")

    def test_malformed_endpoint_is_a_provider_error(self, monkeypatch):
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        provider = HttpChatProvider(http_config(endpoint="example.invalid/v1/chat"))
        with pytest.raises(ProviderError, match="cannot send"):
            complete(provider, request("hello"))


class _LoopbackHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the server's next queued (status, payload)
    and keeps the Authorization header and JSON body it received."""

    def do_POST(self):  # noqa: N802
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.headers["Authorization"], json.loads(raw)))
        self.send_json(*self.server.replies.pop(0))

    def send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002
        pass


class _MockBehindHttp(_LoopbackHandler):
    """Serves each role's mock binding in the chat wire format, picked by the
    body's model: a completion gets the role's next scripted response, an
    embed the role's mock embedding."""

    def do_POST(self):  # noqa: N802
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        mock = self.server.mocks[body["model"]]
        if "input" in body:
            vector = embed(mock, body["input"])
            self.send_json(200, {"data": [{"embedding": list(vector.components)}]})
            return
        system, user = body["messages"]
        request = ProviderRequest(
            system_role=system["content"],
            messages=tuple(ContentItem.from_text(part["text"]) for part in user["content"]),
        )
        self.send_json(200, {"choices": [{"message": {"content": complete(mock, request)}}]})


def _running(monkeypatch, server):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def loopback(monkeypatch):
    server = http.server.HTTPServer(("127.0.0.1", 0), _LoopbackHandler)
    server.replies, server.seen = [], []
    yield from _running(monkeypatch, server)


@pytest.fixture
def mock_behind_http(monkeypatch):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _MockBehindHttp)
    server.mocks = {}
    yield from _running(monkeypatch, server)


def test_loopback_round_trip_retries_429_and_exhausts_5xx(monkeypatch, loopback):
    monkeypatch.setenv("TEST_PROVIDER_KEY", "secret")
    monkeypatch.setattr(providers, "RETRY_BASE_DELAY", 0)
    provider = HttpChatProvider(
        http_config(endpoint=f"http://127.0.0.1:{loopback.server_port}/v1/chat")
    )
    loopback.replies += [(429, {}), (200, {"choices": [{"message": {"content": "hi"}}]})]
    assert complete(provider, request("hello", system_role="be brief")) == "hi"
    assert len(loopback.seen) == 2
    authorization, body = loopback.seen[1]
    assert authorization == "Bearer secret"
    assert body == {
        "model": "live-model",
        "messages": [
            {"role": "system", "content": "be brief"},
            {"role": "user", "content": [{"type": "text", "text": "hello"}]},
        ],
        "temperature": 0.0,
        "top_p": 0.99,
    }

    loopback.replies += [(503, {"error": "down"})] * 3
    with pytest.raises(TransportError) as excinfo:
        complete(provider, request("again"))
    assert str(excinfo.value) == "backend status 503 (after 3 attempt(s))"
    assert len(loopback.seen) == 5


@pytest.mark.parametrize(
    "golden",
    [
        pytest.param(
            "golden_solve_report.json",
            id="solve_config.json-example_task.json-golden_solve_report.json",
        ),
        pytest.param(
            "golden_multi_action_solve_report.json",
            id="multi_action_config.json-plan_task.json-golden_multi_action_solve_report.json",
        ),
    ],
)
def test_bundled_solve_through_http_chat_reproduces_its_golden(
    monkeypatch, mock_behind_http, tmp_path, golden
):
    # every role rebound to http_chat on a loopback server that serves the
    # role's own mock binding, so the run must be the mock run byte for byte
    monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
    argv = golden_argv(golden)
    at = argv.index("--config") + 1
    setup = load_setup(argv[at])
    endpoint = f"http://127.0.0.1:{mock_behind_http.server_port}/v1/chat"
    bindings = {}
    for role, binding in setup.engine.role_bindings.items():
        mock_behind_http.mocks[binding.model_name] = MockProvider(binding)
        bindings[role] = replace(
            binding,
            backend=Backend.HTTP_CHAT,
            endpoint=endpoint,
            api_key_env="TEST_PROVIDER_KEY",
            script=None,
        )
    config = tmp_path / "http_config.json"
    config.write_text(
        canonical.serialize(replace(setup, engine=replace(setup.engine, role_bindings=bindings))),
        encoding="utf-8",
    )
    argv[at] = str(config)
    out = tmp_path / "run.report"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == fixture_path(golden).read_bytes()


def test_cli_imports_without_requests():
    src = Path(providers.__file__).parents[1]
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; sys.modules['requests'] = None; import socialagent.cli",
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_mock_only_run_never_loads_the_http_stack():
    # nor OpenSSL: transcript digests and mock embeddings use the built-in SHA-256
    src = Path(providers.__file__).parents[1]
    script = """
import sys

def loaded():
    watched = {"urllib.request", "http.client", "ssl", "hashlib", "_hashlib"}
    print(sorted(watched & set(sys.modules)))

import socialagent.cli
loaded()
from socialagent import canonical, engine
from socialagent.core import EnvironmentContext, Transcript
from socialagent.evaluation import load_setup
from socialagent.fixtures import fixture_integrity_check, fixture_path

setup = load_setup(fixture_path("solve_config.json"))
task = canonical.load(fixture_path("example_task.json"))
assert engine.solve(task, EnvironmentContext(), setup.engine).error is None
loaded()
setup = load_setup(fixture_path("plan_divergent_config.json"))
task = canonical.load(fixture_path("plan_task.json"))
units = engine.build_units(setup.engine)
transcript = Transcript()
role = engine.bootstrap_role(task, units, transcript=transcript)
outcome = engine.run_trials(
    task, EnvironmentContext(), setup.engine, units, role, transcript=transcript
)
assert outcome.trial_views[0].gate.activate
loaded()
assert fixture_integrity_check().ok
loaded()
"""
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"] * 4


@pytest.mark.parametrize(
    "setup",
    [
        pytest.param('sys.modules["_sha2"] = sys.modules["_sha256"] = None', id="modules-missing"),
        pytest.param(
            'sys.implementation = types.SimpleNamespace(**{**vars(sys.implementation), "name": "pypy"})',
            id="not-cpython",
        ),
    ],
)
def test_interpreter_without_builtin_sha256_falls_back_to_hashlib(setup):
    # CPython's private _sha2/_sha256 may be slow pure Python elsewhere, so only CPython uses them
    src = Path(providers.__file__).parents[1]
    text = "h\u00e9llo \u793e"
    script = f"""
import sys, types
{setup}
from socialagent.core import digest
from socialagent.providers import hash_embedding
print(digest(""), digest({ascii(text)}), hash_embedding("plan").components[0])
print("_hashlib" in sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        f"{digest('')} {digest(text)} {hash_embedding('plan').components[0]}",
        "True",
    ]


def test_http_config_requires_endpoint_and_key_env():
    with pytest.raises(InvariantError):
        ProviderConfig(backend=Backend.HTTP_CHAT, model_name="m")


def test_config_requires_a_model_name():
    with pytest.raises(InvariantError, match="^model_name must be non-empty$"):
        ProviderConfig(backend=Backend.MOCK, model_name="")


def test_request_requires_a_message():
    with pytest.raises(InvariantError, match="^request must contain at least one message$"):
        ProviderRequest(system_role="sys", messages=())


def test_provider_rejects_a_config_of_another_backend():
    with pytest.raises(InvariantError, match="^MockProvider requires a mock backend config$"):
        MockProvider(http_config())


def test_build_provider_dispatches_on_backend(monkeypatch):
    monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
    assert isinstance(build_provider(mock_config("m")), MockProvider)
    assert isinstance(build_provider(http_config()), HttpChatProvider)
