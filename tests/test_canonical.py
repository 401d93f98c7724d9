from __future__ import annotations

import ast
import dataclasses
import types
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import socialagent
from socialagent import canonical
from socialagent.core import (
    ActionSpec,
    ContentItem,
    EngineConfig,
    ImageRef,
    EnvironmentContext,
    Plan,
    PromptArtifact,
    ReasoningStrategy,
    SamplingConfig,
    StrategyKind,
    Task,
    Transcript,
    UnitRole,
)
from socialagent.actor import ActionResult, CategoryPair
from socialagent.critic import Critique, PlanChoice, RefinedInstructions
from socialagent.divergence import GateDecision
from socialagent.engine import TrialView
from socialagent.errors import ConfigError, MalformedInputError
from socialagent.evaluation import (
    DisagreementEntry,
    EvalRecord,
    MetricReport,
    RecordOutcome,
    RecordScore,
    RunSetup,
    load_setup,
)
from socialagent.fixtures import fixture_path
from socialagent.providers import Backend, MockScript, MockScriptEntry, ProviderConfig

text = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=20)
nonblank = text.filter(lambda s: bool(s.strip()))
identifier = st.text(st.sampled_from("abcdefghij-0123456789"), min_size=1, max_size=12)

content_items = st.one_of(
    text.map(ContentItem.from_text),
    st.builds(ContentItem.from_image, identifier, st.just("image/png")),
)

action_specs = st.builds(ActionSpec, st.sampled_from([1, 2, 3, 4]), nonblank)

plans = st.builds(
    Plan,
    st.lists(action_specs, min_size=1, max_size=3).map(tuple),
    text,
    text,
)

strategies_ = st.one_of(
    st.sampled_from(
        [
            ReasoningStrategy(),
            ReasoningStrategy.zero_shot_cot(),
            ReasoningStrategy(StrategyKind.SELF_REFLECTION),
            ReasoningStrategy.cot_and_reflection(),
        ]
    ),
    st.lists(st.tuples(text, text), min_size=1, max_size=2).map(
        lambda pairs: ReasoningStrategy(StrategyKind.FEW_SHOT, pairs)
    ),
)

tasks = st.builds(
    Task,
    identifier,
    nonblank,
    st.lists(content_items, max_size=2).map(tuple),
    st.one_of(
        st.none(),
        st.sets(st.sampled_from([1, 2, 3, 4]), min_size=1).map(frozenset),
    ),
)

prompts = st.builds(
    PromptArtifact,
    text,
    st.lists(content_items, min_size=1, max_size=3).map(tuple),
)

provider_configs = st.builds(
    ProviderConfig,
    backend=st.just(Backend.MOCK),
    model_name=identifier,
    sampling=st.builds(
        SamplingConfig,
        st.floats(0, 2, allow_nan=False),
        st.floats(0.01, 1.0, allow_nan=False),
    ),
    supports_images=st.booleans(),
    script=st.lists(
        st.builds(MockScriptEntry, text, st.one_of(st.none(), text)), max_size=2
    ).map(lambda entries: MockScript(tuple(entries))),
)


@settings(max_examples=60)
@given(st.one_of(tasks, plans, prompts, strategies_, provider_configs))
def test_round_trip_identity_over_generated_values(value):
    assert canonical.deserialize(canonical.serialize(value)) == value


@given(tasks)
@settings(max_examples=30)
def test_canonical_form_is_deterministic(value):
    assert canonical.serialize(value) == canonical.serialize(value)


def test_round_trip_two_action_plan():
    plan = Plan(
        actions=(
            ActionSpec(3, "write a headline"),
            ActionSpec(4, "classify it"),
        ),
        rationale="summary then category",
        raw="model output: café ✓",
    )
    text_form = canonical.serialize(plan)
    # non-ASCII text is written as itself, not as \u escapes
    assert "café ✓" in text_form and "\\u" not in text_form
    assert canonical.deserialize(text_form) == plan


def test_engine_config_serializations_are_byte_identical():
    config = EngineConfig(
        role_bindings={
            role: ProviderConfig(backend=Backend.MOCK, model_name=f"m-{role.value}")
            for role in UnitRole
        },
        theta=0.25,
        tgd_iterations=3,
    )
    first = canonical.serialize(config)
    second = canonical.serialize(config)
    assert first == second
    assert canonical.deserialize(first) == config


def test_deserialize_reports_position_on_malformed_text():
    with pytest.raises(MalformedInputError) as excinfo:
        canonical.deserialize("{")
    assert "line 1" in str(excinfo.value)


@pytest.mark.parametrize(
    "text", ['"\\ud800"', b'"\\ud800"', '{"\\udfff": 1}', '["x\\uDC00y"]', b'"\xed\xa0\x80"']
)
def test_parse_text_rejects_a_lone_surrogate(text):
    # escaped, in a key, lower case or not, or encoded in the bytes themselves
    with pytest.raises(MalformedInputError, match="^malformed thing: "):
        canonical.parse_text(text, "thing")


@pytest.mark.parametrize(
    "text,value",
    [
        ('"\\ud83d\\ude00"', "\U0001f600"),  # an escaped pair is one character
        (b'"\\ud83d\\ude00"', "\U0001f600"),
        ('"\\\\ud800"', "\\ud800"),  # an escaped backslash, not an escape
        ('"\U0001f600"'.encode("utf-16"), "\U0001f600"),  # json.loads's detected encoding
    ],
)
def test_parse_text_keeps_surrogate_pairs_and_escaped_backslashes(text, value):
    assert canonical.parse_text(text, "thing") == value


def test_canonical_is_the_only_json_reader():
    """Every JSON text the package reads goes through canonical.parse_text."""
    readers = set()
    for module in Path(socialagent.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            named = isinstance(node, ast.Attribute) and node.attr == "loads"
            if named and isinstance(node.value, ast.Name) and node.value.id == "json":
                readers.add(module.name)
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                if any(alias.name == "loads" for alias in node.names):
                    readers.add(module.name)
    assert readers == {"canonical.py"}


def test_deserialize_rejects_unknown_kind():
    with pytest.raises(MalformedInputError, match="unknown kind"):
        canonical.deserialize('{"kind": "NoSuchThing", "value": {}}\n')


@pytest.mark.parametrize("name", ["solve", "ActionName", "AgentError", "core"])
def test_deserialize_rejects_exports_that_are_not_kinds(name):
    # a function, an enum, an exception and a module are all package exports
    assert hasattr(socialagent, name)
    with pytest.raises(MalformedInputError, match="unknown kind"):
        canonical.deserialize(f'{{"kind": "{name}", "value": {{}}}}\n')


def test_serialize_rejects_an_unexported_dataclass():
    outcome = RecordOutcome(EvalRecord("r", (ContentItem.from_text("t"),), gold="g"), "g", {})
    with pytest.raises(MalformedInputError, match="RecordOutcome"):
        canonical.serialize(outcome)


@pytest.mark.parametrize(
    "value, message",
    [
        ({1: "x"}, "^unsupported dict key type int$"),
        (object(), "^cannot serialize value of type object$"),
    ],
    ids=["int-key", "object"],
)
def test_to_jsonable_rejects_values_without_a_json_form(value, message):
    with pytest.raises(MalformedInputError, match=message):
        canonical.to_jsonable(value)


def _unions_in(tp: object) -> list[object]:
    """Every union inside a declared type, the type itself included."""
    nested = [u for arg in typing.get_args(tp) for u in _unions_in(arg)]
    origin = typing.get_origin(tp)
    return [tp, *nested] if origin is typing.Union or origin is types.UnionType else nested


def test_every_declared_union_is_one_type_or_none():
    # the decoder reads a union as ``None`` or its one other arm
    kinds = [v for v in vars(socialagent).values() if isinstance(v, type)]
    kinds = [kind for kind in kinds if dataclasses.is_dataclass(kind)]
    assert ContentItem in kinds and ActionResult in kinds
    for kind in kinds:
        for name, tp in typing.get_type_hints(kind, localns=vars(socialagent)).items():
            for union in _unions_in(tp):
                arms = typing.get_args(union)
                assert len(arms) == 2 and type(None) in arms, f"{kind.__name__}.{name}: {union}"


def test_from_jsonable_rejects_an_undeclarable_type():
    message = r"^\$: unsupported declared type <class 'complex'>$"
    with pytest.raises(MalformedInputError, match=message):
        canonical.from_jsonable(1, complex)


@pytest.mark.parametrize(
    "value",
    [
        TrialView(
            plan_a_raw="plan a",
            optimized_text="plan b",
            gate=GateDecision(divergence=0.5, theta=0.25),
            critique=Critique(PlanChoice.PLAN_B, "tighten step 2", "VERDICT: B"),
            refined=RefinedInstructions("tighten step 2"),
        ),
        RecordScore(id="r1", scores={"em": 100.0, "f1": 50.0}, failed=True),
        DisagreementEntry(gold="news", predicted="sports", count=2),
    ],
    ids=lambda value: type(value).__name__,
)
def test_element_types_of_public_fields_round_trip(value):
    assert canonical.deserialize(canonical.serialize(value)) == value


def test_deserialize_rejects_unknown_fields():
    text_form = canonical.serialize(SamplingConfig(temperature=0.5))
    tampered = text_form.replace('"temperature"', '"temperaturex"')
    with pytest.raises(MalformedInputError, match="unknown fields"):
        canonical.deserialize(tampered)
    # each key below is a property of its kind, computed from the other
    # fields, so a file that stores it is rejected rather than read
    derived = [
        (ActionSpec(1, "answer"), "name", "qa"),
        (ActionResult(3, "a title"), "structured", "a title"),
        (GateDecision(divergence=0.9, theta=0.1), "activate", False),
        (Critique(PlanChoice.PLAN_A, "", "VERDICT: A"), "actionable", True),
        (TrialView("plan a", "plan b"), "trial", 0),
        (MetricReport("qa", (RecordScore("r1", {"em": 0.0}, False),), {"EM": 0.0}), "n", 1),
    ]
    for value, key, stored in derived:
        data = canonical.parse_text(canonical.serialize(value), "canonical text")
        data["value"][key] = stored
        kind = type(value).__name__
        with pytest.raises(MalformedInputError, match=rf"^{kind}: unknown fields \['{key}'\] "):
            canonical.deserialize(canonical.dumps(data))


def test_transcript_round_trip_preserves_events():
    transcript = Transcript()
    transcript.record(UnitRole.PLANNER, "plan", "request", "response")
    transcript.record(UnitRole.ACTOR, "act", "request 2", "response 2")
    back = canonical.deserialize(canonical.serialize(transcript))
    assert back == transcript
    assert back.signature() == transcript.signature()


def test_strategy_kinds_round_trip():
    for strategy in (
        ReasoningStrategy(),
        ReasoningStrategy(StrategyKind.FEW_SHOT, (("q", "a"),)),
        ReasoningStrategy.zero_shot_cot(),
        ReasoningStrategy(StrategyKind.SELF_REFLECTION),
        ReasoningStrategy.cot_and_reflection(),
    ):
        back = canonical.deserialize(canonical.serialize(strategy))
        assert back == strategy
        assert back.kind is StrategyKind(strategy.kind.value)


def _dataclasses_in(value: object, found: set[type]) -> set[type]:
    if dataclasses.is_dataclass(value):
        found.add(type(value))
        for f in dataclasses.fields(value):
            _dataclasses_in(getattr(value, f.name), found)
    elif isinstance(value, dict):
        for item in value.values():
            _dataclasses_in(item, found)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            _dataclasses_in(item, found)
    return found


def test_type_hints_resolved_once_per_class(monkeypatch):
    resolved: list[type] = []
    original = typing.get_type_hints

    def counting(tp, *args, **kwargs):
        resolved.append(tp)
        return original(tp, *args, **kwargs)

    canonical._hints.cache_clear()
    monkeypatch.setattr(typing, "get_type_hints", counting)
    configs = sorted(fixture_path("solve_config.json").parent.glob("*_config.json"))
    reached: set[type] = set()
    for config in configs:
        _dataclasses_in(load_setup(config), reached)
    first_pass = len(resolved)
    for config in configs:
        load_setup(config)
    assert 0 < first_pass <= len(reached)
    assert len(resolved) == first_pass


def _decode(data, tp):
    return lambda: canonical.from_jsonable(data, tp)


@pytest.mark.parametrize(
    "decode,message",
    [
        pytest.param(_decode({}, tuple[int, ...]), "$: expected array", id="tuple"),
        pytest.param(_decode("ab", frozenset[int]), "$: expected array", id="frozenset"),
        pytest.param(_decode([], dict[str, int]), "$: expected object", id="dict"),
        pytest.param(
            _decode([], EnvironmentContext),
            "$: expected object for EnvironmentContext",
            id="dataclass",
        ),
        pytest.param(_decode("1", float), "$: expected number", id="number"),
        pytest.param(_decode(True, float), "$: expected number", id="bool-as-number"),
        pytest.param(_decode(1.0, int), "$: expected integer", id="integer"),
        pytest.param(_decode(True, int), "$: expected integer", id="bool-as-integer"),
        pytest.param(_decode(1, bool), "$: expected boolean", id="boolean"),
        pytest.param(_decode(1, str), "$: expected string", id="string"),
        pytest.param(_decode(False, str), "$: expected string", id="bool-as-string"),
        pytest.param(
            _decode({"level1": 1, "level2": "b"}, CategoryPair),
            "$.level1: expected string",
            id="field-path",
        ),
        pytest.param(
            _decode({"level2": "b"}, CategoryPair),
            "$: missing field 'level1' for CategoryPair",
            id="missing-field",
        ),
        pytest.param(
            _decode({"id": "r1", "scores": {}}, RecordScore),
            "$: missing field 'failed' for RecordScore",
            id="missing-field-without-default",
        ),
        pytest.param(
            _decode(1, str | None),
            "$: expected string",
            id="optional-arm-mismatch",
        ),
        pytest.param(_decode([1], tuple[int, int]), "$: expected 2 items", id="tuple-count"),
        pytest.param(
            _decode({"location": "", "media_type": "image/png"}, ImageRef),
            "$: ImageRef.location must be non-empty",
            id="invariant",
        ),
        pytest.param(
            _decode(
                {"image": {"location": "", "media_type": "image/png"}},
                ContentItem,
            ),
            "$.image: ImageRef.location must be non-empty",
            id="invariant-in-union-arm",
        ),
        pytest.param(
            lambda: canonical.deserialize("[]"),
            "expected an object with 'kind' and 'value'",
            id="envelope-not-object",
        ),
        pytest.param(
            lambda: canonical.deserialize('{"kind": "Task"}'),
            "expected an object with 'kind' and 'value'",
            id="envelope-without-value",
        ),
    ],
)
def test_decoder_error_messages(decode, message):
    with pytest.raises(MalformedInputError) as excinfo:
        decode()
    assert str(excinfo.value) == message


def test_load_checks_the_kind_of_the_stored_value(tmp_path):
    path = tmp_path / "task.json"
    task = Task("t", "goal", ())
    path.write_text(canonical.serialize(task), encoding="utf-8")
    assert canonical.load(path) == canonical.load(path, Task) == task
    with pytest.raises(MalformedInputError) as excinfo:
        canonical.load(path, RunSetup)
    assert str(excinfo.value) == "does not contain a RunSetup"


@pytest.mark.parametrize(
    "make, reason",
    [
        pytest.param(lambda path: None, "No such file or directory", id="missing"),
        pytest.param(lambda path: path.mkdir(), "Is a directory", id="directory"),
        pytest.param(
            lambda path: path.write_bytes("café".encode("latin-1")),
            "not UTF-8 text (byte 3)",
            id="non-utf8",
        ),
    ],
)
def test_read_text_reports_an_unreadable_file_as_a_bare_config_error(tmp_path, make, reason):
    # the caller names the file, so the message is the cause alone
    path = tmp_path / "input.json"
    make(path)
    with pytest.raises(ConfigError) as excinfo:
        canonical.read_text(path)
    assert str(excinfo.value) == reason
