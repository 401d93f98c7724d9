from __future__ import annotations

import json
import shutil
from dataclasses import replace

import pytest

from socialagent import canonical, engine, providers
from socialagent.actor import CategoryTaxonomy
from socialagent.cli import EXIT_CONFIG, EXIT_OK, EXIT_TASK, build_parser, main
from socialagent.core import ContentItem, EnvironmentContext, Task, UnitRole
from socialagent.errors import PlanParseError, ProviderError
from socialagent.evaluation import MetricReport, load_setup
from socialagent.fixtures import fixture_path, golden_argv
from socialagent.providers import Backend, MockProvider, MockScript


@pytest.fixture
def provider_calls(monkeypatch):
    """The name of every completion and embedding a mock provider serves."""
    calls: list[str] = []
    for name in ("complete", "embed"):

        def counting(self, *args, _name=name, _original=getattr(MockProvider, name), **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MockProvider, name, counting)
    return calls


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _WordlessWriterMock(MockProvider):
    """A mock whose role-writer calls raise a ``ProviderError`` with no message."""

    def _reply(self, request, flattened, attempt):
        if request.system_role == engine.BOOTSTRAP_SYSTEM_ROLE:
            raise ProviderError()
        return super()._reply(request, flattened, attempt)


@pytest.fixture
def wordless_writer(monkeypatch):
    """Every mock binding the CLI builds is a ``_WordlessWriterMock``."""
    monkeypatch.setattr(providers, "MockProvider", _WordlessWriterMock)


class TestSolve:
    def test_solve_stdout_is_machine_parseable_without_out(self, capsys):
        code, stdout, _ = run_cli(capsys, *golden_argv("golden_solve_report.json"))
        assert code == EXIT_OK
        payload = json.loads(stdout)
        assert payload["task_id"] == "example-001"

    def test_missing_config_exits_1_and_names_path(self, capsys):
        code, _, stderr = run_cli(
            capsys,
            "solve",
            "--config",
            "/nonexistent/missing.cfg",
            "--task",
            str(fixture_path("example_task.json")),
        )
        assert code == EXIT_CONFIG
        assert stderr == (
            "error: cannot load config /nonexistent/missing.cfg: No such file or directory\n"
        )

    def test_plan_parse_failure_exits_2_with_partial_transcript(self, tmp_path, capsys):
        config_path = _config_binding(
            tmp_path, UnitRole.PLANNER, script=MockScript.of("no structure here")
        )
        out = tmp_path / "run.report"
        code, _, stderr = run_cli(
            capsys,
            "solve",
            "--config",
            str(config_path),
            "--task",
            str(fixture_path("example_task.json")),
            "--out",
            str(out),
        )
        assert code == EXIT_TASK
        assert "task failed" in stderr
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["error"]
        events = payload["transcript"]
        seen = [(e["seq"], e["unit"], e["operation"]) for e in events]
        assert seen == [
            (0, "role_writer", "bootstrap_role"),
            (1, "reasoner", "reason"),
            (2, "planner", "plan"),
        ]
        assert all(
            set(e) == {"seq", "unit", "operation", "request_digest", "response_digest"}
            for e in events
        )
        # the report is the engine's own rendering of the failed response
        task = canonical.load(fixture_path("example_task.json"), Task)
        response = engine.solve(task, EnvironmentContext(), load_setup(config_path).engine)
        assert isinstance(response.error, PlanParseError)
        assert response.failure == payload["error"] == "no plan block found in planner output"
        assert response.plan_used is None and response.results == ()
        assert response.transcript.signature() == tuple((u, o) for _, u, o in seen)
        assert stderr == f"task failed: {response.failure}\n"
        assert out.read_bytes() == engine.run_report(task, response).encode("utf-8")


    def test_action_phase_failure_exits_2_with_report_written(self, tmp_path, capsys):
        # actor script runs dry after the first call: planning succeeds, the
        # action loop fails, partial results land in the report
        config_path = _config_binding(
            tmp_path, UnitRole.ACTOR, script=MockScript.of("ANSWER: only one")
        )
        out = tmp_path / "run.report"
        code, _, stderr = run_cli(
            capsys,
            "solve",
            "--config",
            str(config_path),
            "--task",
            str(fixture_path("example_task.json")),
            "--out",
            str(out),
        )
        assert code == EXIT_TASK
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["results"] == []
        failure = "action 1 (qa): mock script for 'unit-actor' exhausted after 1 response(s)"
        assert payload["error"] == failure
        assert stderr == f"task failed: {failure}\n"

    def test_an_action_fault_names_its_action_in_the_report_and_on_stderr(
        self, tmp_path, capsys
    ):
        # two optimizer iterations run the optimizer's script dry in action 2
        out = tmp_path / "run.report"
        argv = _solve_argv(
            "--iterations",
            "2",
            "--out",
            str(out),
            config=fixture_path("multi_action_config.json"),
            task=fixture_path("plan_task.json"),
        )
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == EXIT_TASK
        assert stdout == ""
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["results"]) == 1
        failure = (
            "action 2 (title_generation): "
            "mock script for 'unit-optimizer' exhausted after 16 response(s)"
        )
        assert payload["error"] == failure
        assert stderr == f"task failed: {failure}\n"

    def test_a_fault_without_a_message_is_named_by_its_class(
        self, tmp_path, capsys, wordless_writer
    ):
        out = tmp_path / "run.report"
        code, stdout, stderr = run_cli(capsys, *_solve_argv("--out", str(out)))
        assert code == EXIT_TASK
        assert stdout == ""
        assert stderr == "task failed: ProviderError\n"
        assert json.loads(out.read_text(encoding="utf-8"))["error"] == "ProviderError"

    def test_few_shot_config_runs_the_golden_solve(self, tmp_path, capsys, provider_calls):
        # few-shot decorates the reasoned prompts locally: the golden run's
        # calls and transcript shape, with reasoned prompts of its own
        def run(argv):
            provider_calls.clear()
            code, stdout, _ = run_cli(capsys, *argv)
            assert code == EXIT_OK
            return len(provider_calls), json.loads(stdout)["transcript"]

        def reasoned(events):
            return {e["response_digest"] for e in events if e["unit"] == "reasoner"}

        argv = golden_argv("golden_solve_report.json")
        golden_calls, golden = run(argv)
        assert golden == json.loads(_fixture_text("golden_solve_report.json"))["transcript"]
        _, undecorated = run([*argv, "--strategy", "none"])
        data = json.loads(_fixture_text("solve_config.json"))
        data["value"]["engine"]["strategy"] = {
            "kind": "few_shot",
            "examples": [["Question: Which river flows through Paris?", "ANSWER: the Seine"]],
        }
        config = tmp_path / "few_shot_config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        argv[argv.index("--config") + 1] = str(config)
        calls, report = run(argv)
        assert calls == golden_calls
        assert [(e["unit"], e["operation"]) for e in report] == [
            (e["unit"], e["operation"]) for e in golden
        ]
        assert reasoned(golden)
        assert reasoned(report).isdisjoint(reasoned(golden) | reasoned(undecorated))

    def test_fewshot_flag_requires_examples_in_config(self, capsys):
        # few-shot needs the config's examples, so no flag selects it
        code, stdout, stderr = run_cli(capsys, *_solve_argv("--strategy", "fewshot"))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert "invalid choice: 'fewshot'" in stderr


def _solve_argv(*extra: str, config=None, task=None) -> list[str]:
    config = config or fixture_path("solve_config.json")
    task = task or fixture_path("example_task.json")
    return ["solve", "--config", str(config), "--task", str(task), *extra]


def _plan_argv(*extra: str, config=None, task=None) -> list[str]:
    return ["plan", *_solve_argv(*extra, config=config, task=task)[1:]]


def _eval_argv(*extra: str, config=None, dataset=None, kind="qa") -> list[str]:
    config = config or fixture_path("qa_eval_config.json")
    dataset = dataset or fixture_path("mini_qa.jsonl")
    return ["eval", "--config", str(config), "--dataset", str(dataset), "--kind", kind, *extra]


def _qa_config_with(tmp_path, change):
    """The bundled QA eval config with its role bindings edited by ``change``,
    and without the record scripts of any roles ``change`` returns."""
    setup = load_setup(fixture_path("qa_eval_config.json"))
    bindings = dict(setup.engine.role_bindings)
    unscripted = change(bindings) or ()
    scripts = {
        record: {role: entries for role, entries in roles.items() if role not in unscripted}
        for record, roles in setup.record_scripts.items()
    }
    path = tmp_path / "edited_config.json"
    edited = replace(
        setup,
        engine=replace(setup.engine, role_bindings=bindings),
        record_scripts=scripts,
    )
    path.write_text(canonical.serialize(edited), encoding="utf-8")
    return path


def _actor_shares_writer_model(bindings):
    writer = bindings[UnitRole.ROLE_WRITER].model_name
    bindings[UnitRole.ACTOR] = replace(bindings[UnitRole.ACTOR], model_name=writer)


def _critic_unbound(bindings):
    del bindings[UnitRole.CRITIC]


def _actor_unbound(bindings):
    del bindings[UnitRole.ACTOR]


_UNSET_KEY = "SOCIALAGENT_TEST_UNSET_KEY"  # deleted from the environment by the test


def _actor_live(bindings):
    bindings[UnitRole.ACTOR] = replace(
        bindings[UnitRole.ACTOR],
        backend=Backend.HTTP_CHAT,
        endpoint="http://127.0.0.1:9/v1/chat",
        api_key_env=_UNSET_KEY,
        script=None,
    )


def _actor_key_unset(bindings):
    _actor_live(bindings)
    # the actor's record scripts go too: on a live binding they fail first
    return (UnitRole.ACTOR,)


def _qa_config_file_with(tmp_path, edit):
    """The bundled QA eval config file with its JSON value edited by ``edit``."""
    data = json.loads(fixture_path("qa_eval_config.json").read_text(encoding="utf-8"))
    edit(data["value"])
    path = tmp_path / "edited_config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _config_with_long_theta(tmp_path):
    """The bundled QA eval config with a 5,000-digit theta, past json's digit limit."""
    path = _qa_config_file_with(tmp_path, lambda v: v["engine"].update(theta="THETA"))
    text = path.read_text(encoding="utf-8").replace('"THETA"', "1" * 5000)
    path.write_text(text, encoding="utf-8")
    return path


def _category_eval_argv(tmp_path, taxonomy):
    """A categorize eval of the bundled dataset whose config names ``taxonomy``,
    or no taxonomy when it is None."""
    data = json.loads(_fixture_text("category_eval_config.json"))
    del data["value"]["taxonomy_path"]
    if taxonomy is not None:
        path = tmp_path / "taxonomy.json"
        path.write_text(canonical.serialize(taxonomy), encoding="utf-8")
        data["value"]["taxonomy_path"] = str(path)
    config = tmp_path / "edited_config.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    dataset = fixture_path("mini_category.jsonl")
    return _eval_argv(config=config, dataset=dataset, kind="categorize")


def _rename_key(table, old, new):
    table[new] = table.pop(old)


def _config_naming_store(tmp_path, store_field, text):
    """The bundled QA eval config naming, as ``store_field``, a store file
    that holds ``text``."""
    store = tmp_path / "store.json"
    store.write_text(text, encoding="utf-8")
    return _qa_config_file_with(tmp_path, lambda v: v.update({store_field: str(store)}))


def _image_task(tmp_path):
    """The bundled example task with one image input added."""
    task = canonical.load(fixture_path("example_task.json"))
    image = ContentItem.from_image("chart.png", "image/png")
    path = tmp_path / "image_task.json"
    path.write_text(canonical.serialize(replace(task, inputs=(*task.inputs, image))), "utf-8")
    return path


def _image_dataset(tmp_path):
    path = tmp_path / "vqa.jsonl"
    record = {"id": "v1", "question": "what?", "answer": "a", "images": [{"location": "c.png"}]}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return path


def _fixture_text(name):
    return fixture_path(name).read_text(encoding="utf-8")


_STORE_CASES = (
    (
        "toolstore-wrong-kind",
        "toolstore_path",
        lambda: _fixture_text("taxonomy.json"),
        "toolstore {tmp}/store.json: does not contain a ToolStore",
    ),
    (
        "taxonomy-wrong-kind",
        "taxonomy_path",
        lambda: _fixture_text("toolstore.json"),
        "taxonomy {tmp}/store.json: does not contain a CategoryTaxonomy",
    ),
    (
        "taxonomy-invalid",
        "taxonomy_path",
        lambda: '{"kind": "CategoryTaxonomy", "value": {"level1": []}}',
        "taxonomy {tmp}/store.json: CategoryTaxonomy: taxonomy requires at least one level-1 category",
    ),
    (
        "toolstore-not-json",
        "toolstore_path",
        lambda: "not json",
        "toolstore {tmp}/store.json: malformed canonical text at line 1 column 1",
    ),
)


_SHARED_MODEL = "role-writer model 'role-scribe' is also bound to actor"
_UNBOUND_CRITIC = "missing role bindings: critic"
_UNBOUND_ACTOR = "missing role bindings: actor"
_ACTOR_KEY_UNSET = f"environment variable '{_UNSET_KEY}' is not set"

# a live binding's fields, written over a bundled mock binding as plain data
_HTTP_CHAT = {
    "backend": "http_chat",
    "endpoint": "http://127.0.0.1:9/v1/chat",
    "api_key_env": _UNSET_KEY,
}


@pytest.mark.parametrize(
    "argv,mentions",
    [
        pytest.param(
            lambda tmp: _solve_argv("--out", str(tmp / "no" / "r.json")),
            "--out {tmp}/no/r.json: {tmp}/no is not a directory",
            id="unwritable-out",
        ),
        pytest.param(
            lambda tmp: _eval_argv("--out", str(tmp / "no" / "r.json")),
            "{tmp}/no is not a directory",
            id="eval-unwritable-out",
        ),
        pytest.param(
            lambda tmp: _plan_argv("--out", str(tmp / "no" / "r.txt")),
            "{tmp}/no is not a directory",
            id="plan-unwritable-out",
        ),
        pytest.param(
            lambda tmp: _solve_argv("--out", str(tmp)),
            "--out {tmp} is a directory",
            id="out-is-a-directory",
        ),
        pytest.param(
            # Path.is_dir() raises on a name past the file system's limit
            lambda tmp: _solve_argv("--out", str(tmp / ("a" * 300))),
            "--out {tmp}/" + "a" * 300 + ": File name too long",
            id="out-name-too-long",
        ),
        pytest.param(
            lambda tmp: _solve_argv(task=_image_task(tmp)),
            "image inputs need supports_images on these bindings: optimizer, actor",
            id="solve-image-input-text-only-bindings",
        ),
        pytest.param(
            lambda tmp: _solve_argv("--strategy", "car", task=_image_task(tmp)),
            "image inputs need supports_images on these bindings: reasoner, optimizer, actor",
            id="solve-image-input-reflection-text-only-bindings",
        ),
        pytest.param(
            lambda tmp: _eval_argv(dataset=_image_dataset(tmp), kind="vqa"),
            "image inputs need supports_images on these bindings: optimizer, actor",
            id="eval-image-input-text-only-bindings",
        ),
        pytest.param(
            lambda tmp: _category_eval_argv(tmp, None),
            "a categorize eval needs a two-level taxonomy",
            id="categorize-eval-without-taxonomy",
        ),
        pytest.param(
            lambda tmp: _category_eval_argv(tmp, CategoryTaxonomy(level1=("sport", "politics"))),
            "a categorize eval needs a two-level taxonomy",
            id="categorize-eval-flat-taxonomy",
        ),
        *(
            pytest.param(
                lambda tmp, old=old, new=new: _eval_argv(
                    config=fixture_path("category_eval_config.json"),
                    dataset=_written(
                        tmp / "dataset.jsonl",
                        _fixture_text("mini_category.jsonl").replace(f'"{old}"', f'"{new}"', 1),
                    ),
                    kind="categorize",
                ),
                f"record 'cc-01': gold label '{new}' is not in the taxonomy",
                id=f"categorize-eval-gold-{level}-outside-taxonomy",
            )
            for level, old, new in (("level1", "sport", "sprot"), ("level2", "tennis", "space"))
        ),
        pytest.param(
            lambda tmp: _eval_argv(config=_qa_config_with(tmp, _actor_live)),
            "record 'qa-01': its actor script needs a mock binding, not http_chat",
            id="eval-record-script-on-live-binding",
        ),
        pytest.param(lambda tmp: _solve_argv("--theta", "2"), "", id="theta-2"),
        pytest.param(lambda tmp: _solve_argv("--trials", "0"), "", id="trials-0"),
        pytest.param(lambda tmp: _solve_argv("--iterations", "0"), "", id="iterations-0"),
        pytest.param(lambda tmp: _eval_argv("--workers", "0"), "", id="workers-0"),
        pytest.param(
            lambda tmp: _solve_argv(config=_config_with_long_theta(tmp)),
            "too long to read",
            id="theta-past-digit-limit",
        ),
        *(
            pytest.param(
                lambda tmp, argv=argv, change=change: argv(config=_qa_config_with(tmp, change)),
                mentions,
                id=f"{command}-{case}",
            )
            for command, argv in (("solve", _solve_argv), ("plan", _plan_argv), ("eval", _eval_argv))
            for case, change, mentions in (
                ("actor-shares-writer-model", _actor_shares_writer_model, _SHARED_MODEL),
                ("critic-unbound", _critic_unbound, _UNBOUND_CRITIC),
                ("actor-unbound", _actor_unbound, _UNBOUND_ACTOR),
                ("actor-key-unset", _actor_key_unset, _ACTOR_KEY_UNSET),
            )
        ),
        *(
            pytest.param(
                lambda tmp, edit=edit: _solve_argv(config=_qa_config_file_with(tmp, edit)),
                mentions,
                id=case,
            )
            for case, edit, mentions in (
                (
                    "mistyped-bound-role",
                    lambda v: _rename_key(v["engine"]["role_bindings"], "actor", "actr"),
                    "role_bindings.actr: 'actr' is not a valid UnitRole",
                ),
                (
                    "mistyped-scripted-role",
                    lambda v: _rename_key(v["record_scripts"]["qa-01"], "actor", "actr"),
                    "record_scripts.qa-01.actr: 'actr' is not a valid UnitRole",
                ),
                (
                    "removed-step-directive",
                    lambda v: v["engine"].update(step_directive=None),
                    "unknown fields ['step_directive'] for EngineConfig",
                ),
                (
                    "removed-early-stop-marker",
                    lambda v: v["engine"].update(early_stop_marker="NO_FURTHER_IMPROVEMENT"),
                    "unknown fields ['early_stop_marker'] for EngineConfig",
                ),
                (
                    "nan-actor-temperature",
                    lambda v: v["engine"]["role_bindings"]["actor"]["sampling"].update(
                        temperature=float("nan")
                    ),
                    "role_bindings.actor.sampling.temperature: expected a finite number, got nan",
                ),
                (
                    "infinite-critic-embedding",
                    lambda v: v["engine"]["role_bindings"]["critic"].update(
                        embedding_overrides={"plan": [float("inf")] * 8}
                    ),
                    "embedding_overrides.plan[0]: expected a finite number, got inf",
                ),
                (
                    "float-overflowing-theta",
                    lambda v: v["engine"].update(theta=10**400),
                    "engine.theta: integer 401 digits long is beyond the float range",
                ),
                (
                    "http-binding-with-script",
                    lambda v: v["engine"]["role_bindings"]["actor"].update(_HTTP_CHAT),
                    "edited_config.json: RunSetup.engine.role_bindings.actor: "
                    "http backend takes no script or embedding_overrides",
                ),
                (
                    "http-binding-with-embedding-overrides",
                    lambda v: v["engine"]["role_bindings"]["critic"].update(
                        _HTTP_CHAT, script=None, embedding_overrides={"plan": [1.0, 0.0]}
                    ),
                    "edited_config.json: RunSetup.engine.role_bindings.critic: "
                    "http backend takes no script or embedding_overrides",
                ),
                (
                    "removed-embed-seed-and-dimension",
                    lambda v: [
                        binding.update(embed_dimension=8, embed_seed=0)
                        for binding in v["engine"]["role_bindings"].values()
                    ],
                    "unknown fields ['embed_dimension', 'embed_seed'] for ProviderConfig",
                ),
            )
        ),
        *(
            pytest.param(
                lambda tmp, argv=argv, store_field=store_field, text=text: argv(
                    config=_config_naming_store(tmp, store_field, text())
                ),
                "cannot load config {tmp}/edited_config.json: " + mentions,
                id=f"{command}-{case}",
            )
            for command, argv in (("solve", _solve_argv), ("plan", _plan_argv), ("eval", _eval_argv))
            for case, store_field, text, mentions in _STORE_CASES
        ),
    ],
)
def test_configuration_errors_exit_1_with_a_message(
    capsys, monkeypatch, tmp_path, provider_calls, argv, mentions
):
    monkeypatch.delenv(_UNSET_KEY, raising=False)
    code, stdout, stderr = run_cli(capsys, *argv(tmp_path))
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert stderr.startswith("error: ")
    assert mentions.format(tmp=tmp_path) in stderr
    assert provider_calls == []
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (_solve_argv(task="a"), "task failed: cannot load task a: malformed canonical text"),
        (_eval_argv(dataset="a"), "task failed: cannot load dataset a: line 1: malformed"),
    ],
    ids=["task", "dataset"],
)
def test_a_one_letter_input_path_is_named_once(capsys, monkeypatch, tmp_path, argv, prefix):
    # "a" occurs in the loader's own message, which must not hide the path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a").write_text("{\n", encoding="utf-8")
    code, _, stderr = run_cli(capsys, *argv)
    assert code == EXIT_TASK
    assert stderr.startswith(prefix), stderr


_QA_RECORD = '{"id": "a", "question": "q", "answer": "x"}'


@pytest.mark.parametrize(
    "lines, kind, fault",
    [
        (
            [_QA_RECORD, '{"id": "b", "question": "q", "answer": "y"}', "[1]"],
            "qa",
            "line 3: record must be an object",
        ),
        (
            [_QA_RECORD, '{"id": "b", "question": "q"}'],
            "qa",
            "line 2: missing field (one of: answer, gold)",
        ),
        ([_QA_RECORD, _QA_RECORD], "qa", "line 2: record id 'a' repeats the record on line 1"),
        (
            [_QA_RECORD, '{"id": "b", "question": "q", "answer": "y", "images": "x.png"}'],
            "vqa",
            "line 2: images must be a list",
        ),
    ],
    ids=["not-an-object", "missing-answer", "repeated-id", "string-images"],
)
def test_dataset_field_fault_exits_2_naming_its_line(
    capsys, tmp_path, provider_calls, lines, kind, fault
):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, *_eval_argv(dataset=dataset, kind=kind))
    assert (code, stdout) == (EXIT_TASK, "")
    assert stderr == f"task failed: cannot load dataset {dataset}: {fault}\n"
    assert provider_calls == []


@pytest.mark.parametrize("argv", [_solve_argv, _plan_argv], ids=["solve", "plan"])
def test_task_file_of_another_kind_is_a_malformed_task(capsys, argv):
    config = fixture_path("solve_config.json")
    code, _, stderr = run_cli(capsys, *argv(config=config)[:-2], "--task", str(config))
    assert code == EXIT_TASK
    assert f"task failed: cannot load task {config}: does not contain a Task" in stderr
    assert stderr.count(str(config)) == 1


def test_config_file_of_another_kind_is_named_once(capsys):
    task = fixture_path("example_task.json")
    code, _, stderr = run_cli(capsys, *_solve_argv(config=task))
    assert code == EXIT_CONFIG
    assert stderr == f"error: cannot load config {task}: does not contain a RunSetup\n"


def _categorize_argv(config):
    dataset = fixture_path("mini_category.jsonl")
    return _eval_argv(config=config, dataset=dataset, kind="categorize")


# each bundled config that names a store -> the argv of every subcommand that
# loads it, and the stores it names
_STORE_CONFIGS = {
    "multi_action_config.json": (
        {"solve": _solve_argv, "plan": _plan_argv},
        ("toolstore", "taxonomy"),
    ),
    "category_eval_config.json": ({"eval": _categorize_argv}, ("taxonomy",)),
}

# an unreadable file's fault -> how it is made in the file's place, and its reason
_UNREADABLE_STORES = {
    "missing": (lambda path: None, "No such file or directory"),
    "directory": (lambda path: path.mkdir(), "Is a directory"),
    "non-utf8": (
        lambda path: path.write_bytes("café".encode("latin-1")),
        "not UTF-8 text (byte 3)",
    ),
}


@pytest.mark.parametrize("fault", list(_UNREADABLE_STORES))
@pytest.mark.parametrize(
    "config, command, store",
    [
        (config, command, store)
        for config, (argvs, stores) in _STORE_CONFIGS.items()
        for command in argvs
        for store in stores
    ],
)
def test_a_store_that_cannot_be_read_is_the_configs_fault(
    capsys, tmp_path, provider_calls, config, command, store, fault
):
    # the config and both stores are copied, then one store is broken
    for name in (config, "toolstore.json", "taxonomy.json"):
        shutil.copy(fixture_path(name), tmp_path)
    path = tmp_path.resolve() / f"{store}.json"
    path.unlink()
    make, reason = _UNREADABLE_STORES[fault]
    make(path)
    argvs = _STORE_CONFIGS[config][0]
    code, stdout, stderr = run_cli(capsys, *argvs[command](config=tmp_path / config))
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: cannot load config {tmp_path / config}: {store} {path}: {reason}\n"
    assert provider_calls == []


# each input file a command reads -> what the message calls it, and the
# command's argv with ``path`` in that file's place
_INPUT_FILES = {
    "solve-config": ("config", lambda path: _solve_argv(config=path)),
    "solve-task": ("task", lambda path: _solve_argv(task=path)),
    "plan-task": ("task", lambda path: _plan_argv(task=path)),
    "eval-dataset": ("dataset", lambda path: _eval_argv(dataset=path)),
}


@pytest.mark.parametrize("fault", list(_UNREADABLE_STORES))
@pytest.mark.parametrize("case", list(_INPUT_FILES))
def test_an_input_file_that_cannot_be_read_is_a_config_error(
    capsys, tmp_path, provider_calls, case, fault
):
    what, argv = _INPUT_FILES[case]
    path = tmp_path / "input"
    make, reason = _UNREADABLE_STORES[fault]
    make(path)
    code, stdout, stderr = run_cli(capsys, *argv(path))
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert stderr == f"error: cannot load {what} {path}: {reason}\n"
    assert provider_calls == []


def test_exit_codes_are_0_1_and_2(capsys, tmp_path):
    # README's codes as literals: a success, a config fault (from the library
    # and from the argument parser) and a task fault
    assert run_cli(capsys, *golden_argv("golden_solve_report.json"))[0] == 0
    assert run_cli(capsys, *_solve_argv("--trials", "0"))[0] == 1
    assert run_cli(capsys, *_eval_argv(kind="poetry"))[0] == 1
    unplannable = MockScript.of("no structure here")
    config = _config_binding(tmp_path, UnitRole.PLANNER, script=unplannable)
    assert run_cli(capsys, *_solve_argv(config=config))[0] == 2


@pytest.mark.parametrize(
    "command, missing",
    [
        ("solve", "--config"),
        ("eval", "--config"),
        ("plan", "--config"),
        ("solve", "--task"),
        ("plan", "--task"),
        ("eval", "--dataset"),
        ("eval", "--kind"),
        (None, "command"),
    ],
)
def test_a_missing_required_argument_exits_1_and_is_named(capsys, command, missing):
    argv = {"solve": _solve_argv, "eval": _eval_argv, "plan": _plan_argv, None: list}[command]()
    if command:
        at = argv.index(missing)
        del argv[at : at + 2]  # the flag and its value
    assert run_cli(capsys, *argv) == (
        EXIT_CONFIG,
        "",
        f"error: the following arguments are required: {missing}\n",
    )


def test_eval_runs_four_workers_by_default():
    # the CLI owns this default: the library's run_eval requires workers
    args = build_parser().parse_args(["eval", "--config", "c", "--dataset", "d", "--kind", "qa"])
    assert args.workers == 4


def _golden_aggregates(golden: str) -> dict[str, float]:
    return canonical.load(fixture_path(golden), MetricReport).aggregates


def _config_binding(tmp_path, role, config="solve_config.json", **change):
    """The bundled ``config`` with ``role``'s binding edited by ``change``."""
    setup = load_setup(fixture_path(config))
    bindings = dict(setup.engine.role_bindings)
    bindings[role] = replace(bindings[role], **change)
    path = tmp_path / "edited_config.json"
    edited = replace(setup, engine=replace(setup.engine, role_bindings=bindings))
    path.write_text(canonical.serialize(edited), encoding="utf-8")
    return path


_SLOT = '"@hazard@"'  # the JSON string in a boundary's valid text that a hazard replaces


def _slot_filled(value, reason):
    return lambda doc: (doc.replace(_SLOT, value), f": {reason}")


def _truncated(doc):
    """``doc`` cut off where its slot starts, and where json finds it ends."""
    cut = doc[: doc.index(_SLOT)]
    line, column = cut.count("\n") + 1, len(cut) - cut.rfind("\n")
    return cut, f" at line {line} column {column}: Expecting value"


# hazard -> the text it makes of a boundary's valid text, and the reader's reason
_HAZARDS = {
    "nesting": _slot_filled("[" * 100_000, "nested too deeply to read"),
    "long-integer": _slot_filled("1" * 5000, "an integer literal is too long to read"),
    "lone-surrogate": _slot_filled('"\\ud800"', "a string holds the lone surrogate U+D800"),
    "truncated": _truncated,
}


def _written(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _config_doc(tmp):
    return _config_binding(tmp, UnitRole.ACTOR, model_name="@hazard@").read_text("utf-8")


def _task_doc(tmp):
    task = canonical.load(fixture_path("example_task.json"))
    return canonical.serialize(replace(task, goal="@hazard@"))


def _dataset_doc(tmp):
    """The bundled QA dataset with its first question in the slot."""
    first, *rest = _fixture_text("mini_qa.jsonl").splitlines(keepends=True)
    record = json.loads(first)
    record["question"] = "@hazard@"
    return "".join([json.dumps(record) + "\n", *rest])


def _plan_block_argv(tmp, text, _):
    script = MockScript.of(f"```json\n{text}```")
    return _solve_argv(config=_config_binding(tmp, UnitRole.PLANNER, script=script))


def _http_reply_argv(tmp, text, monkeypatch):
    """A solve whose actor is an http_chat backend answering every post with ``text``."""
    monkeypatch.setenv("HAZARD_REPLY_KEY", "k")
    monkeypatch.setattr(providers, "_post", lambda *_: (200, text.encode()))
    config = _config_binding(
        tmp,
        UnitRole.ACTOR,
        backend=Backend.HTTP_CHAT,
        endpoint="https://example.invalid/v1/chat",
        api_key_env="HAZARD_REPLY_KEY",
        script=None,
    )
    return _solve_argv(config=config)


# boundary -> (its valid text holding the slot, the argv that feeds it a
# hazard's text, exit code, stderr before the reason, whether it stops
# before any provider call)
_BOUNDARIES = {
    "config": (
        _config_doc,
        lambda tmp, text, _: _solve_argv(config=_written(tmp / "config.json", text)),
        EXIT_CONFIG,
        "error: cannot load config {tmp}/config.json: malformed canonical text",
        True,
    ),
    "task": (
        _task_doc,
        lambda tmp, text, _: _solve_argv(task=_written(tmp / "task.json", text)),
        EXIT_TASK,
        "task failed: cannot load task {tmp}/task.json: malformed canonical text",
        True,
    ),
    "dataset-line": (
        _dataset_doc,
        lambda tmp, text, _: _eval_argv(dataset=_written(tmp / "dataset.jsonl", text)),
        EXIT_TASK,
        "task failed: cannot load dataset {tmp}/dataset.jsonl: line 1: malformed record",
        True,
    ),
    "plan-block": (
        lambda tmp: '{"actions": [{"id": 1, "instructions": "@hazard@"}], "rationale": "r"}',
        _plan_block_argv,
        EXIT_TASK,
        "task failed: malformed plan block",
        False,
    ),
    "http-reply": (
        lambda tmp: '{"choices": [{"message": {"content": "@hazard@"}}]}',
        _http_reply_argv,
        EXIT_TASK,
        "task failed: action 1 (qa): malformed reply body",
        False,
    ),
}


@pytest.mark.parametrize("boundary", list(_BOUNDARIES))
@pytest.mark.parametrize("hazard", list(_HAZARDS))
def test_untrusted_json_is_reported_not_raised(
    capsys, tmp_path, monkeypatch, provider_calls, hazard, boundary
):
    doc, argv, code, before, stops_before_any_call = _BOUNDARIES[boundary]
    text, reason = _HAZARDS[hazard](doc(tmp_path))
    out = tmp_path / "run.report"
    exit_code, _, stderr = run_cli(capsys, *argv(tmp_path, text, monkeypatch), "--out", str(out))
    assert (exit_code, stderr) == (code, before.format(tmp=tmp_path) + reason + "\n")
    if stops_before_any_call:
        assert provider_calls == []


class TestEval:
    def test_unknown_kind_exits_1_and_lists_valid_kinds(self, capsys):
        code, stdout, stderr = run_cli(capsys, *_eval_argv(kind="poetry"))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert stderr.startswith("error: argument --kind: invalid choice: 'poetry'")
        for valid in ("qa", "vqa", "title", "categorize"):
            assert valid in stderr

    def test_workers_1_serial_execution(self, capsys):
        code, stdout, _ = run_cli(capsys, *golden_argv("golden_qa_report.json"), "--workers", "1")
        assert code == EXIT_OK
        assert stdout == fixture_path("golden_qa_report.json").read_text(encoding="utf-8")

    def test_text_kind_table_is_one_row_of_the_golden_aggregates(self, capsys):
        code, _, stderr = run_cli(capsys, *golden_argv("golden_qa_report.json"))
        assert code == EXIT_OK
        assert stderr == (
            "kind: qa  n: 5\n"
            "EM       F1       P        R      \n"
            "40.00    69.33    73.33    70.00  \n"
        )
        aggregates = _golden_aggregates("golden_qa_report.json")
        header, row = stderr.splitlines()[1:]
        assert [float(v) for v in row.split()] == [round(aggregates[c], 2) for c in header.split()]

    def test_categorize_table_has_a_row_per_level_of_the_golden_aggregates(self, capsys):
        code, _, stderr = run_cli(capsys, *golden_argv("golden_category_report.json"))
        assert code == EXIT_OK
        assert stderr == (
            "kind: categorize  n: 6\n"
            "Level    Acc     F1      P       R\n"
            "Level-1  83.33   82.22   88.89   83.33  \n"
            "Level-2  50.00   36.11   30.56   50.00  \n"
        )
        aggregates = _golden_aggregates("golden_category_report.json")
        for line, level in zip(stderr.splitlines()[2:], ("L1", "L2")):
            expected = [round(aggregates[f"{level}_{m}"], 2) for m in ("Acc", "F1", "P", "R")]
            assert [float(v) for v in line.split()[1:]] == expected

    def test_malformed_dataset_line_cited(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a"}\n', encoding="utf-8")
        code, _, stderr = run_cli(
            capsys,
            "eval",
            "--config",
            str(fixture_path("qa_eval_config.json")),
            "--dataset",
            str(bad),
            "--kind",
            "qa",
        )
        assert code == EXIT_TASK
        assert "line 1" in stderr

    def test_eval_that_scores_no_record_exits_2_after_its_report(self, capsys):
        # three optimizer iterations run every record's script out
        code, stdout, stderr = run_cli(capsys, *_eval_argv("--iterations", "3"))
        assert code == EXIT_TASK
        per_record = json.loads(stdout)["value"]["per_record"]
        assert len(per_record) == 5
        assert all(record["failed"] for record in per_record)
        assert stderr.splitlines()[-1] == "task failed: all 5 records failed"

    def test_records_whose_faults_have_no_message_fail(self, capsys, wordless_writer):
        # a fault is the error itself, not its text: an empty message still
        # fails the record, rather than reading as a run without results
        code, stdout, stderr = run_cli(capsys, *_eval_argv())
        assert code == EXIT_TASK
        per_record = json.loads(stdout)["value"]["per_record"]
        assert len(per_record) == 5
        assert all(record["failed"] for record in per_record)
        assert all(set(record["scores"].values()) == {0.0} for record in per_record)
        assert "Traceback" not in stderr
        assert stderr.splitlines()[-1] == "task failed: all 5 records failed"


class TestPlan:
    @pytest.mark.parametrize("golden", ["golden_plan_divergent.txt", "golden_plan_identical.txt"])
    def test_output_reproduces_its_golden(self, capsys, golden):
        # the divergent run fires the gate, takes verdict A with feedback and
        # replans; the identical run passes the gate on its first trial
        code, stdout, _ = run_cli(capsys, *golden_argv(golden))
        assert code == EXIT_OK
        assert stdout == fixture_path(golden).read_text(encoding="utf-8")

    def test_theta_zero_always_activates_on_differing_plans(self, capsys):
        # same scripts as the identical fixture, but a rewritten plan B and θ=0
        code, stdout, _ = run_cli(
            capsys,
            "plan",
            "--config",
            str(fixture_path("plan_divergent_config.json")),
            "--task",
            str(fixture_path("plan_task.json")),
            "--theta",
            "0",
        )
        assert code == EXIT_OK
        assert "critic activated" in stdout

    def test_a_verdict_without_feedback_prints_no_feedback_line(self, capsys, tmp_path):
        config = _config_binding(
            tmp_path,
            UnitRole.CRITIC,
            config="plan_divergent_config.json",
            script=MockScript.of("VERDICT: B\nFEEDBACK:"),
        )
        argv = _plan_argv(config=config, task=fixture_path("plan_task.json"))
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert "critique verdict: B\n" in stdout
        assert "critique feedback:" not in stdout

    def test_a_fault_without_a_message_is_named_by_its_class(self, capsys, wordless_writer):
        argv = golden_argv("golden_plan_divergent.txt")
        assert run_cli(capsys, *argv) == (EXIT_TASK, "", "task failed: ProviderError\n")


class TestConfigRoundTrip:
    def test_dumped_effective_config_reloads_to_identical_behavior(
        self, capsys, tmp_path
    ):
        setup = load_setup(fixture_path("solve_config.json"))
        dumped = tmp_path / "effective.cfg"
        dumped.write_text(canonical.serialize(setup), encoding="utf-8")
        outputs = []
        for config in (fixture_path("solve_config.json"), dumped):
            out = tmp_path / f"report-{len(outputs)}.json"
            code, _, _ = run_cli(
                capsys,
                "solve",
                "--config",
                str(config),
                "--task",
                str(fixture_path("example_task.json")),
                "--out",
                str(out),
            )
            assert code == EXIT_OK
            outputs.append(out.read_text(encoding="utf-8"))
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "command,config,task",
    [
        ("solve", "solve_config.json", "example_task.json"),
        ("solve", "scenario_a_config.json", "scenario_task.json"),
        ("solve", "scenario_b_config.json", "scenario_task.json"),
        ("solve", "scenario_c_config.json", "scenario_task.json"),
        ("solve", "multi_action_config.json", "plan_task.json"),
        ("plan", "plan_identical_config.json", "plan_task.json"),
        ("plan", "plan_divergent_config.json", "plan_task.json"),
    ],
)
def test_reflection_strategy_runs_on_bundled_task_configs(capsys, command, config, task):
    code, _, stderr = run_cli(
        capsys,
        command,
        "--config",
        str(fixture_path(config)),
        "--task",
        str(fixture_path(task)),
        "--strategy",
        "car",
    )
    assert code == EXIT_OK, stderr


@pytest.mark.parametrize(
    "golden,kind",
    [
        pytest.param(
            "golden_qa_report.json",
            "qa",
            id="qa-mini_qa.jsonl-qa_eval_config.json-golden_qa_report.json",
        ),
        pytest.param(
            "golden_title_report.json",
            "title",
            id="title-mini_title.jsonl-title_eval_config.json-golden_title_report.json",
        ),
        pytest.param(
            "golden_category_report.json",
            "categorize",
            id="categorize-mini_category.jsonl-category_eval_config.json"
            "-golden_category_report.json",
        ),
    ],
)
def test_reflection_strategy_eval_reproduces_golden_reports(capsys, golden, kind):
    # the golden's own --workers is overridden by the CLI's default count
    code, stdout, stderr = run_cli(
        capsys, *golden_argv(golden), "--strategy", "car", "--workers", "4"
    )
    assert code == EXIT_OK, stderr
    assert stdout == fixture_path(golden).read_text(encoding="utf-8")
    assert stderr.startswith(f"kind: {kind}  n: ")  # human table on stderr
