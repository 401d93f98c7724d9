from __future__ import annotations

import json
import threading
from dataclasses import replace

import pytest

from socialagent import canonical, engine, fixtures, providers
from socialagent.actor import CategoryPair, CategoryTaxonomy
from socialagent.core import ContentItem, ContentKind, UnitRole
from socialagent.errors import ConfigError, DatasetFormatError, InvariantError
from socialagent.evaluation import (
    EvalRecord,
    TaskKind,
    build_task,
    evaluate_record,
    load_dataset,
    load_setup,
    run_eval,
)
from socialagent.fixtures import fixture_path
from socialagent.providers import Backend, MockScript, ProviderConfig


class TestLoadDataset:
    def test_qa_layout(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(
            json.dumps(
                {
                    "_id": "h1",
                    "question": "Who?",
                    "answer": "them",
                    "context": [["Title", ["Sentence one.", "Sentence two."]]],
                }
            )
            + "\n",
            encoding="utf-8",
        )
        records = load_dataset(path, TaskKind.QA)
        assert records[0].id == "h1"
        assert records[0].gold == "them"
        assert records[0].inputs[1].text == "Title: Sentence one. Sentence two."

    def test_title_layout(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"id": "w1", "section_text": "body text", "title": "the title"})
            + "\n",
            encoding="utf-8",
        )
        records = load_dataset(path, TaskKind.TITLE)
        assert records[0].gold == "the title"

    def test_categorize_layout(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps(
                {
                    "id": "m1",
                    "text": "article body",
                    "category_level_1": "sport",
                    "category_level_2": "tennis",
                }
            )
            + "\n",
            encoding="utf-8",
        )
        records = load_dataset(path, TaskKind.CATEGORIZE)
        assert records[0].gold_category == CategoryPair("sport", "tennis")

    def test_vqa_layout_carries_images(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text(
            json.dumps(
                {
                    "id": "v1",
                    "question": "What is shown?",
                    "answer": "a chart",
                    "images": [{"location": "img.png", "media_type": "image/png"}],
                }
            )
            + "\n",
            encoding="utf-8",
        )
        records = load_dataset(path, TaskKind.VQA)
        kinds = [item.kind for item in records[0].inputs]
        assert ContentKind.IMAGE_REF in kinds

    def test_malformed_line_cites_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for line, message in (("{broken", "malformed"), ("[1]", "must be an object")):
            path.write_text(
                '{"id": "a", "question": "q", "answer": "x"}\n'
                '{"id": "b", "question": "q", "answer": "y"}\n'
                f"{line}\n",
                encoding="utf-8",
            )
            with pytest.raises(DatasetFormatError, match=message) as excinfo:
                load_dataset(path, TaskKind.QA)
            assert excinfo.value.line == 3
            assert "line 3" in str(excinfo.value)

    def test_integer_too_long_to_read_cites_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "question": "q", "answer": "x"}\n'
            '{"id": "b", "question": "q", "answer": ' + "1" * 5000 + "}\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(path, TaskKind.QA)
        assert excinfo.value.line == 2

    def test_missing_field_cites_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "question": "q"}\n', encoding="utf-8")
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(path, TaskKind.QA)
        assert excinfo.value.line == 1
        assert "missing field (one of: answer, gold)" in str(excinfo.value)

    @pytest.mark.parametrize(
        "separator", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"]
    )
    def test_unicode_line_breaks_stay_inside_their_record(self, tmp_path, separator):
        # json.dumps(ensure_ascii=False) writes these raw inside a string
        lines = [
            json.dumps(
                {"id": "a", "question": f"one{separator}two", "answer": "x"},
                ensure_ascii=False,
            ),
            '{"id": "b", "question": "q", "answer": "y"}',
        ]
        path = tmp_path / "sep.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records = load_dataset(path, TaskKind.QA)
        assert [r.id for r in records] == ["a", "b"]
        assert any(f"one{separator}two" in (item.text or "") for item in records[0].inputs)
        path.write_text("\n".join([*lines, "{broken"]) + "\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(path, TaskKind.QA)
        assert excinfo.value.line == 3

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text(
            '\n{"id": "a", "question": "q", "answer": "x"}\n\n', encoding="utf-8"
        )
        assert len(load_dataset(path, TaskKind.QA)) == 1

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            (TaskKind.QA, {"context": "a SQuAD-style passage"}, "context must be a list"),
            (TaskKind.QA, {"context": ["ok", 5]}, "context passage 5 is not text"),
            (TaskKind.QA, {"context": [["t", [1, None]]]}, "is not text"),
            (TaskKind.VQA, {"images": "pic.png"}, "images must be a list"),
            (TaskKind.VQA, {"images": [{"path": "pic.png"}]}, "needs a non-empty location"),
            (TaskKind.VQA, {"images": [{"location": 123}]}, "needs a non-empty location"),
            (TaskKind.VQA, {"images": [{"location": ""}]}, "needs a non-empty location"),
            (
                TaskKind.VQA,
                {"images": [{"location": "pic.png", "media_type": 5}]},
                "needs a non-empty location and media_type",
            ),
            (TaskKind.TITLE, {"images": ["pic.png"]}, "needs a non-empty location"),
            (TaskKind.QA, {"id": 1}, "field 'id' must be a non-empty string"),
            (TaskKind.QA, {"answer": ["a"]}, "field 'answer' must be a non-empty string"),
            (TaskKind.QA, {}, "record id 'r' repeats the record on line 1"),
        ],
        ids=[
            "string-context",
            "non-text-passage",
            "non-text-multi-hop-sentence",
            "string-images",
            "image-without-location",
            "int-location",
            "empty-location",
            "int-media-type",
            "title-image-string",
            "int-id",
            "list-answer",
            "repeated-id",
        ],
    )
    def test_malformed_context_or_images_cite_line_number(self, tmp_path, kind, fields, message):
        # a record that would lose its passage, image or a field, or repeats an id, is rejected
        base = {"id": "r", "question": "q", "answer": "a", "text": "t", "title": "h"}
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(base) + "\n" + json.dumps({**base, **fields}) + "\n", encoding="utf-8"
        )
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(path, kind)
        assert excinfo.value.line == 2
        assert message in str(excinfo.value)

    def test_bundled_fixtures_parse(self):
        assert len(load_dataset(fixture_path("mini_qa.jsonl"), TaskKind.QA)) == 5
        assert len(load_dataset(fixture_path("mini_title.jsonl"), TaskKind.TITLE)) == 5
        assert (
            len(load_dataset(fixture_path("mini_category.jsonl"), TaskKind.CATEGORIZE))
            == 6
        )


class TestRecordAndTask:
    def test_record_requires_exactly_one_gold(self):
        with pytest.raises(InvariantError):
            EvalRecord(id="r", inputs=(), gold="x", gold_category=CategoryPair("a", "b"))
        with pytest.raises(InvariantError):
            EvalRecord(id="r", inputs=())
        with pytest.raises(InvariantError, match="^record id must be non-empty$"):
            EvalRecord(id="", inputs=(), gold="x")

    def test_build_task_restricts_actions_to_kind(self):
        record = EvalRecord(id="r", inputs=(), gold="x")
        task = build_task(record, TaskKind.TITLE)
        assert task.allowed_actions == frozenset({3})


class TestRunEval:
    def test_empty_dataset_rejected(self):
        setup = fixtures.qa_setup()
        with pytest.raises(InvariantError):
            run_eval([], TaskKind.QA, setup.engine, workers=1)

    def test_image_record_on_text_only_bindings_fails_before_any_record_runs(
        self, monkeypatch
    ):
        solved = []
        monkeypatch.setattr(engine, "solve", lambda task, *a, **k: solved.append(task.id))
        setup = load_setup(fixture_path("qa_eval_config.json"))
        records = load_dataset(fixture_path("mini_qa.jsonl"), TaskKind.QA)
        image = ContentItem.from_image("chart.png", "image/png")
        records[-1] = replace(records[-1], inputs=(*records[-1].inputs, image))
        with pytest.raises(ConfigError, match="supports_images on these bindings"):
            run_eval(records, TaskKind.QA, setup.engine, workers=1)
        assert solved == []

    def test_golden_qa_report_reproduced(self):
        setup = load_setup(fixture_path("qa_eval_config.json"))
        records = load_dataset(fixture_path("mini_qa.jsonl"), TaskKind.QA)
        report = run_eval(
            records,
            TaskKind.QA,
            setup.engine,
            record_scripts=setup.record_scripts,
            workers=fixtures.GOLDEN_WORKERS,
        )
        assert canonical.serialize(report) == fixture_path(
            "golden_qa_report.json"
        ).read_text(encoding="utf-8")

    def test_workers_do_not_change_the_report(self):
        setup = load_setup(fixture_path("qa_eval_config.json"))
        records = load_dataset(fixture_path("mini_qa.jsonl"), TaskKind.QA)
        reports = [
            canonical.serialize(
                run_eval(
                    records,
                    TaskKind.QA,
                    setup.engine,
                    record_scripts=setup.record_scripts,
                    workers=workers,
                )
            )
            for workers in (1, 4)
        ]
        assert reports[0] == reports[1]

    def test_pass_at_1_exactly_one_solve_per_record(self, monkeypatch):
        calls = []
        original = engine.solve

        def counting_solve(task, *args, **kwargs):
            calls.append(task.id)
            return original(task, *args, **kwargs)

        monkeypatch.setattr(engine, "solve", counting_solve)
        setup = load_setup(fixture_path("qa_eval_config.json"))
        records = load_dataset(fixture_path("mini_qa.jsonl"), TaskKind.QA)
        run_eval(
            records,
            TaskKind.QA,
            setup.engine,
            record_scripts=setup.record_scripts,
            workers=1,
        )
        assert sorted(calls) == sorted(r.id for r in records)
        assert len(calls) == len(records)

    @pytest.mark.parametrize(
        "qa_03_scripts",
        [
            # no per-record actor override: the shared actor script is
            # empty, so the run fails in its first action
            pytest.param(lambda scripts: {}, id="actor-fault"),
            # a planner reply with no plan block: the run fails before any
            # plan runs
            pytest.param(
                lambda scripts: {**scripts, UnitRole.PLANNER: MockScript.of("no plan").entries},
                id="planner-fault",
            ),
        ],
    )
    def test_record_failure_scored_zero_and_flagged(self, qa_03_scripts):
        setup = fixtures.qa_setup()
        scripts = dict(setup.record_scripts)
        scripts["qa-03"] = qa_03_scripts(scripts["qa-03"])
        records = load_dataset(fixture_path("mini_qa.jsonl"), TaskKind.QA)
        report = run_eval(
            records, TaskKind.QA, setup.engine, record_scripts=scripts, workers=1
        )
        scored = {r.id: r for r in report.per_record}
        failed = scored.pop("qa-03")
        assert failed.failed is True
        assert all(v == 0.0 for v in failed.scores.values())
        golden = canonical.deserialize(
            fixture_path("golden_qa_report.json").read_text(encoding="utf-8")
        )
        assert scored == {r.id: r for r in golden.per_record if r.id != "qa-03"}

    def test_one_malformed_live_reply_fails_only_its_record(self, monkeypatch):
        # the actor is bound to the HTTP backend; the substituted transport
        # answers each record from its fixture script, except qa-03, whose
        # first reply is not JSON
        setup = load_setup(fixture_path("qa_eval_config.json"))
        bindings = dict(setup.engine.role_bindings)
        bindings[UnitRole.ACTOR] = ProviderConfig(
            backend=Backend.HTTP_CHAT,
            model_name="live-actor",
            endpoint="https://example.invalid/v1/chat",
            api_key_env="TEST_PROVIDER_KEY",
        )
        monkeypatch.setenv("TEST_PROVIDER_KEY", "k")
        records = load_dataset(fixture_path("mini_qa.jsonl"), TaskKind.QA)
        replies = {r.id: list(fixtures.QA_ACTOR_SCRIPTS[r.id]) for r in records}
        lock = threading.Lock()

        def post(url, data, headers):
            parts = json.loads(data)["messages"][1]["content"]
            text = "\n".join(part.get("text", "") for part in parts)
            record_id = next(r.id for r in records if r.inputs[0].text in text)
            if record_id == "qa-03":
                return 200, b"<html>bad gateway</html>"
            with lock:
                answer = replies[record_id].pop(0)
            return 200, json.dumps({"choices": [{"message": {"content": answer}}]}).encode()

        monkeypatch.setattr(providers, "_post", post)
        report = run_eval(
            records,
            TaskKind.QA,
            replace(setup.engine, role_bindings=bindings),
            workers=fixtures.GOLDEN_WORKERS,
        )
        scored = {r.id: r for r in report.per_record}
        assert scored.pop("qa-03").failed is True
        golden = canonical.deserialize(
            fixture_path("golden_qa_report.json").read_text(encoding="utf-8")
        )
        assert scored == {r.id: r for r in golden.per_record if r.id != "qa-03"}

    def test_unexpected_error_fails_only_its_record(self, monkeypatch):
        original = engine.solve

        def solve(task, *args, **kwargs):
            if task.id == "qa-02":
                raise RuntimeError("unexpected")
            return original(task, *args, **kwargs)

        monkeypatch.setattr(engine, "solve", solve)
        setup = load_setup(fixture_path("qa_eval_config.json"))
        records = load_dataset(fixture_path("mini_qa.jsonl"), TaskKind.QA)
        report = run_eval(
            records,
            TaskKind.QA,
            setup.engine,
            record_scripts=setup.record_scripts,
            workers=fixtures.GOLDEN_WORKERS,
        )
        scored = {r.id: r for r in report.per_record}
        failed = scored.pop("qa-02")
        assert failed.failed is True
        assert all(v == 0.0 for v in failed.scores.values())
        golden = canonical.deserialize(
            fixture_path("golden_qa_report.json").read_text(encoding="utf-8")
        )
        assert scored == {r.id: r for r in golden.per_record if r.id != "qa-02"}

    def test_categorize_report_carries_disagreements(self):
        setup = load_setup(fixture_path("category_eval_config.json"))
        records = load_dataset(fixture_path("mini_category.jsonl"), TaskKind.CATEGORIZE)
        from socialagent.actor import load_taxonomy

        report = run_eval(
            records,
            TaskKind.CATEGORIZE,
            setup.engine,
            taxonomy=load_taxonomy(setup.taxonomy_path),
            record_scripts=setup.record_scripts,
            workers=2,
        )
        assert report.disagreements is not None
        level1 = report.disagreements["level1"]
        assert [(d.gold, d.predicted, d.count) for d in level1] == [
            ("politics", "science", 1)
        ]
        level2_pairs = {(d.gold, d.predicted) for d in report.disagreements["level2"]}
        assert ("football", "tennis") in level2_pairs

    def test_per_record_ordering_is_by_id(self):
        setup = load_setup(fixture_path("qa_eval_config.json"))
        records = load_dataset(fixture_path("mini_qa.jsonl"), TaskKind.QA)
        report = run_eval(
            records[::-1],
            TaskKind.QA,
            setup.engine,
            record_scripts=setup.record_scripts,
            workers=3,
        )
        ids = [r.id for r in report.per_record]
        assert ids == sorted(ids)


class TestEvaluateRecord:
    def test_prediction_extracted_from_matching_action(self):
        setup = fixtures.qa_setup()
        records = load_dataset(fixture_path("mini_qa.jsonl"), TaskKind.QA)
        outcome = evaluate_record(
            records[0], TaskKind.QA, setup.engine, record_scripts=setup.record_scripts
        )
        assert outcome.prediction == "Paris"
        assert outcome.failed is False
        assert outcome.scores["em"] == 1.0

    def test_categorize_run_without_a_category_pair_fails_its_record(self, monkeypatch):
        # a one-level taxonomy makes the run succeed with a bare level-1
        # label, which is no CategoryPair, so the record fails and scores zero
        setup = fixtures.category_setup()
        record = load_dataset(fixture_path("mini_category.jsonl"), TaskKind.CATEGORIZE)[2]
        actor = MockScript.of("CATEGORY: politics", "CATEGORY: politics").entries
        scripts = {record.id: {UnitRole.ACTOR: actor}}
        solved, responses = engine.solve, []

        def solve(*args, **kwargs):
            responses.append(solved(*args, **kwargs))
            return responses[-1]

        monkeypatch.setattr(engine, "solve", solve)
        outcome = evaluate_record(
            record,
            TaskKind.CATEGORIZE,
            setup.engine,
            taxonomy=CategoryTaxonomy(level1=("politics", "sport")),
            record_scripts=scripts,
        )
        [response] = responses
        assert response.error is None
        assert response.results[-1].structured == "politics"
        assert outcome.failed
        assert outcome.scores == {"l1_correct": 0.0, "l2_correct": 0.0}
