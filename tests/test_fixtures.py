from __future__ import annotations

import shutil
from dataclasses import replace

import pytest

from socialagent import canonical, fixtures
from socialagent.core import UnitRole
from socialagent.errors import InvariantError
from socialagent.evaluation import TaskKind
from socialagent.fixtures import fixture_dir, fixture_path, fixture_integrity_check


def test_pristine_checkout_passes_integrity():
    report = fixture_integrity_check()
    assert report.ok, report.failures
    assert len(report.checked) >= 20
    assert {"multi_action_config.json", "golden_multi_action_solve_report.json"} <= set(
        report.checked
    )


def _stage_fixtures(tmp_path, monkeypatch):
    """Point the fixture module at a copy of the bundled fixture files."""
    staged = tmp_path / "fixtures"
    shutil.copytree(fixture_dir(), staged)
    monkeypatch.setattr(fixtures, "fixture_dir", lambda: staged)
    monkeypatch.setattr(fixtures, "fixture_path", lambda name: staged / name)
    return staged


def _snapshot(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_corrupted_golden_named_in_report(tmp_path, monkeypatch):
    staged = _stage_fixtures(tmp_path, monkeypatch)
    golden = staged / "golden_qa_report.json"
    golden.write_text(golden.read_text(encoding="utf-8") + "tampered\n", encoding="utf-8")
    report = fixture_integrity_check()
    assert not report.ok
    # no longer JSON, so no path is named
    assert report.failures == ("golden_qa_report.json: differs from its regeneration",)


def test_regenerating_exits_1_when_the_integrity_check_fails(tmp_path, monkeypatch, capsys):
    staged = _stage_fixtures(tmp_path, monkeypatch)
    assert fixtures.main() == 0
    before = _snapshot(staged)
    # datasets written one record short: every golden still regenerates from
    # them, but the record-count check fails
    full_text = fixtures._dataset_text
    monkeypatch.setattr(fixtures, "_dataset_text", lambda rows: full_text(rows[:-1]))
    assert fixtures.main() == 1
    out = capsys.readouterr().out
    assert "integrity: FAILED" in out
    assert "mini_qa.jsonl: record count mismatch" in out
    assert _snapshot(staged) == before


def test_a_stray_bundled_file_is_named(tmp_path, monkeypatch):
    staged = _stage_fixtures(tmp_path, monkeypatch)
    shutil.copyfile(staged / "qa_eval_config.json", staged / "old_config.json")
    report = fixture_integrity_check()
    assert report.failures == ("old_config.json: written by no regeneration",)


def test_datasets_are_the_synthetic_builder_output():
    # license hygiene: the bundled records are exactly the synthetic ones the
    # builders emit, never copies of any external corpus
    expected = {
        "mini_qa.jsonl": fixtures.QA_DATASET,
        "mini_title.jsonl": fixtures.TITLE_DATASET,
        "mini_category.jsonl": fixtures.CATEGORY_DATASET,
    }
    for name, rows in expected.items():
        committed = fixture_path(name).read_text(encoding="utf-8")
        assert committed == fixtures._dataset_text(rows), name


def test_regenerated_goldens_come_from_the_files_written(tmp_path, monkeypatch):
    shortened = (fixtures.QA_DATASET[:4], TaskKind.QA)
    monkeypatch.setitem(fixtures._DATASETS, "mini_qa.jsonl", shortened)
    fixtures.regenerate(tmp_path)
    golden = canonical.load(tmp_path / "golden_qa_report.json")
    assert golden.n == 4
    assert [record.id for record in golden.per_record] == ["qa-01", "qa-02", "qa-03", "qa-04"]


@pytest.mark.parametrize(
    "fault, error",
    [("config", "error: missing role bindings: actor"), ("arguments", "invalid choice: 'poetry'")],
)
def test_a_golden_whose_command_fails_names_the_golden_and_the_cli_error(
    tmp_path, monkeypatch, capsys, fault, error
):
    staged = _stage_fixtures(tmp_path, monkeypatch)
    before = _snapshot(staged)
    if fault == "config":  # the library rejects it, and the CLI exits 1
        setup = fixtures.qa_setup()
        bindings = dict(setup.engine.role_bindings)
        del bindings[UnitRole.ACTOR]
        unbound = replace(setup, engine=replace(setup.engine, role_bindings=bindings))
        monkeypatch.setitem(fixtures._SETUPS, "qa_eval_config.json", lambda: unbound)
    else:  # argparse rejects it, and the CLI exits 1 too
        args = fixtures._GOLDENS["golden_qa_report.json"].replace("--kind qa", "--kind poetry")
        monkeypatch.setitem(fixtures._GOLDENS, "golden_qa_report.json", args)
    assert fixtures.main() == 1
    out = capsys.readouterr().out
    assert out.startswith("regeneration failed: golden_qa_report.json: socialagent eval ")
    assert error in out
    assert _snapshot(staged) == before


def test_unknown_scenario_is_an_invariant_error():
    with pytest.raises(InvariantError, match="unknown scenario 'scenario_z'"):
        fixtures.scenario_setup("scenario_z")


def test_hand_edited_config_named_in_report(tmp_path, monkeypatch):
    # the goldens are regenerated from the builders' configs, not the bundled
    # ones, so only a comparison with the builders' output can see the edit
    staged = _stage_fixtures(tmp_path, monkeypatch)
    config = staged / "plan_identical_config.json"
    text = config.read_text(encoding="utf-8")
    assert text.count('"theta": 0.1,') == 1
    config.write_text(text.replace('"theta": 0.1,', '"theta": 0.2,'), encoding="utf-8")
    report = fixture_integrity_check()
    assert not report.ok
    assert report.failures == (
        "plan_identical_config.json: differs from its regeneration at value.engine.theta",
    )


def test_edited_golden_value_named_by_its_json_path(tmp_path, monkeypatch):
    staged = _stage_fixtures(tmp_path, monkeypatch)
    golden = staged / "golden_solve_report.json"
    text = golden.read_text(encoding="utf-8")
    assert text.count('"seq": 3,') == 1
    golden.write_text(text.replace('"seq": 3,', '"seq": 30,'), encoding="utf-8")
    assert fixture_integrity_check().failures == (
        "golden_solve_report.json: differs from its regeneration at transcript[3].seq",
    )



def _edit_json(path, edit):
    data = canonical.parse_text(path.read_bytes(), "fixture")
    edit(data)
    path.write_text(canonical.dumps(data), encoding="utf-8")


def test_a_key_on_one_side_only_is_named(tmp_path, monkeypatch):
    # a golden that carries a key the solve report does not write
    staged = _stage_fixtures(tmp_path, monkeypatch)
    _edit_json(
        staged / "golden_solve_report.json",
        lambda report: report["gate_decisions"][0].update(activate=False),
    )
    assert fixture_integrity_check().failures == (
        "golden_solve_report.json: differs from its regeneration at gate_decisions[0].activate",
    )


def test_lists_of_different_lengths_are_named_from_the_shorter_ones_end(tmp_path, monkeypatch):
    staged = _stage_fixtures(tmp_path, monkeypatch)
    _edit_json(staged / "golden_solve_report.json", lambda report: report["transcript"].pop())
    assert fixture_integrity_check().failures == (
        "golden_solve_report.json: differs from its regeneration at transcript[15:]",
    )


def test_a_missing_bundled_file_is_named_with_its_read_error(tmp_path, monkeypatch):
    staged = _stage_fixtures(tmp_path, monkeypatch)
    (staged / "taxonomy.json").unlink()
    assert fixture_integrity_check().failures == (
        f"taxonomy.json: [Errno 2] No such file or directory: '{staged / 'taxonomy.json'}'",
    )


def test_a_file_that_matches_its_regeneration_but_does_not_load_is_named(tmp_path, monkeypatch):
    # read as the wrong kind, the QA dataset still regenerates byte for byte
    # (its golden's command names its own kind), but it no longer loads
    _stage_fixtures(tmp_path, monkeypatch)
    monkeypatch.setitem(
        fixtures._DATASETS, "mini_qa.jsonl", (fixtures.QA_DATASET, TaskKind.TITLE)
    )
    assert fixture_integrity_check().failures == (
        "mini_qa.jsonl: line 1: missing field (one of: text, section_text)",
    )


def test_a_canonical_file_that_does_not_load_gives_the_loaders_message(tmp_path):
    path = tmp_path / "gate.json"
    value = {"activate": False, "divergence": 0.0, "theta": 0.1}
    path.write_text(canonical.dumps({"kind": "GateDecision", "value": value}), encoding="utf-8")
    assert (
        fixtures._load_failure(path) == "GateDecision: unknown fields ['activate'] for GateDecision"
    )
