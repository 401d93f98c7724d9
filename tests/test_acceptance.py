"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import pytest

from conftest import mock_provider, operations
from reference_metrics import ref_bleu4, ref_jsd_base2, ref_rouge_l
from socialagent import engine, fixtures, metrics
from socialagent.cli import EXIT_OK, main
from socialagent.core import (
    ActionSpec,
    ContentItem,
    EnvironmentContext,
    PromptArtifact,
    ReasoningStrategy,
    StrategyKind,
    Transcript,
    UnitRole,
)
from socialagent.divergence import Distribution, jsd
from socialagent.errors import ActionParseError, BindingCollisionError
from socialagent.fixtures import fixture_path
from socialagent.optimizer import Variable, optimize
from socialagent.protocol import optimizer_block
from socialagent.reasoner import COT_PHRASE, REFLECTION_INSTRUCTION, reason


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s (budget {budget_seconds}s)"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s < {budget_seconds:.0f}s)")


def random_distribution(rng: random.Random, dim: int) -> Distribution:
    weights = [rng.random() + 1e-12 for _ in range(dim)]
    total = sum(weights)
    values = [w / total for w in weights]
    values[-1] = 1.0 - sum(values[:-1])
    return Distribution(tuple(values))


def test_criterion_1_jsd_correctness():
    with criterion(1, "JSD correctness", 5.0):
        rng = random.Random(0xD1CE)
        for _ in range(1000):
            dim = rng.randint(2, 512)
            p = random_distribution(rng, dim)
            q = random_distribution(rng, dim)
            value = jsd(p, q)
            reference = ref_jsd_base2(list(p.probabilities), list(q.probabilities))
            assert abs(value - reference) <= 1e-9
            assert abs(value - jsd(q, p)) <= 1e-12  # symmetry
            assert 0.0 <= value <= 1.0  # base-2 bounds
            assert jsd(p, p) == 0.0  # exact identity
        hand = jsd(Distribution((1.0, 0.0)), Distribution((0.5, 0.5)))
        assert abs(hand - 0.311278) <= 1e-6


def test_criterion_2_algorithm_transcript_conformance():
    with criterion(2, "protocol transcript conformance", 5.0):
        task = fixtures.scenario_task()
        for name in ("scenario_a", "scenario_b", "scenario_c"):
            setup = fixtures.scenario_setup(name)
            response = engine.solve(task, EnvironmentContext(), setup.engine)
            committed = json.loads(
                fixture_path(f"{name}_sequence.json").read_text(encoding="utf-8")
            )
            reference = tuple(tuple(pair) for pair in committed["sequence"])
            assert response.transcript.signature() == reference, name
            if name == "scenario_a":
                assert operations(response.transcript).count("criticize") == 0
                assert operations(response.transcript).count("refine") == 0
            if name == "scenario_b":
                assert operations(response.transcript).count("criticize") == 1
                assert operations(response.transcript).count("refine") == 1
                assert response.trials_executed == 2
            if name == "scenario_c":
                assert operations(response.transcript).count("embed") == 0


def test_criterion_3_tgd_loop_contract():
    with criterion(3, "textual-gradient-descent loop contract", 5.0):
        context = PromptArtifact(
            system_role="s", segments=(ContentItem.from_text("ctx"),)
        )
        for k in (1, 2, 3):
            script = []
            for i in range(k):
                script += [f"p{i}", f"e{i}", f"g{i}", f"v{i + 1}"]
            provider = mock_provider(*script)
            from socialagent.core import Transcript

            transcript = Transcript()
            result = optimize(
                Variable("v0"),
                context,
                (),
                k,
                provider,
                transcript=transcript,
            )
            assert len(provider.call_log) == 4 * k
            assert transcript.signature() == optimizer_block(k)
            assert result.history == ("v0",) + tuple(f"v{i + 1}" for i in range(k - 1))
        # early stop: second of three budgeted iterations emits the marker
        script = ["p0", "e0", "g0", "v1", "p1", "e1", "g1", "NO_FURTHER_IMPROVEMENT"]
        provider = mock_provider(*script)
        result = optimize(Variable("v0"), context, (), 3, provider, transcript=Transcript())
        assert len(provider.call_log) == 8
        assert result.history == ("v0", "v1")


def test_criterion_4_metric_oracles():
    with criterion(4, "metric oracles", 10.0):
        from test_metrics import BLEU_ROUGE_FIXTURE, OVERLAP_CASES

        assert len(OVERLAP_CASES) >= 20
        for pred, gold, em, f1, p, r in OVERLAP_CASES:
            assert metrics.exact_match(pred, gold) == em
            scores = metrics.token_f1(pred, gold)
            assert scores.f1 == pytest.approx(f1, abs=1e-12)
            assert scores.precision == pytest.approx(p, abs=1e-12)
            assert scores.recall == pytest.approx(r, abs=1e-12)
        # includes the 0.8 F1 case
        assert metrics.token_f1("eiffel tower paris", "the eiffel tower").f1 == (
            pytest.approx(0.8, abs=1e-12)
        )

        assert len(BLEU_ROUGE_FIXTURE) == 10
        for pred, gold in BLEU_ROUGE_FIXTURE:
            assert metrics.bleu4(pred, gold) == pytest.approx(
                ref_bleu4(pred, gold), abs=1e-6
            )
            rouge = metrics.rouge_l(pred, gold)
            expected = ref_rouge_l(pred, gold)
            assert rouge.f1 == pytest.approx(expected[0], abs=1e-6)
            assert rouge.precision == pytest.approx(expected[1], abs=1e-6)
            assert rouge.recall == pytest.approx(expected[2], abs=1e-6)

        # 3-class constructed confusion, hand-computed per-class oracle
        golds = [("a", "_")] * 2 + [("b", "_")] * 2 + [("c", "_")] * 2
        preds = [("a", "_"), ("a", "_"), ("a", "_"), ("b", "_"), ("c", "_"), ("b", "_")]
        level = metrics.hierarchical_scores(preds, golds)["level1"]
        assert level.f1 == pytest.approx((0.8 + 0.5 + 2 / 3) / 3, abs=1e-12)
        assert level.precision == pytest.approx((2 / 3 + 0.5 + 1.0) / 3, abs=1e-12)
        assert level.recall == pytest.approx(level.accuracy, abs=1e-12)


def test_criterion_5_two_level_categorization_safety():
    with criterion(5, "two-level categorization safety", 5.0):
        from socialagent.actor import CategoryTaxonomy, act

        reasoned = PromptArtifact(
            system_role="s", segments=(ContentItem.from_text("content"),)
        )
        spec = ActionSpec(4, "Classify the content.")
        rng = random.Random(0xCA7)
        alphabet = "abcdefghijklmnop"
        for _ in range(100):
            n1 = rng.randint(1, 5)
            level1 = [f"top-{alphabet[i]}" for i in range(n1)]
            level2 = {
                name: tuple(
                    f"{name}-child-{j}" for j in range(rng.randint(1, 4))
                )
                for name in level1
            }
            taxonomy = CategoryTaxonomy(level1=tuple(level1), level2=level2)
            parent = rng.choice(level1)
            child = rng.choice(list(taxonomy.children(parent)))
            provider = mock_provider(f"CATEGORY: {parent}", f"CATEGORY: {child}")
            pair = act(
                spec, reasoned, None, provider, taxonomy=taxonomy, transcript=Transcript()
            ).structured
            assert pair.level2 in taxonomy.children(pair.level1)

            # non-child outputs are rejected whenever another parent's child
            # (or an unknown label) comes back in stage two
            other_children = [
                c
                for name in level1
                if name != parent
                for c in taxonomy.children(name)
            ] + ["not-a-category"]
            bad = rng.choice(other_children)
            provider = mock_provider(f"CATEGORY: {parent}", f"CATEGORY: {bad}")
            with pytest.raises(ActionParseError):
                act(spec, reasoned, None, provider, taxonomy=taxonomy, transcript=Transcript())


def test_criterion_6_end_to_end_golden_reports(tmp_path, capsys):
    with criterion(6, "end-to-end golden evaluation reports", 10.0):
        for kind in ("qa", "title", "category"):
            golden = f"golden_{kind}_report.json"
            out = tmp_path / golden
            assert main([*fixtures.golden_argv(golden), "--out", str(out)]) == EXIT_OK
            fresh = out.read_bytes()
            assert fresh == fixture_path(golden).read_bytes(), f"{kind} report differs"
        # aggregates follow the 0-100 single-attempt convention
        report = json.loads(fixture_path("golden_qa_report.json").read_text())
        assert report["value"]["aggregates"]["EM"] == 40.0
        capsys.readouterr()  # swallow the human tables


def test_criterion_7_role_isolation():
    with criterion(7, "role isolation and role propagation", 5.0):
        from dataclasses import replace

        setup = fixtures.scenario_setup("scenario_b")
        # binding the role-writer to another unit's model is rejected
        for other in (
            UnitRole.REASONER,
            UnitRole.PLANNER,
            UnitRole.OPTIMIZER,
            UnitRole.CRITIC,
            UnitRole.REFINER,
            UnitRole.ACTOR,
        ):
            bindings = dict(setup.engine.role_bindings)
            bindings[UnitRole.ROLE_WRITER] = replace(
                bindings[UnitRole.ROLE_WRITER],
                model_name=bindings[other].model_name,
            )
            bad = replace(setup.engine, role_bindings=bindings)
            with pytest.raises(BindingCollisionError):
                engine.solve(fixtures.scenario_task(), EnvironmentContext(), bad)

        # the generated role text is the system role on 100% of subsequent
        # chat requests (the bootstrap call itself precedes the role)
        units = engine.build_units(setup.engine)
        engine.solve(
            fixtures.scenario_task(), EnvironmentContext(), setup.engine, units=units
        )
        role_text = "You are a careful analyst."
        checked = 0
        for role, provider in units.items():
            if role is UnitRole.ROLE_WRITER:
                continue
            for request, _ in provider.call_log:
                assert request.system_role == role_text
                checked += 1
        assert checked > 0


def test_criterion_8_reasoner_strategy_contract():
    with criterion(8, "reasoner strategy contract", 5.0):
        prompt = PromptArtifact(
            system_role="s", segments=(ContentItem.from_text("the goal"),)
        )
        expected_calls = {
            StrategyKind.NONE: 0,
            StrategyKind.FEW_SHOT: 0,
            StrategyKind.ZERO_SHOT_COT: 0,
            StrategyKind.SELF_REFLECTION: 2,
            StrategyKind.COT_AND_REFLECTION: 2,
        }
        for kind, count in expected_calls.items():
            examples = (("q", "a"),) if kind is StrategyKind.FEW_SHOT else ()
            strategy = ReasoningStrategy(kind, examples)
            provider = mock_provider("trace T", "reflection R")
            result = reason(prompt, strategy, provider, transcript=Transcript())
            assert len(provider.call_log) == count, kind
            if count == 2:
                # trace request carries the CoT phrase; the reflection request
                # carries the reflection instruction, both verbatim
                assert COT_PHRASE in provider.call_log[0][0].flattened()
                assert REFLECTION_INSTRUCTION in provider.call_log[1][0].flattened()
            if kind is StrategyKind.ZERO_SHOT_COT:
                assert result.text_segments()[-1] == COT_PHRASE

        # downstream consumption: with the CoT strategy the exact phrase
        # reaches the planner request of a scripted run
        setup = fixtures.scenario_setup("scenario_a")
        units = engine.build_units(setup.engine)
        engine.solve(
            fixtures.scenario_task(), EnvironmentContext(), setup.engine, units=units
        )
        planner_request = units[UnitRole.PLANNER].call_log[0][0].flattened()
        assert COT_PHRASE in planner_request
