from __future__ import annotations

import json
import logging
import threading
from dataclasses import replace

import pytest

from conftest import engine_config, mock_config, mock_provider, operations
from socialagent import canonical, engine as engine_mod, fixtures
from socialagent.actor import CategoryTaxonomy
from socialagent.core import (
    DEFAULT_EARLY_STOP_MARKER,
    ActionSpec,
    ContentItem,
    EnvironmentContext,
    ReasoningStrategy,
    SamplingConfig,
    Task,
    Transcript,
    UnitRole,
)
from socialagent.critic import PlanChoice
from socialagent.engine import (
    RoleDescription,
    TaskResponse,
    UnitSet,
    bootstrap_role,
    build_units,
    create_action_prompt,
    execute_actions,
    run_action,
    run_report,
    run_trials,
    solve,
)
from socialagent.errors import (
    ActionParseError,
    BindingCollisionError,
    ConfigError,
    InvariantError,
    MockScriptExhaustedError,
    PlanParseError,
)
from socialagent.evaluation import TaskKind, load_dataset, load_setup, load_stores, run_eval
from socialagent.fixtures import ALT_QA_PLAN_BLOCK, QA_PLAN_BLOCK, REPLAN_BLOCK, fixture_path
from socialagent.planner import parse_plan, plan_block
from socialagent.protocol import ActionShape, action_block
from socialagent.providers import MockProvider, MockScript
from socialagent.reasoner import LOCAL_KINDS, reason

ENV = EnvironmentContext()


def qa_task() -> Task:
    return Task(
        id="t-qa",
        goal="Answer the question using the provided content.",
        inputs=(ContentItem.from_text("Question: what colour is the sky?"),),
        allowed_actions=frozenset({1}),
    )


class TestBootstrapRole:
    def test_role_writer_sharing_actor_model_rejected(self):
        config = engine_config(planner=(QA_PLAN_BLOCK,))
        bindings = dict(config.role_bindings)
        bindings[UnitRole.ROLE_WRITER] = mock_config("unit-actor", "role text")
        from dataclasses import replace

        config = replace(config, role_bindings=bindings)
        with pytest.raises(BindingCollisionError, match="actor"):
            build_units(config)

    def test_valid_config_generates_role_from_one_call(self):
        config = engine_config(role_writer=("You are a public-health content analyst.",))
        units = build_units(config)
        transcript = Transcript()
        role = bootstrap_role(qa_task(), units, transcript=transcript)
        assert role.text == "You are a public-health content analyst."
        assert transcript.signature() == (("role_writer", "bootstrap_role"),)

    def test_missing_binding_is_a_config_error(self):
        config = engine_config()
        bindings = dict(config.role_bindings)
        del bindings[UnitRole.REFINER]
        from dataclasses import replace

        with pytest.raises(ConfigError, match="refiner"):
            build_units(replace(config, role_bindings=bindings))

    def test_blank_role_fails_the_run_after_the_one_role_writer_call(self):
        setup = fixtures.scenario_setup("scenario_a")
        bindings = dict(setup.engine.role_bindings)
        writer = bindings[UnitRole.ROLE_WRITER]
        bindings[UnitRole.ROLE_WRITER] = replace(writer, script=MockScript.of("  \n "))
        config = replace(setup.engine, role_bindings=bindings)
        response = solve(fixtures.scenario_task(), ENV, config)
        assert isinstance(response.error, InvariantError)
        assert response.failure == "role description must be non-empty"
        assert response.plan_used is None and response.results == ()
        assert response.transcript.signature() == (("role_writer", "bootstrap_role"),)

    def test_check_config_reports_its_rules_in_order(self):
        """Missing bindings, then units lacking a provider, then the
        role-writer collision, then image support: each fault shows only
        once every earlier rule holds."""
        config = engine_config()
        bindings = dict(config.role_bindings)
        writer = bindings[UnitRole.ROLE_WRITER].model_name
        bindings[UnitRole.ACTOR] = replace(bindings[UnitRole.ACTOR], model_name=writer)
        colliding = replace(config, role_bindings=bindings)
        unbound = replace(
            colliding, role_bindings={UnitRole.ROLE_WRITER: bindings[UnitRole.ROLE_WRITER]}
        )
        units = build_units(config)
        del units[UnitRole.CRITIC]
        image = (ContentItem.from_image("photo.png", "image/png"),)
        steps = [
            (unbound, units, "missing role bindings: reasoner, planner, optimizer, critic, refiner, actor"),
            (colliding, units, "units lack a provider for: critic"),
            (colliding, None, "role-writer model 'role-scribe' is also bound to actor"),
            (config, None, "image inputs need supports_images on these bindings: optimizer, actor"),
        ]
        for cfg, given, message in steps:
            with pytest.raises(ConfigError, match=message):
                engine_mod.check_config(cfg, image, given)
        engine_mod.check_config(config)

    @pytest.mark.parametrize("lacking", ["config", "units"])
    def test_solve_with_units_rejects_an_unbound_role_before_any_call(self, lacking):
        config = fixtures.scenario_setup("scenario_b").engine
        units = build_units(config)
        if lacking == "config":
            bindings = dict(config.role_bindings)
            del bindings[UnitRole.ACTOR]
            config = replace(config, role_bindings=bindings)
        else:
            del units[UnitRole.ACTOR]
        with pytest.raises(ConfigError, match="actor"):
            solve(fixtures.scenario_task(), ENV, config, units=units)
        assert all(not p.call_log and not p.embed_log for p in units.values())

    def test_solve_with_empty_units_names_every_role_before_any_call(self, monkeypatch):
        def no_provider(binding):
            raise AssertionError("empty units must not fall back to built providers")

        monkeypatch.setattr(engine_mod, "build_provider", no_provider)
        config = fixtures.scenario_setup("scenario_b").engine
        message = (
            "units lack a provider for: "
            "role_writer, reasoner, planner, optimizer, critic, refiner, actor"
        )
        with pytest.raises(ConfigError) as excinfo:
            solve(fixtures.scenario_task(), ENV, config, units={})
        assert str(excinfo.value) == message


class TestSolveScenarios:
    def test_gate_pass_sequence_and_no_critic_events(self):
        setup = fixtures.scenario_setup("scenario_a")
        response = solve(fixtures.scenario_task(), ENV, setup.engine)
        assert response.transcript.signature() == fixtures.SCENARIO_SEQUENCES["scenario_a"]
        units_seen = {unit for unit, _ in response.transcript.signature()}
        assert "refiner" not in units_seen
        assert operations(response.transcript).count("criticize") == 0
        assert response.trials_executed == 1

    def test_gate_fire_runs_one_critic_refiner_replan_cycle(self):
        setup = fixtures.scenario_setup("scenario_b")
        response = solve(fixtures.scenario_task(), ENV, setup.engine)
        assert response.transcript.signature() == fixtures.SCENARIO_SEQUENCES["scenario_b"]
        assert operations(response.transcript).count("criticize") == 1
        assert operations(response.transcript).count("refine") == 1
        assert operations(response.transcript).count("replan") == 1
        assert response.trials_executed == 2

    def test_single_trial_never_evaluates_gate(self):
        setup = fixtures.scenario_setup("scenario_c")
        response = solve(fixtures.scenario_task(), ENV, setup.engine)
        assert response.transcript.signature() == fixtures.SCENARIO_SEQUENCES["scenario_c"]
        assert operations(response.transcript).count("embed") == 0
        assert response.gate_decisions == ()

    def test_no_planner_events_after_gate_pass(self):
        setup = fixtures.scenario_setup("scenario_a")
        response = solve(fixtures.scenario_task(), ENV, setup.engine)
        signature = response.transcript.signature()
        embed_positions = [i for i, (u, op) in enumerate(signature) if op == "embed"]
        later_planner = [
            (u, op)
            for u, op in signature[max(embed_positions) :]
            if u == "planner"
        ]
        assert later_planner == []

    def test_role_text_installed_on_all_subsequent_requests(self):
        setup = fixtures.scenario_setup("scenario_b")
        units = build_units(setup.engine)
        solve(fixtures.scenario_task(), ENV, setup.engine, units=units)
        role_text = "You are a careful analyst."
        for role, provider in units.items():
            for request, _ in provider.call_log:
                if role is UnitRole.ROLE_WRITER:
                    continue
                assert request.system_role == role_text, role

    def test_environment_reaches_each_planning_request_once(self):
        env = EnvironmentContext("A closed forum of astronomy posts.")
        setup = fixtures.scenario_setup("scenario_b")
        units = build_units(setup.engine)
        response = solve(fixtures.scenario_task(), env, setup.engine, units=units)
        assert response.transcript.signature() == fixtures.SCENARIO_SEQUENCES["scenario_b"]
        segment = ContentItem.from_text("Environment:\nA closed forum of astronomy posts.")
        requests = [
            request
            for role in (UnitRole.PLANNER, UnitRole.CRITIC, UnitRole.REFINER)
            for request, _ in units[role].call_log
        ]
        # plan, replan, criticize, refine
        assert len(requests) == 4
        assert [request.messages.count(segment) for request in requests] == [1] * 4

    def test_every_unit_sends_its_bound_sampling(self):
        # reflection, critic and refiner all run: scenario B's gate fires
        setup = fixtures.scenario_setup("scenario_b")
        creative = SamplingConfig.creative()
        bindings = {
            role: replace(binding, sampling=creative)
            for role, binding in setup.engine.role_bindings.items()
        }
        bindings[UnitRole.REASONER] = replace(
            bindings[UnitRole.REASONER], script=MockScript.of(*("trace", "reflection") * 3)
        )
        config = replace(
            setup.engine,
            role_bindings=bindings,
            strategy=ReasoningStrategy.cot_and_reflection(),
        )
        units = build_units(config)
        solve(fixtures.scenario_task(), ENV, config, units=units)
        for role in UnitRole:
            requests = [request for request, _ in units[role].call_log]
            assert requests, role
            assert {request.sampling for request in requests} == {creative}, role

    def test_trial_bound_honored(self):
        # trials=2: at most one critic+refiner pair even though gate fires
        setup = fixtures.scenario_setup("scenario_b")
        response = solve(fixtures.scenario_task(), ENV, setup.engine)
        assert operations(response.transcript).count("criticize") <= setup.engine.trials - 1
        assert operations(response.transcript).count("refine") <= setup.engine.trials - 1

    def test_replan_request_carries_corrective_instructions_once(self):
        setup = fixtures.scenario_setup("scenario_b")
        units = build_units(setup.engine)
        solve(fixtures.scenario_task(), ENV, setup.engine, units=units)
        plan_request, replan_request = (
            request.flattened() for request, _ in units[UnitRole.PLANNER].call_log
        )
        marker = "Corrective instructions from plan review:"
        assert marker not in plan_request
        assert replan_request.count(marker) == 1
        assert replan_request.count("Plan a single QA action citing the passage.") == 1


def far_apart(plan_a: str, plan_b: str) -> dict[str, tuple[float, ...]]:
    """Critic embeddings that put the two plans far apart, so the gate fires."""
    return {plan_a: (2.0, 0.0), plan_b: (0.0, 2.0)}


class TestArbitration:
    def test_executed_plan_is_optimizer_output_when_parseable(self):
        setup = fixtures.scenario_setup("scenario_b")
        response = solve(fixtures.scenario_task(), ENV, setup.engine)
        # the replan trial's optimizer emitted REPLAN_BLOCK; it parses, so it runs
        assert response.plan_used.raw == REPLAN_BLOCK

    def test_unparseable_optimizer_output_falls_back_to_planner(self):
        config = engine_config(
            planner=(QA_PLAN_BLOCK,),
            optimizer=("p", "e", "g", "no plan block at all", "p", "e", "g", "s"),
            actor=("ANSWER: one", "ANSWER: two"),
            trials=1,
            strategy=ReasoningStrategy(),
        )
        response = solve(qa_task(), ENV, config)
        assert response.plan_used.raw == QA_PLAN_BLOCK

    def test_unparseable_optimizer_output_mid_loop_skips_critic(self):
        config = engine_config(
            planner=(QA_PLAN_BLOCK,),
            optimizer=("p", "e", "g", "free prose rewrite", "p", "e", "g", "s"),
            actor=("ANSWER: one", "ANSWER: two"),
            critic_embeddings=far_apart(QA_PLAN_BLOCK, "free prose rewrite"),
            trials=2,
            theta=0.05,
            strategy=ReasoningStrategy(),
        )
        response = solve(qa_task(), ENV, config)
        assert operations(response.transcript).count("criticize") == 0
        assert response.plan_used.raw == QA_PLAN_BLOCK
        assert response.trials_executed == 1

    def test_non_actionable_verdict_b_executes_plan_b(self):
        config = engine_config(
            planner=(QA_PLAN_BLOCK,),
            optimizer=("p", "e", "g", ALT_QA_PLAN_BLOCK, "p", "e", "g", "s"),
            actor=("ANSWER: one", "ANSWER: two"),
            critic=("VERDICT: B\nFEEDBACK:",),
            critic_embeddings=far_apart(QA_PLAN_BLOCK, ALT_QA_PLAN_BLOCK),
            trials=2,
            theta=0.05,
            strategy=ReasoningStrategy(),
        )
        response = solve(qa_task(), ENV, config)
        assert response.plan_used.raw == ALT_QA_PLAN_BLOCK
        assert operations(response.transcript).count("refine") == 0
        assert response.critiques[0].selected is PlanChoice.PLAN_B

    def test_non_actionable_verdict_a_executes_plan_a(self):
        config = engine_config(
            planner=(QA_PLAN_BLOCK,),
            optimizer=("p", "e", "g", ALT_QA_PLAN_BLOCK, "p", "e", "g", "s"),
            actor=("ANSWER: one", "ANSWER: two"),
            critic=("VERDICT: A\nFEEDBACK:",),
            critic_embeddings=far_apart(QA_PLAN_BLOCK, ALT_QA_PLAN_BLOCK),
            trials=2,
            theta=0.05,
            strategy=ReasoningStrategy(),
        )
        response = solve(qa_task(), ENV, config)
        assert response.plan_used.raw == QA_PLAN_BLOCK


class TestActionLoop:
    def test_results_in_plan_order_and_counts(self):
        setup = fixtures.scenario_setup("scenario_a")
        response = solve(fixtures.scenario_task(), ENV, setup.engine)
        assert len(response.results) == len(response.plan_used.actions)
        assert response.results[0].answer == "the outer asteroid belt"

    def test_second_act_request_contains_optimizer_feedback_verbatim(self):
        config = engine_config(
            planner=(QA_PLAN_BLOCK,),
            optimizer=("p", "e", "g", QA_PLAN_BLOCK, "p2", "e2", "g2", "USE THE PASSAGE DATES"),
            actor=("ANSWER: one", "ANSWER: two"),
            trials=1,
            strategy=ReasoningStrategy(),
        )
        units = build_units(config)
        solve(qa_task(), ENV, config, units=units)
        actor_requests = units[UnitRole.ACTOR].call_log
        assert len(actor_requests) == 2
        assert "USE THE PASSAGE DATES" in actor_requests[1][0].flattened()
        assert "USE THE PASSAGE DATES" not in actor_requests[0][0].flattened()

    def test_per_action_error_marks_partial_results(self):
        # second action's scripts run dry: partial results plus the error
        two_action_block = plan_block([(1, "first"), (1, "second")], "r", "plan")
        config = engine_config(
            planner=(two_action_block,),
            optimizer=("p", "e", "g", two_action_block, "p", "e", "g", "s"),
            actor=("ANSWER: one", "ANSWER: final one"),
            trials=1,
            strategy=ReasoningStrategy(),
        )
        response = solve(qa_task(), ENV, config)
        assert len(response.results) == 1
        assert isinstance(response.error, MockScriptExhaustedError)
        assert response.failure == (
            "action 2 (qa): mock script for 'unit-actor' exhausted after 2 response(s)"
        )
        # the report of a run that planned holds every key, and only the
        # results of the actions before the failed one
        report = json.loads(run_report(qa_task(), response))
        assert sorted(report) == [
            "critiques",
            "error",
            "gate_decisions",
            "plan",
            "results",
            "task_id",
            "timing",
            "transcript",
            "trials_executed",
        ]
        assert report["results"] == [canonical.to_jsonable(response.results[0])]
        assert report["results"][0]["answer"] == "final one"

    def test_multi_action_fixture_reaches_the_knowledge_store(self):
        setup = load_setup(fixture_path("multi_action_config.json"))
        tools, taxonomy = load_stores(setup)
        units = build_units(setup.engine)
        response = solve(
            fixtures.plan_task(), ENV, setup.engine, units=units, tools=tools, taxonomy=taxonomy
        )
        assert response.error is None
        assert [r.action_id for r in response.results] == [1, 3, 4]
        with_facts = [
            reply
            for request, reply in units[UnitRole.ACTOR].call_log
            if "Photovoltaic cells convert sunlight" in request.flattened()
        ]
        # only the title action carries a KNOWLEDGE: line, on both of its calls
        assert [reply.split(":")[0] for reply in with_facts] == ["TITLE", "TITLE"]

    def test_every_action_sends_the_task_inputs_once_in_task_order(self):
        # a plan action holds no inputs: the engine gives each action the
        # task's, and each action's reasoner trace, actor and optimizer
        # forward requests carry them once, in task order
        task = Task(
            id="t-vqa",
            goal="Answer the question about the picture.",
            inputs=(
                ContentItem.from_text("Question: what flies over the field?"),
                ContentItem.from_image("kite.png", "image/png"),
            ),
            allowed_actions=frozenset({1, 2}),
        )
        config = engine_config(
            reasoner=("trace 1", "reflection 1", "trace 2", "reflection 2"),
            actor=("ANSWER: draft 1", "ANSWER: final 1", "ANSWER: draft 2", "ANSWER: final 2"),
            optimizer=("f1", "e1", "g1", "polish 1", "f2", "e2", "g2", "polish 2"),
            strategy=ReasoningStrategy.cot_and_reflection(),
        )
        bindings = {
            role: replace(binding, supports_images=True)
            for role, binding in config.role_bindings.items()
        }
        units = build_units(replace(config, role_bindings=bindings))
        transcript = Transcript()
        results, error = execute_actions(
            parse_plan(plan_block([(1, "answer"), (2, "describe")], "r", "p"), frozenset({1, 2})),
            RoleDescription(text="role"),
            config,
            units,
            task=task,
            transcript=transcript,
        )
        assert error is None and [r.answer for r in results] == ["final 1", "final 2"]

        def requests(role: UnitRole, operation: str) -> list:
            ops = [op for unit, op in transcript.signature() if unit == role.value]
            calls = zip(units[role].call_log, ops, strict=True)
            return [request for (request, _), op in calls if op == operation]

        # the trace of each trace/reflection pair, both acts of each action,
        # and each action's one forward pass
        traces = requests(UnitRole.REASONER, "reason")[::2]
        acts = requests(UnitRole.ACTOR, "act")
        forwards = requests(UnitRole.OPTIMIZER, "forward")
        assert (len(traces), len(acts), len(forwards)) == (2, 4, 2)
        for request in traces + acts + forwards:
            assert [m for m in request.messages if m in task.inputs] == list(task.inputs)


class TestMultimodalActions:
    VQA_BLOCK = plan_block([(2, "describe the picture")], "r", "plan")

    def vqa_task(self) -> Task:
        return Task(
            id="t-vqa",
            goal="Answer the question using the provided multimodal content.",
            inputs=(
                ContentItem.from_text("Question: what does the chart show?"),
                ContentItem.from_image("chart.png", "image/png"),
            ),
            allowed_actions=frozenset({2}),
        )

    def config(self, supports_images: bool):
        from dataclasses import replace

        config = engine_config(
            planner=(self.VQA_BLOCK,),
            optimizer=("p", "e", "g", self.VQA_BLOCK, "p", "e", "g", "s"),
            actor=("ANSWER: rainfall", "ANSWER: monthly rainfall"),
            trials=1,
            strategy=ReasoningStrategy(),
        )
        bindings = dict(config.role_bindings)
        bindings[UnitRole.ACTOR] = replace(
            bindings[UnitRole.ACTOR], supports_images=supports_images
        )
        # the action-loop optimizer receives the image-bearing action context
        bindings[UnitRole.OPTIMIZER] = replace(
            bindings[UnitRole.OPTIMIZER], supports_images=True
        )
        return replace(config, role_bindings=bindings)

    def test_image_inputs_flow_to_multimodal_actor(self):
        units = build_units(self.config(supports_images=True))
        response = solve(self.vqa_task(), ENV, self.config(True), units=units)
        assert response.results[0].answer == "monthly rainfall"
        first_request = units[UnitRole.ACTOR].call_log[0][0]
        assert any(m.image is not None for m in first_request.messages)

    def test_text_only_actor_rejects_image_action(self):
        config = self.config(supports_images=False)
        units = build_units(config)
        with pytest.raises(ConfigError, match="supports_images on these bindings: actor$"):
            solve(self.vqa_task(), ENV, config, units=units)
        assert not any(p.call_log or p.embed_log for p in units.values())


class TestFailuresAndReport:
    def test_plan_parse_failure_aborts_with_partial_transcript(self):
        config = engine_config(
            planner=("no structure",),
            trials=1,
            strategy=ReasoningStrategy(),
        )
        response = solve(qa_task(), ENV, config)
        assert isinstance(response.error, PlanParseError)
        assert response.failure == "no plan block found in planner output"
        assert response.plan_used is None and response.results == ()
        assert response.trials_executed == 0
        assert ("planner", "plan") in response.transcript.signature()
        # README: such a report holds only task_id, error and the transcript
        report = json.loads(run_report(qa_task(), response))
        assert sorted(report) == ["error", "task_id", "transcript"]

    def test_invalid_task_rejected_before_any_call(self):
        # a Task checks itself on every construction, replace() included,
        # so no invalid one can reach solve
        with pytest.raises(InvariantError, match="empty goal"):
            replace(fixtures.scenario_task(), goal="")

    def test_run_report_is_deterministic_and_timestamp_free(self):
        responses = []
        for _ in range(2):
            setup = fixtures.scenario_setup("scenario_a")
            responses.append(solve(fixtures.scenario_task(), ENV, setup.engine))
        reports = [run_report(fixtures.scenario_task(), r) for r in responses]
        assert reports[0] == reports[1]
        assert "timestamp" not in reports[0]

    def test_every_event_is_logged_once_with_its_digests(self, caplog):
        # the golden solve reasons with a local strategy, so its reasoner
        # events make no provider call and are logged all the same
        setup = load_setup(fixture_path("solve_config.json"))
        assert setup.engine.strategy.kind in LOCAL_KINDS
        task = canonical.load(fixture_path("example_task.json"))
        with caplog.at_level(logging.DEBUG, logger="socialagent"):
            events = solve(task, ENV, setup.engine).transcript.events
        assert ("reasoner", "reason") in {e.label() for e in events}
        assert {r.name for r in caplog.records} == {"socialagent.core"}
        info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert info == [
            f"{e.operation} request={e.request_digest} response={e.response_digest}"
            for e in events
        ]
        bodies = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(bodies) == len(events)
        for body, event in zip(bodies, events):
            assert body.startswith(f"{event.operation} request body:\n")


class TestExecuteActionsDirectly:
    def test_two_action_plan_produces_two_blocks_in_order(self):
        block = plan_block([(1, "first"), (3, "second")], "r", "plan")
        config = engine_config(
            optimizer=("p", "e", "g", "s", "p", "e", "g", "s"),
            actor=("ANSWER: one", "ANSWER: final one", "TITLE: t", "TITLE: final t"),
            trials=1,
            strategy=ReasoningStrategy(),
        )
        units = build_units(config)
        plan = parse_plan(block, frozenset({1, 3}))
        transcript = Transcript()
        results, error = execute_actions(
            plan,
            RoleDescription(text="role"),
            config,
            units,
            task=qa_task(),
            transcript=transcript,
        )
        assert error is None
        assert [r.action_id for r in results] == [1, 3]
        assert [r.answer for r in results] == ["final one", "final t"]
        assert transcript.signature() == action_block(ActionShape(a=1, k=1), reflection=False) * 2


class TestRunActionDirectly:
    """One plan action alone: act, optimize the response, act again, every
    event in the transcript it is given."""

    @pytest.mark.parametrize(
        "action_id,taxonomy,iterations,optimizer,actor,signature,revision,answer",
        [
            pytest.param(
                1,
                None,
                1,
                ("forward", "evaluation", "feedback", "use the passage"),
                ("ANSWER: draft", "ANSWER: final"),
                action_block(ActionShape(a=1, k=1), reflection=False)[1:],
                "use the passage",
                "final",
                id="qa",
            ),
            # the first step stops the loop, so the revision falls back to
            # the optimizer's history: the first act's answer
            pytest.param(
                4,
                fixtures.taxonomy(),
                2,
                ("forward", "evaluation", "feedback", DEFAULT_EARLY_STOP_MARKER),
                ("CATEGORY: sport", "CATEGORY: tennis", "CATEGORY: sport", "CATEGORY: football"),
                action_block(ActionShape(a=2, k=1), reflection=False)[1:],
                "sport / tennis",
                "sport / football",
                id="categorization-early-stop",
            ),
            pytest.param(
                1,
                None,
                1,
                ("forward", "evaluation"),
                ("ANSWER: draft",),
                (("actor", "act"), ("optimizer", "forward"), ("optimizer", "compute_loss")),
                None,
                None,
                id="optimizer-runs-out-at-gradient",
            ),
        ],
    )
    def test_acts_optimizes_and_acts_again(
        self, action_id, taxonomy, iterations, optimizer, actor, signature, revision, answer
    ):
        config = engine_config(
            optimizer=optimizer,
            actor=actor,
            tgd_iterations=iterations,
            strategy=ReasoningStrategy(),
        )
        units = build_units(config)
        task = qa_task()
        spec = ActionSpec(action_id, "handle the content")
        prompt = create_action_prompt(spec, task.inputs, "role")
        # the reasoner's event goes elsewhere, as execute_actions records it
        # before the action runs
        reasoner = units[UnitRole.REASONER]
        reasoned = reason(prompt, config.strategy, reasoner, transcript=Transcript())
        transcript = Transcript()
        args = (spec, reasoned, task, config, units, None, taxonomy)
        if answer is None:
            with pytest.raises(MockScriptExhaustedError):
                run_action(*args, transcript=transcript)
        else:
            assert run_action(*args, transcript=transcript).answer == answer
        assert transcript.signature() == signature
        # only the second act's requests, half of them when it ran, carry
        # the revision
        requests = [request.flattened() for request, _ in units[UnitRole.ACTOR].call_log]
        second = len(requests) // 2 if revision else len(requests)
        assert not any("Revision feedback" in text for text in requests[:second])
        feedback = f"Revision feedback from a prior attempt:\n{revision}\n"
        assert all(feedback in text for text in requests[second:])


class TestRunTrialsDirectly:
    def test_trial_views_capture_gate_and_critique(self):
        setup = fixtures.scenario_setup("scenario_b")
        units = build_units(setup.engine)
        transcript = Transcript()
        role = bootstrap_role(fixtures.scenario_task(), units, transcript=transcript)
        planned = run_trials(
            fixtures.scenario_task(), ENV, setup.engine, units, role, transcript=transcript
        )
        assert len(planned.trial_views) == 2
        first = planned.trial_views[0]
        assert first.gate is not None and first.gate.activate
        assert first.critique is not None and first.refined is not None
        assert planned.trial_views[1].gate is None
        # the response solve completes: a plan and its trials, no results yet
        assert planned.transcript is transcript and planned.plan_used is not None
        assert planned.results == () and planned.error is None

    def test_execute_actions_empty_plan_unconstructible(self):
        from socialagent.core import Plan

        with pytest.raises(InvariantError):
            Plan(actions=())


# A three-action plan (QA, flat categorization, title) under cot_and_reflection:
# each action makes two reasoner calls, its actor calls and one optimizer
# quartet.
THREE_ACTION_BLOCK = plan_block([(1, "answer"), (4, "classify"), (3, "headline")], "r", "plan")
FLAT_TAXONOMY = CategoryTaxonomy(level1=("news", "sport"))
REASONER_REPLIES = ("trace 1", "reflection 1", "trace 2", "reflection 2", "trace 3", "reflection 3")
ACTOR_REPLIES = (
    ("ANSWER: draft 1", "ANSWER: final 1"),
    ("CATEGORY: sport", "CATEGORY: news"),
    ("TITLE: draft 3", "TITLE: final 3"),
)
ACTION_SIGNATURE = action_block(ActionShape(a=1, k=1), reflection=True)
# Long enough for any host; only an engine that never overlaps the two calls
# waits this long, and then it fails rather than hangs.
MEETING_TIMEOUT_S = 10.0


# one forward/loss/gradient/step quartet per action
OPTIMIZER_REPLIES = tuple(
    (f"forward {i}", f"evaluation {i}", f"feedback {i}", f"polish {i}") for i in (1, 2, 3)
)


def _three_action_units(
    reasoner: tuple[str, ...] = REASONER_REPLIES,
    actor: tuple[str, ...] = sum(ACTOR_REPLIES, ()),
) -> UnitSet:
    return build_units(
        engine_config(reasoner=reasoner, actor=actor, optimizer=sum(OPTIMIZER_REPLIES, ()))
    )


def _run_three(units: UnitSet, block: str = THREE_ACTION_BLOCK) -> TaskResponse:
    """``execute_actions`` on ``block``, as the response ``solve`` builds of it."""
    plan = parse_plan(block, frozenset({1, 3, 4}))
    transcript = Transcript()
    results, error = execute_actions(
        plan,
        RoleDescription(text="role"),
        engine_config(strategy=ReasoningStrategy.cot_and_reflection()),
        units,
        task=qa_task(),
        taxonomy=FLAT_TAXONOMY,
        transcript=transcript,
    )
    return TaskResponse(transcript, plan, results=results, error=error)


class _MeetingMock(MockProvider):
    """A copy of ``provider`` whose ``meet_at``-th completion (counting from
    0) sets ``arrived`` and waits, bounded, for ``partner``; ``met`` records
    whether the partner arrived in time."""

    def __init__(self, provider, meet_at, arrived, partner):
        super().__init__(provider.config)
        self._meet_at = meet_at
        self._arrived = arrived
        self._partner = partner
        self._calls = 0
        self.met = None

    def complete(self, request, **kwargs):
        if self._calls == self._meet_at:
            self._arrived.set()
            self.met = self._partner.wait(MEETING_TIMEOUT_S)
        self._calls += 1
        return super().complete(request, **kwargs)


class _ThreadRecordingMock(MockProvider):
    """A copy of ``provider`` that records the thread of every completion."""

    def __init__(self, provider):
        super().__init__(provider.config)
        self.threads = []

    def complete(self, request, **kwargs):
        self.threads.append(threading.current_thread())
        return super().complete(request, **kwargs)


def _assert_shared_reasoner_runs_inline(monkeypatch, sharing: tuple[UnitRole, ...]):
    """Three actions whose reasoner shares one provider with the ``sharing``
    roles run inline, with the results and transcript of separate
    providers. The shared script is in sequential order, so any overlap
    would hand a reply to the wrong unit."""
    shared_roles = (UnitRole.REASONER, *sharing)
    calls = []  # (role, replies) in the order an inline run calls them
    for action, replies in enumerate(ACTOR_REPLIES):
        calls += [
            (UnitRole.REASONER, REASONER_REPLIES[2 * action : 2 * action + 2]),
            (UnitRole.ACTOR, replies[:1]),
            (UnitRole.OPTIMIZER, OPTIMIZER_REPLIES[action]),
            (UnitRole.ACTOR, replies[1:]),
        ]
    script = sum((replies for role, replies in calls if role in shared_roles), ())
    shared = mock_provider(*script, model_name="shared")
    separate = _run_three(_three_action_units())

    def no_thread(*args, **kwargs):
        raise AssertionError("a shared provider must not be reasoned ahead")

    monkeypatch.setattr(engine_mod.ThreadPoolExecutor, "submit", no_thread)
    units = _three_action_units()
    units.update(dict.fromkeys(shared_roles, shared))
    response = _run_three(units)
    assert response.error is None
    assert response.results == separate.results
    assert response.transcript.report() == separate.transcript.report()
    assert shared.remaining == 0


class TestReasonAhead:
    def test_next_action_reasons_while_the_current_one_acts(self):
        # action 2's trace call (the reasoner's third) and action 1's first
        # actor call each wait for the other: only an engine that runs them
        # at the same time gets both through without a timeout
        trace_started, act_started = threading.Event(), threading.Event()
        units = _three_action_units()
        units[UnitRole.REASONER] = _MeetingMock(
            units[UnitRole.REASONER], 2, trace_started, act_started
        )
        units[UnitRole.ACTOR] = _MeetingMock(units[UnitRole.ACTOR], 0, act_started, trace_started)
        response = _run_three(units)
        assert units[UnitRole.ACTOR].met is True
        assert units[UnitRole.REASONER].met is True
        assert response.error is None
        assert [r.answer for r in response.results] == ["final 1", "news", "final 3"]
        assert response.transcript.signature() == ACTION_SIGNATURE * 3

    def test_one_provider_for_reasoner_actor_and_optimizer_runs_inline(self, monkeypatch):
        _assert_shared_reasoner_runs_inline(monkeypatch, (UnitRole.ACTOR, UnitRole.OPTIMIZER))

    @pytest.mark.parametrize("role", [UnitRole.ACTOR, UnitRole.OPTIMIZER], ids=lambda r: r.value)
    def test_a_reasoner_shared_with_one_unit_runs_inline(self, monkeypatch, role):
        _assert_shared_reasoner_runs_inline(monkeypatch, (role,))

    def test_single_action_plan_runs_inline(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-action plan must not start a thread")

        monkeypatch.setattr(engine_mod.ThreadPoolExecutor, "submit", no_thread)
        setup = fixtures.scenario_setup("scenario_a")
        response = solve(fixtures.scenario_task(), ENV, setup.engine)
        assert response.error is None

    def test_failed_action_drops_the_prefetched_reasoning(self):
        actor = ACTOR_REPLIES[0] + ("no label here",)
        units = _three_action_units(actor=actor)
        response = _run_three(units)
        assert [r.action_id for r in response.results] == [1]
        assert isinstance(response.error, ActionParseError)
        assert response.failure == (
            "action 2 (categorization): no CATEGORY: line in output: 'no label here'"
        )
        # action 3 was reasoned ahead and its calls were spent before the
        # return, but none of its events reached the transcript
        assert units[UnitRole.REASONER].remaining == 0
        signature = response.transcript.signature()
        assert signature == ACTION_SIGNATURE + ACTION_SIGNATURE[:3]
        assert [unit for unit, _ in signature].count("reasoner") == 4

    def test_reasoner_failure_is_reported_at_its_own_action(self):
        units = _three_action_units(reasoner=REASONER_REPLIES[:4])
        response = _run_three(units)
        assert [r.action_id for r in response.results] == [1, 4]
        assert isinstance(response.error, MockScriptExhaustedError)
        assert response.failure == (
            "action 3 (title_generation): "
            "mock script for 'unit-reasoner' exhausted after 4 response(s)"
        )
        assert response.transcript.signature() == ACTION_SIGNATURE * 2

    def test_first_action_is_reasoned_on_the_calling_thread(self):
        units = _three_action_units()
        units[UnitRole.REASONER] = _ThreadRecordingMock(units[UnitRole.REASONER])
        response = _run_three(units)
        assert response.error is None
        assert response.transcript.signature() == ACTION_SIGNATURE * 3
        # action 1's trace and reflection calls
        assert units[UnitRole.REASONER].threads[:2] == [threading.current_thread()] * 2

    def test_reasoner_failure_at_the_first_action_spends_nothing_after_it(self):
        units = _three_action_units(reasoner=REASONER_REPLIES[:1])
        units[UnitRole.REASONER] = _ThreadRecordingMock(units[UnitRole.REASONER])
        response = _run_three(units)
        assert response.results == ()
        assert isinstance(response.error, MockScriptExhaustedError)
        assert response.failure == (
            "action 1 (qa): mock script for 'unit-reasoner' exhausted after 1 response(s)"
        )
        # the trace call is kept; the reflection call ran out of script
        assert response.transcript.signature() == (("reasoner", "reason"),)
        assert len(units[UnitRole.REASONER].threads) == 2
        assert units[UnitRole.ACTOR].remaining == len(sum(ACTOR_REPLIES, ()))


def _solve_bundled(config, task, monkeypatch):
    setup = load_setup(fixture_path(config))
    tools, taxonomy = load_stores(setup)
    units = build_units(setup.engine)
    task = canonical.load(fixture_path(task))
    response = solve(task, ENV, setup.engine, units=units, tools=tools, taxonomy=taxonomy)
    assert response.error is None
    return list(units.values())


def _plan_bundled(config, task, monkeypatch):
    setup = load_setup(fixture_path(config))
    units = build_units(setup.engine)
    task = canonical.load(fixture_path(task))
    transcript = Transcript()
    role = bootstrap_role(task, units, transcript=transcript)
    run_trials(task, ENV, setup.engine, units, role, transcript=transcript)
    return list(units.values())


def _eval_bundled(config, source, monkeypatch):
    dataset, kind = source
    built, build = [], engine_mod.build_provider

    def recording(binding):
        built.append(build(binding))
        return built[-1]

    monkeypatch.setattr(engine_mod, "build_provider", recording)
    setup = load_setup(fixture_path(config))
    tools, taxonomy = load_stores(setup)
    run_eval(
        load_dataset(fixture_path(dataset), kind),
        kind,
        setup.engine,
        tools=tools,
        taxonomy=taxonomy,
        record_scripts=setup.record_scripts,
        workers=1,
    )
    return built


@pytest.mark.parametrize(
    "run,config,source",
    [
        pytest.param(run, config, source, id=f"{run.__name__.strip('_')}-{config}")
        for run, config, source in (
            (_solve_bundled, "solve_config.json", "example_task.json"),
            (_solve_bundled, "multi_action_config.json", "plan_task.json"),
            (_solve_bundled, "scenario_a_config.json", "scenario_task.json"),
            (_solve_bundled, "scenario_b_config.json", "scenario_task.json"),
            (_solve_bundled, "scenario_c_config.json", "scenario_task.json"),
            (_plan_bundled, "plan_identical_config.json", "plan_task.json"),
            (_plan_bundled, "plan_divergent_config.json", "plan_task.json"),
            (_eval_bundled, "qa_eval_config.json", ("mini_qa.jsonl", TaskKind.QA)),
            (_eval_bundled, "title_eval_config.json", ("mini_title.jsonl", TaskKind.TITLE)),
            (
                _eval_bundled,
                "category_eval_config.json",
                ("mini_category.jsonl", TaskKind.CATEGORIZE),
            ),
        )
    ],
)
def test_no_request_carries_an_item_twice(monkeypatch, run, config, source):
    # every unit of every bundled run sends each content item at most once
    # per request, and every actor request states the action's instructions
    # once: the reasoned prompt holds them and the actor adds no copy
    providers = run(config, source, monkeypatch)
    repeats = [
        f"{provider.config.model_name} request {i}"
        for provider in providers
        for i, (request, _) in enumerate(provider.call_log)
        if len(set(request.messages)) != len(request.messages)
    ]
    label = "Action instructions:\n"

    def instruction_counts(request):
        # one count per labelled segment: how often its instructions occur
        texts = [m.text for m in request.messages if (m.text or "").startswith(label)]
        return [request.flattened().count(text.removeprefix(label)) for text in texts]

    restated = [
        f"actor request {i}"
        for provider in providers
        if provider.config.model_name == "unit-actor"
        for i, (request, _) in enumerate(provider.call_log)
        if instruction_counts(request) != [1]
    ]
    assert sum(len(provider.call_log) for provider in providers) > 0
    assert repeats == []
    assert restated == []
