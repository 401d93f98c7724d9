"""End-to-end task solving: role bootstrap, the trials loop (reason, plan,
optimize, gate, criticize, refine), then per-action execution with a
feedback-and-retry pass for every action."""

from __future__ import annotations

from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from . import canonical, planner as planner_mod
from .actor import ActionResult, CategoryTaxonomy, ToolStore, act
from .core import (
    ActionSpec,
    ContentItem,
    EngineConfig,
    EnvironmentContext,
    Plan,
    PromptArtifact,
    Task,
    Transcript,
    UnitRole,
)
from .critic import Critique, PlanChoice, RefinedInstructions, criticize, refine
from .divergence import GateDecision, should_criticize
from .errors import (
    AgentError,
    BindingCollisionError,
    ConfigError,
    InvariantError,
    PlanParseError,
)
from .optimizer import Variable, optimize, resolved_value
from .providers import Provider, build_provider, invoke
from .reasoner import LOCAL_KINDS, reason

BOOTSTRAP_SYSTEM_ROLE = (
    "You write precise system-role descriptions for task-solving assistants."
)

@dataclass(frozen=True)
class RoleDescription:
    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise InvariantError("role description must be non-empty")


@dataclass(frozen=True)
class TrialView:
    """What one planning trial produced, for inspection and reporting; its
    position in ``TaskResponse.trial_views`` is its trial number."""

    plan_a_raw: str
    optimized_text: str
    gate: GateDecision | None = None
    critique: Critique | None = None
    refined: RefinedInstructions | None = None


@dataclass(frozen=True)
class TaskResponse:
    """One run's result: ``run_trials`` returns the plan it chose and its
    trial views; ``solve`` adds the action results and any ``AgentError`` the
    run raised. An action's fault keeps ``plan_used`` and the results before
    it, so ``plan_used.actions[len(results)]`` is the action that failed."""

    transcript: Transcript
    plan_used: Plan | None = None
    trial_views: tuple[TrialView, ...] = ()
    results: tuple[ActionResult, ...] = ()
    error: AgentError | None = None

    @property
    def failure(self) -> str | None:
        """The one wording of ``error``: ``str(error)``, after
        ``action <n> (<name>): `` if an action raised it."""
        if self.error is None:
            return None
        if self.plan_used is None:
            return str(self.error)
        n = len(self.results)
        return f"action {n + 1} ({self.plan_used.actions[n].name.value}): {self.error}"

    @property
    def trials_executed(self) -> int:
        return len(self.trial_views)

    @property
    def gate_decisions(self) -> tuple[GateDecision, ...]:
        return tuple(v.gate for v in self.trial_views if v.gate is not None)

    @property
    def critiques(self) -> tuple[Critique, ...]:
        return tuple(v.critique for v in self.trial_views if v.critique is not None)


# One provider instance per unit role, fresh for each run.
UnitSet = dict[UnitRole, Provider]


def check_config(
    config: EngineConfig, inputs: Iterable[ContentItem] = (), units: UnitSet | None = None
) -> None:
    """Every rule about a run's bindings, checked before any provider call:
    each unit role is bound (and has a provider in caller-supplied
    ``units``), the role-writer shares no model with another unit, and
    image inputs reach only bindings with image support. Every action of a
    run acts on the task's inputs, which go to the optimizer and the actor,
    and to the reasoner under a reflection strategy; the planning units see
    images only as text references."""
    bindings = config.role_bindings
    missing = [role.value for role in UnitRole if role not in bindings]
    if missing:
        raise ConfigError(f"missing role bindings: {', '.join(missing)}")
    missing = [role.value for role in UnitRole if units is not None and role not in units]
    if missing:
        raise ConfigError(f"units lack a provider for: {', '.join(missing)}")
    writer = bindings[UnitRole.ROLE_WRITER].model_name
    for role in UnitRole:
        if role is not UnitRole.ROLE_WRITER and bindings[role].model_name == writer:
            raise BindingCollisionError(
                f"role-writer model {writer!r} is also bound to {role.value}"
            )
    if all(item.image is None for item in inputs):
        return
    roles = (UnitRole.OPTIMIZER, UnitRole.ACTOR)
    if config.strategy.kind not in LOCAL_KINDS:
        roles = (UnitRole.REASONER, *roles)
    lacking = [role.value for role in roles if not bindings[role].supports_images]
    if lacking:
        raise ConfigError(
            f"image inputs need supports_images on these bindings: {', '.join(lacking)}"
        )


def build_units(config: EngineConfig) -> UnitSet:
    check_config(config)
    return {role: build_provider(cfg) for role, cfg in config.role_bindings.items()}


def bootstrap_role(task: Task, units: UnitSet, *, transcript: Transcript) -> RoleDescription:
    """One role-writer call generating the system role installed on every
    subsequent prompt of this run."""
    text = invoke(
        units[UnitRole.ROLE_WRITER],
        UnitRole.ROLE_WRITER,
        "bootstrap_role",
        BOOTSTRAP_SYSTEM_ROLE,
        (
            ContentItem.from_text(
                "Write a concise system-role description for an assistant that "
                "will solve the following task. Respond with the role text only."
            ),
            ContentItem.from_text(f"Task:\n{task.goal}"),
        ),
        transcript=transcript,
    )
    return RoleDescription(text=text.strip())


def _as_planning_segment(item: ContentItem) -> ContentItem:
    """Planning-stage view of one task input: image inputs become textual
    references so any text model can plan over them; the actor gets the
    real image content later."""
    if item.image is None:
        return item
    return ContentItem.from_text(
        f"[image input: {item.image.location} ({item.image.media_type})]"
    )


def create_task_prompt(
    task: Task, role_text: str, refined: RefinedInstructions | None = None
) -> PromptArtifact:
    """Deterministic prompt templating from the task's goal and inputs (and,
    on replan trials, the refiner's corrective instructions)."""
    segments = [ContentItem.from_text(task.goal)]
    segments.extend(_as_planning_segment(item) for item in task.inputs)
    if refined is not None:
        segments.append(
            ContentItem.from_text(
                f"Corrective instructions from plan review:\n{refined.instructions}"
            )
        )
    return PromptArtifact(system_role=role_text, segments=tuple(segments))


def create_action_prompt(
    spec: ActionSpec, inputs: tuple[ContentItem, ...], role_text: str
) -> PromptArtifact:
    """Deterministic prompt templating from one plan action: its
    instructions under ``Action instructions:``, then the task's ``inputs``.
    Reasoned, this is the whole of the action the actor and the optimizer
    see."""
    instructions = ContentItem.from_text(f"Action instructions:\n{spec.instructions}")
    return PromptArtifact(system_role=role_text, segments=(instructions, *inputs))


def run_trials(
    task: Task,
    config: EngineConfig,
    units: UnitSet,
    role: RoleDescription,
    *,
    transcript: Transcript,
) -> TaskResponse:
    """The planning trials loop. Each trial reasons, plans (from the previous
    trial's corrective instructions, if any) and optimizes. On non-final
    trials the divergence gate decides whether the critic and refiner run,
    feeding the next trial, or the trial returns its plan; the final trial
    always returns the best available plan, with the trial views."""
    views: list[TrialView] = []
    refined: RefinedInstructions | None = None
    for trial in range(config.trials):
        prompt = create_task_prompt(task, role.text, refined)
        reasoned = reason(prompt, config.strategy, units[UnitRole.REASONER], transcript=transcript)
        # every trial after the first follows a refinement
        operation = "replan" if trial else "plan"
        plan_a = planner_mod.plan(
            task, reasoned, units[UnitRole.PLANNER], transcript=transcript, operation=operation
        )
        optimized = optimize(
            Variable(value=plan_a.raw, role_note="plan under optimization"),
            reasoned,
            (task.goal,),
            config.tgd_iterations,
            units[UnitRole.OPTIMIZER],
            transcript=transcript,
        )
        optimized_text = resolved_value(optimized)
        try:
            plan_b = planner_mod.parse_plan(optimized_text, task.permitted_actions())
        except PlanParseError:
            plan_b = None

        best = plan_a if plan_b is None else plan_b
        if trial == config.trials - 1:
            views.append(TrialView(plan_a.raw, optimized_text))
            return TaskResponse(transcript, best, tuple(views))
        gate = should_criticize(
            plan_a.raw, optimized_text, units[UnitRole.CRITIC], config.theta, transcript=transcript
        )
        if not gate.activate or plan_b is None:
            # A gate pass, or an optimizer output that is no plan: run the
            # best available plan without a critique.
            views.append(TrialView(plan_a.raw, optimized_text, gate))
            return TaskResponse(transcript, best, tuple(views))
        critique = criticize(
            task,
            plan_a,
            plan_b,
            units[UnitRole.CRITIC],
            divergence=gate.divergence,
            system_role=role.text,
            transcript=transcript,
        )
        if not critique.actionable:
            views.append(TrialView(plan_a.raw, optimized_text, gate, critique))
            picked = plan_a if critique.selected is PlanChoice.PLAN_A else plan_b
            return TaskResponse(transcript, picked, tuple(views))
        refined = refine(
            task, critique, units[UnitRole.REFINER], system_role=role.text, transcript=transcript
        )
        views.append(TrialView(plan_a.raw, optimized_text, gate, critique, refined))
    # not reached: the final trial has no gate, so it returns above
    raise InvariantError(f"no plan to execute after {config.trials} trials")


def run_action(
    spec: ActionSpec,
    reasoned: PromptArtifact,
    task: Task,
    config: EngineConfig,
    units: UnitSet,
    tools: ToolStore | None,
    taxonomy: CategoryTaxonomy | None,
    *,
    transcript: Transcript,
) -> ActionResult:
    """One plan action on its reasoned prompt: act, optimize the response
    against ``task``'s goal and the action's instructions, then act again
    with the optimizer's feedback as revision context."""
    actor = units[UnitRole.ACTOR]
    first = act(spec, reasoned, tools, actor, taxonomy=taxonomy, transcript=transcript)
    optimized = optimize(
        Variable(first.answer, f"response for action {spec.action_id}"),
        reasoned,
        (task.goal, spec.instructions),
        config.tgd_iterations,
        units[UnitRole.OPTIMIZER],
        transcript=transcript,
    )
    revision = resolved_value(optimized)
    return act(
        spec, reasoned, tools, actor, taxonomy=taxonomy, revision=revision, transcript=transcript
    )


def execute_actions(
    plan: Plan,
    role: RoleDescription,
    config: EngineConfig,
    units: UnitSet,
    *,
    task: Task,
    tools: ToolStore | None = None,
    taxonomy: CategoryTaxonomy | None = None,
    transcript: Transcript,
) -> tuple[tuple[ActionResult, ...], AgentError | None]:
    """Reason every plan action on ``task``'s inputs and run it with
    ``run_action``, in plan order. The first action to fail aborts the
    rest; the results before it are returned with its ``AgentError``.

    Every action records all of its events into a transcript of its own,
    absorbed into ``transcript`` when the action ends or fails, so the
    transcript is in plan order (see ``Transcript``). An action's reasoning
    needs only the action, the task's inputs and the role, so with a
    reasoner provider that is neither the actor's nor the optimizer's, one
    worker thread reasons one action ahead: the first action is reasoned on
    the calling thread, and action i+1's reasoning runs while action i runs.
    Each provider still sees its requests in plan order; the reasoner's
    provider must accept one call running at the same time as an actor or
    optimizer call. When action i fails, the events of action i+1's
    reasoning are dropped, and the worker is joined before returning, so no
    provider call outlives this function. A one-action plan, or a shared
    reasoner provider, submits nothing and starts no thread."""
    actions = plan.actions
    reasoner = units[UnitRole.REASONER]
    records = tuple(Transcript() for _ in actions)

    def reasoning(index: int) -> PromptArtifact:
        prompt = create_action_prompt(actions[index], task.inputs, role.text)
        return reason(prompt, config.strategy, reasoner, transcript=records[index])

    ahead = reasoner is not units[UnitRole.ACTOR] and reasoner is not units[UnitRole.OPTIMIZER]
    results: list[ActionResult] = []
    pending = None
    with ThreadPoolExecutor(max_workers=1) as pool:
        for index, spec in enumerate(actions):
            try:
                reasoned = pending.result() if pending else reasoning(index)
                if ahead and index + 1 < len(actions):
                    pending = pool.submit(reasoning, index + 1)
                result = run_action(
                    spec, reasoned, task, config, units, tools, taxonomy, transcript=records[index]
                )
                results.append(result)
            except AgentError as exc:
                return tuple(results), exc
            finally:  # a failed action keeps the events it recorded
                transcript.absorb(records[index])
    return tuple(results), None


def solve(
    task: Task,
    env: EnvironmentContext,
    config: EngineConfig,
    *,
    units: UnitSet | None = None,
    tools: ToolStore | None = None,
    taxonomy: CategoryTaxonomy | None = None,
) -> TaskResponse:
    """Solve one task end to end. Every fault of the run itself comes back in
    ``error``; one before any plan runs leaves no plan, views or results.
    ``env`` is ignored; it stays because bench/ passes it."""
    check_config(config, task.inputs, units)
    if units is None:
        units = build_units(config)
    transcript = Transcript()
    try:
        role = bootstrap_role(task, units, transcript=transcript)
        planned = run_trials(task, config, units, role, transcript=transcript)
    except AgentError as exc:
        return TaskResponse(transcript, error=exc)
    results, error = execute_actions(
        planned.plan_used,
        role,
        config,
        units,
        task=task,
        tools=tools,
        taxonomy=taxonomy,
        transcript=transcript,
    )
    return replace(planned, results=results, error=error)


def run_report(task: Task, response: TaskResponse) -> str:
    """Canonical, timestamp-free run report suitable for golden-file
    comparison; timing is reported as logical event counts. A run that
    failed before any plan ran reports only its error and the partial
    transcript."""
    events = response.transcript.report()
    report = {"task_id": task.id, "error": response.failure, "transcript": events}
    if response.plan_used is not None:
        report |= {
            "plan": canonical.to_jsonable(response.plan_used),
            "results": [canonical.to_jsonable(r) for r in response.results],
            "gate_decisions": [canonical.to_jsonable(g) for g in response.gate_decisions],
            "critiques": [canonical.to_jsonable(c) for c in response.critiques],
            "trials_executed": response.trials_executed,
            "timing": {"transcript_events": len(events)},
        }
    return canonical.dumps(report)
