"""Multimodal social-content analysis agent: a task-solving engine that
coordinates reasoner, planner, optimizer, critic, refiner, and actor units
over pluggable model providers."""

from . import canonical
from .actor import (
    ActionResult,
    CategoryPair,
    CategoryTaxonomy,
    ToolEntry,
    ToolStore,
    act,
    load_taxonomy,
    load_toolstore,
    lookup,
)
from .core import (
    ActionName,
    ActionSpec,
    ContentItem,
    EngineConfig,
    EnvironmentContext,
    ImageRef,
    Plan,
    PromptArtifact,
    ReasoningStrategy,
    SamplingConfig,
    StrategyKind,
    Task,
    Transcript,
    TranscriptEvent,
    UnitRole,
)
from .critic import Critique, PlanChoice, RefinedInstructions, criticize, parse_critique, refine
from .divergence import (
    Distribution,
    EmbeddingVector,
    GateDecision,
    jsd,
    should_criticize,
    to_distribution,
)
from .engine import (
    RoleDescription,
    TaskResponse,
    TrialView,
    UnitSet,
    bootstrap_role,
    build_units,
    execute_actions,
    run_report,
    run_trials,
    solve,
)
from .errors import AgentError
from .evaluation import (
    DisagreementEntry,
    EvalRecord,
    MetricReport,
    RecordScore,
    RunSetup,
    TaskKind,
    load_dataset,
    run_eval,
)
from .optimizer import (
    GradientNote,
    Variable,
    compute_loss,
    forward,
    gradient,
    optimize,
    resolved_value,
    step,
)
from .planner import parse_plan, plan
from .providers import (
    Backend,
    MockProvider,
    MockScript,
    MockScriptEntry,
    ProviderConfig,
    ProviderRequest,
    ProviderResponse,
    build_provider,
)
from .reasoner import COT_PHRASE, REFLECTION_INSTRUCTION, reason

serialize = canonical.serialize
deserialize = canonical.deserialize

__version__ = "0.1.0"
