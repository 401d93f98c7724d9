"""Loading a generated workload through the library's own loaders, as the
CLI does. Shared by the timed process and the set-up probe."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from socialagent import canonical, evaluation
from socialagent.actor import CategoryTaxonomy, load_taxonomy
from socialagent.core import Task
from socialagent.evaluation import EvalRecord, RunSetup, TaskKind


@dataclass
class Inputs:
    taxonomy: CategoryTaxonomy
    setups: dict[str, RunSetup] = field(default_factory=dict)
    tasks: list[Task] = field(default_factory=list)
    datasets: dict[str, list[EvalRecord]] = field(default_factory=dict)


def load(workload: str, workdir: Path) -> Inputs:
    if workload == "eval-batch":
        setups = {
            kind.value: evaluation.load_setup(workdir / f"{kind.value}_setup.json")
            for kind in (TaskKind.QA, TaskKind.TITLE, TaskKind.CATEGORIZE)
        }
        datasets = {
            kind: evaluation.load_dataset(workdir / f"{kind}.jsonl", TaskKind(kind))
            for kind in setups
        }
        taxonomy = load_taxonomy(setups["categorize"].taxonomy_path)
        return Inputs(taxonomy, setups=setups, datasets=datasets)
    setup = evaluation.load_setup(workdir / "setup.json")
    lines = (workdir / "tasks.jsonl").read_text(encoding="utf-8").splitlines()
    tasks = [canonical.from_jsonable(json.loads(line), Task) for line in lines]
    return Inputs(load_taxonomy(setup.taxonomy_path), setups={"solve": setup}, tasks=tasks)
