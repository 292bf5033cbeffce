"""Result records shared by every solve path."""

from dataclasses import dataclass, field

import numpy as np

STATUS_OK = "ok"
STATUS_TIME_LIMIT = "time_limit"
STATUS_CAP = "cap_exceeded"


@dataclass
class WorkingSet:
    """Scenario indices enforced as rows at the end of a solve."""

    scenario_indices: list = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.scenario_indices)) != len(self.scenario_indices):
            raise ValueError("working-set scenario indices must be distinct")

    def __len__(self):
        return len(self.scenario_indices)

    def copy(self) -> "WorkingSet":
        return WorkingSet(list(self.scenario_indices))


@dataclass
class SolveReport:
    """One method run: solution, bookkeeping counters, and training stats.
    ``lp_solves`` counts master solves, a row generation loop as one (for
    exact-mip and socp: the LP solves of their search).  ``mip_nodes``
    counts the nodes of the branch-and-bound runs actually made: a master
    solve skipped after a rowless removal adds none."""

    method: str
    x: np.ndarray
    objective: float
    working_set: WorkingSet
    lp_solves: int
    mip_nodes: int
    wall_time: float
    train_violations: int
    seed: int | None = None
    status: str = STATUS_OK

    def __post_init__(self):
        if self.lp_solves < 0 or self.mip_nodes < 0:
            raise ValueError("solver counters must be non-negative")
