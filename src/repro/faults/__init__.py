"""repro.faults: deterministic fault injection, supervision, and recovery.

The package has four pieces, layered so nothing here imports the trainers
or a concrete backend (the runtime imports *us*):

* :mod:`~repro.faults.plan` — declarative, seeded :class:`FaultPlan`
  (learner crashes, PS-shard crashes, stragglers, dropped/delayed PS
  replies) that both backends execute identically, plus the
  :class:`RetryPolicy` for PS request/reply backoff.
* :mod:`~repro.faults.supervisor` — shared-memory liveness block, polling
  barrier and heartbeat thread that give the multiprocessing backend fast
  failure detection.
* :mod:`~repro.faults.checkpoint` — :class:`Checkpoint` snapshots and the
  memory/directory stores behind ``repro run --resume`` and elastic
  restart.
* :mod:`~repro.faults.context` / :mod:`~repro.faults.recovery` — the
  per-run :class:`FaultContext` (plan + recovery policy + store) and the
  ``elastic`` restart loop.
"""

from .checkpoint import (
    Checkpoint,
    CheckpointStore,
    DirCheckpointStore,
    MemoryCheckpointStore,
    open_store,
)
from .context import (
    RECOVERY_POLICIES,
    FaultContext,
    resolve_fault_context,
    use_faults,
)
from .plan import Fault, FaultPlan, RetryPolicy, parse_faults
from .recovery import elastic_train

__all__ = [
    "Fault",
    "FaultPlan",
    "RetryPolicy",
    "parse_faults",
    "FaultContext",
    "use_faults",
    "resolve_fault_context",
    "RECOVERY_POLICIES",
    "Checkpoint",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "DirCheckpointStore",
    "open_store",
    "elastic_train",
]
