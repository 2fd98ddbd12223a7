"""Ambient fault/recovery configuration, mirroring ``use_backend``.

A :class:`FaultContext` bundles everything fault-related a run needs: the
:class:`~repro.faults.plan.FaultPlan` to execute, which recovery policy to
apply when a learner dies, where checkpoints go, how often to write them,
and whether to resume from the latest one.  Trainers pick it up either
explicitly (``fault_ctx=``) or ambiently via :func:`use_faults` — the CLI
route::

    with use_faults(FaultContext(plan=FaultPlan.parse("crash:learner=2,step=40"),
                                 recovery="elastic")):
        run_experiment("fig2", ...)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from .checkpoint import CheckpointStore, open_store
from .plan import FaultPlan

__all__ = ["FaultContext", "use_faults", "resolve_fault_context", "RECOVERY_POLICIES"]

RECOVERY_POLICIES = ("fail_fast", "elastic", "restart_shard", "reconnect")


@dataclass
class FaultContext:
    """One run's fault model + recovery configuration.

    ``recovery``:

    ``fail_fast`` (default)
        Today's behaviour — the first :class:`LearnerFailure` propagates.
    ``elastic``
        On learner death, the surviving ``p−1`` learners restart from the
        last checkpoint as a smaller collective and finish the run
        (parallel-restarted averaging).  SASGD's γ_p = γ/√p rescales
        automatically with the new p.
    ``restart_shard``
        On parameter-server shard death, respawn the shard from its last
        periodic snapshot and keep the learners running (Downpour-style).
    ``reconnect``
        (net backend) A learner that loses its TCP connections re-attaches
        to the live session within ``reconnect_deadline`` and replays
        un-acked frames — no respawn, all ``p`` learners survive.  When the
        deadline expires or the session is unrecoverable, degrades to
        ``elastic`` (``p−1`` survivors restart from the last checkpoint).
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    recovery: str = "fail_fast"
    store: Optional[CheckpointStore] = None
    checkpoint_every: int = 1      # sync intervals between checkpoints
    resume: bool = False           # start from store.latest(key) if present
    max_restarts: int = 3          # elastic restart budget per run
    min_learners: int = 1          # below this, elastic gives up

    def __post_init__(self) -> None:
        # lazy: recovery.py registers the policies, and importing it here at
        # module level would cycle through repro.runtime
        from ..spec.registry import RECOVERY

        from . import recovery as _recovery  # noqa: F401  (registration side effect)

        RECOVERY.get(self.recovery)
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.store is None and (
            self.recovery != "fail_fast" or self.resume
        ):
            # recovery and resume both need somewhere to keep checkpoints
            self.store = open_store(None)

    @property
    def wants_checkpoints(self) -> bool:
        return self.store is not None


# Stack of ambient fault contexts installed by use_faults().
_ACTIVE: List[FaultContext] = []


@contextmanager
def use_faults(ctx: FaultContext) -> Iterator[FaultContext]:
    """Install ``ctx`` as the ambient fault context for the block.

    Every trainer constructed inside the block without an explicit
    ``fault_ctx=`` picks it up.  Nests; the previous context is restored on
    exit.
    """
    _ACTIVE.append(ctx)
    try:
        yield ctx
    finally:
        _ACTIVE.pop()


def resolve_fault_context(ctx: Optional[FaultContext] = None) -> Optional[FaultContext]:
    """Explicit context > innermost :func:`use_faults` > None (no faults)."""
    if ctx is not None:
        return ctx
    if _ACTIVE:
        return _ACTIVE[-1]
    return None
