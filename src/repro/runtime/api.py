"""The transport-agnostic runtime contract the trainers are written against.

The paper's algorithm loops (SASGD's interval allreduce, Downpour's sharded
parameter server, EAMSGD's elastic averaging) are local-update /
periodic-communication loops; nothing in them is specific to the
discrete-event simulator.  This module defines the seam that keeps them that
way: trainers talk to a :class:`Backend` (workers, clock, RNG streams,
compute accounting), a :class:`Collective` (broadcast / allreduce /
allgather), and a :class:`ParameterServerHandle` whose :class:`PSClientLike`
clients implement push / pull / elastic — never to ``repro.sim``,
``repro.comm`` or ``repro.ps`` directly.

Calling convention
------------------
Every communication or compute primitive is *driven as a generator
coroutine* (``yield from``), exactly like the simulator's processes.  The
two backends meet that contract differently:

* ``SimBackend`` returns the existing engine coroutines unchanged — they
  yield :class:`~repro.sim.Delay` / event commands into the virtual-time
  scheduler.
* ``MPBackend`` returns *no-yield* generators built with :func:`blocking`:
  the body performs the real blocking operation (shared-memory barrier,
  queue round-trip) and returns before ever yielding.  ``yield from``
  therefore degenerates to a plain call, and the same trainer source runs
  on both substrates.

A trainer coroutine must never assume anything about what the yielded
commands *are*; only the backend interprets them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..algos.distributed import DistributedTrainer
    from ..obs.runtime import ObsSession

__all__ = [
    "LearnerFailure",
    "RetryBudgetExhausted",
    "BackendCapabilityError",
    "Collective",
    "PSClientLike",
    "ParameterServerHandle",
    "RunStats",
    "Backend",
    "blocking",
]


class BackendCapabilityError(ValueError):
    """A valid option was asked of a backend that cannot provide it.

    Distinct from :class:`~repro.spec.registry.UnknownNameError` (the name
    does not exist anywhere): here the feature exists — on *another*
    backend — so the message says which backend supports it instead of
    handing the user a traceback.  ``repro list backends`` prints each
    backend's capability notes from the same registry metadata.
    """

    def __init__(self, backend: str, message: str) -> None:
        super().__init__(f"backend {backend!r}: {message}")
        self.backend = backend


class LearnerFailure(RuntimeError):
    """A learner died (injected failure or real crash) and took the run down.

    Carries ``learner_id`` and ``step`` (local steps the learner completed
    before dying) so harnesses can tell *which* worker failed — the typed
    replacement for the bare ``RuntimeError`` the trainers used to raise.
    The message always contains the word "deadlocked" because that is the
    observable symptom for bulk-synchronous peers (they stall at the next
    collective) and what existing failure-injection tests match on.
    """

    def __init__(
        self,
        learner_id: Optional[int] = None,
        step: Optional[int] = None,
        message: Optional[str] = None,
    ) -> None:
        if message is None:
            who = "a learner" if learner_id is None else f"learner{learner_id}"
            at = "" if step is None else f" after {step} local steps"
            message = (
                f"{who} died{at}; surviving bulk-synchronous peers deadlocked "
                "at the next collective"
            )
        super().__init__(message)
        self.learner_id = learner_id
        self.step = step
        #: seconds between the fault occurring and the backend noticing it
        #: (filled in by supervised backends; None when unknown)
        self.detection_seconds: Optional[float] = None


class RetryBudgetExhausted(LearnerFailure):
    """A learner gave up on a parameter-server request after exhausting its
    retry-with-backoff budget (lost or persistently delayed replies).

    Subclasses :class:`LearnerFailure` so fail-fast harness paths treat it
    like any other learner death, while recovery policies can distinguish a
    communication failure from a crashed process.
    """

    def __init__(
        self,
        learner_id: Optional[int] = None,
        attempts: int = 0,
        message: Optional[str] = None,
    ) -> None:
        if message is None:
            who = "a learner" if learner_id is None else f"learner{learner_id}"
            message = (
                f"{who} exhausted its PS retry budget after {attempts} attempts; "
                "peers deadlocked waiting for its updates"
            )
        super().__init__(learner_id, None, message)
        self.attempts = attempts


def blocking(fn, *args, **kwargs) -> Generator:
    """Adapt a blocking callable to the coroutine calling convention.

    Returns a generator that runs ``fn`` to completion on the first
    ``next()`` and immediately raises ``StopIteration(fn(...))`` — i.e.
    ``result = yield from blocking(fn, ...)`` is a plain call that still
    type-checks as a coroutine.  Real-execution backends use this so the
    trainers' ``yield from`` sites need no per-backend branching.
    """
    return fn(*args, **kwargs)
    yield  # pragma: no cover - unreachable; makes this a generator function


class Collective(ABC):
    """SPMD collectives over whatever transport the backend provides.

    Every method returns a coroutine; ``rank`` identifies the calling
    learner.  ``nbytes`` is advisory (simulated-wire payload size); ``ctx``
    must be unique per call-site occurrence so successive rounds cannot
    cross-talk (the simulated fabric keys messages on it; shared-memory
    transports may ignore it).
    """

    @abstractmethod
    def broadcast(
        self,
        rank: int,
        array: Optional[np.ndarray],
        root: int = 0,
        nbytes: float = 0.0,
        ctx: Any = 0,
    ) -> Generator:
        """Broadcast ``array`` from ``root``; every rank returns the data."""

    @abstractmethod
    def allreduce(
        self,
        rank: int,
        array: np.ndarray,
        nbytes: float = 0.0,
        ctx: Any = 0,
        algorithm: str = "recursive_doubling",
    ) -> Generator:
        """Sum-allreduce ``array`` across ranks; returns the reduced array.

        ``algorithm`` selects the wire schedule where the transport offers a
        choice (the simulated fabric: ring / recursive_doubling / tree); a
        shared-memory transport may ignore it.
        """

    @abstractmethod
    def allgather(
        self,
        rank: int,
        item: Any,
        nbytes: float = 0.0,
        ctx: Any = 0,
    ) -> Generator:
        """Gather one (possibly non-array) item per rank, in rank order."""


class PSClientLike(ABC):
    """One learner's connection to a parameter server.

    Mirrors :class:`repro.ps.server.PSClient`: ``push``/``pull``/``elastic``
    return coroutines, and ``staleness_samples`` accumulates the per-push
    staleness measurements (paper Sec. II-B).
    """

    staleness_samples: List[int]

    @abstractmethod
    def push(self, grad: Optional[np.ndarray], pull: bool = False) -> Generator:
        """Apply an accumulated gradient at the server; returns staleness.

        ``pull=True`` is Downpour's whole exchange: push, fetch the parameters
        and return *them* (the staleness still lands in ``staleness_samples``).
        A process backend makes it one request per shard, answered with the
        slice right after the apply; the simulator runs the push, then the
        pull.  Either way it is two fault ordinals, the push's and the pull's.
        """

    @abstractmethod
    def pull(self) -> Generator:
        """Fetch the full parameter vector (may mix shard versions)."""

    @abstractmethod
    def elastic(self, x_local: Optional[np.ndarray], alpha: float) -> Generator:
        """One EASGD exchange; returns the elastic difference ``e``."""


class ParameterServerHandle(ABC):
    """A sharded parameter server owned by the backend.

    Exposes the surface the trainers and tests rely on: ``x`` (the center /
    parameter vector), ``layout`` (shard partition), ``pushes_applied``, and
    per-rank clients.
    """

    @property
    @abstractmethod
    def x(self) -> np.ndarray:
        """The server-resident parameter vector (live view or final copy)."""

    @property
    @abstractmethod
    def layout(self):
        """The :class:`~repro.ps.server.ShardLayout` partition."""

    @property
    @abstractmethod
    def pushes_applied(self) -> int:
        """Total pushes applied across shards (valid after ``train()``)."""

    @abstractmethod
    def set_params(self, x0: np.ndarray) -> None:
        """Install the shared starting point (learner 0's initialisation)."""

    @abstractmethod
    def client(self, rank: int) -> PSClientLike:
        """The calling rank's connection to every shard."""


@dataclass
class RunStats:
    """What a backend reports back from one ``run()``.

    ``duration`` is in the backend's native clock: virtual seconds for the
    simulator, wall-clock seconds for real execution — it becomes the
    result's ``virtual_seconds`` either way (the time axis the curves are
    plotted against).
    """

    duration: float
    extras: Dict[str, object] = field(default_factory=dict)


class Backend(ABC):
    """One execution substrate: workers + clock + transport factories.

    Lifecycle: the trainer constructs a backend (or receives one), calls
    :meth:`bind` exactly once from ``__init__`` (the backend builds its
    plumbing and publishes :attr:`collective`), optionally calls
    :meth:`make_ps`, and finally :meth:`run` drives one ``_learner_proc``
    coroutine per learner to completion and returns :class:`RunStats`.

    ``sample_scale`` is the factor the metrics tape multiplies each recorded
    batch by: 1 when every learner's batches reach the tape (sim), ``p``
    when only rank 0's do (one tape per worker process).
    """

    name: str = "abstract"
    sample_scale: int = 1
    collective: Collective

    @abstractmethod
    def bind(self, trainer: "DistributedTrainer") -> None:
        """Attach to ``trainer`` and build transports.  Called once."""

    @abstractmethod
    def clock(self) -> float:
        """The backend's native time (virtual or wall seconds)."""

    @abstractmethod
    def spawn_rngs(self, n: int) -> List[np.random.Generator]:
        """``n`` deterministic child RNG streams off the run seed tree."""

    @abstractmethod
    def compute(self, lid: int, flops: float, scale: float = 1.0) -> Generator:
        """Coroutine accounting for one minibatch's compute cost.

        The simulator charges ``device.compute_seconds(flops) × residency``
        of virtual time; a real backend does nothing (the math itself *is*
        the cost and runs inside the worker).  ``scale`` multiplies the cost
        — fault plans use it to model stragglers (sim: ×scale virtual time;
        real backends sleep the extra ``(scale−1)``× via :meth:`fault_sleep`).
        """

    @abstractmethod
    def comm(self, lid: int, coroutine: Generator) -> Generator:
        """Drive ``coroutine`` under communication-time accounting."""

    @abstractmethod
    def make_ps(
        self,
        size: int,
        n_shards: int,
        learning_rate: float,
        dtype,
    ) -> ParameterServerHandle:
        """Build the sharded parameter server for PS-based trainers."""

    @abstractmethod
    def run(self, trainer: "DistributedTrainer") -> RunStats:
        """Execute one ``trainer._learner_proc(lid)`` per learner to
        completion; raise :class:`LearnerFailure` when an injected failure
        stalls the run, or ``RuntimeError`` for genuine algorithm bugs."""

    # -- optional hooks (sensible defaults) ---------------------------------

    def should_record(self, lid: int) -> bool:
        """Whether learner ``lid`` should score/record epoch boundaries.

        Sim: every learner shares one tape, so all of them may record.
        Per-process backends: only rank 0's tape survives, so only it does.
        """
        return True

    def note_failure(self, lid: int, step: int) -> None:
        """A trainer reports an *injected* learner death (``fail_at``).

        Backends use the note to raise a precise :class:`LearnerFailure`
        instead of a generic deadlock diagnosis.  Default: ignore.
        """

    def publish_obs(
        self, trainer: "DistributedTrainer", sess: "ObsSession", wall: float
    ) -> None:
        """Publish end-of-run metrics/trace into the active obs session."""

    # -- fault-injection hooks (defaults: faults are inert) ------------------

    def install_faults(self, plan, retry=None, recovery: str = "fail_fast") -> None:
        """Arm a :class:`~repro.faults.FaultPlan` on this backend.

        Called by the trainer before ``run()`` when a fault context is
        active.  ``recovery`` is the active policy name — backends use it to
        decide shard behaviour on ``ps_crash`` (``restart_shard`` respawns
        from snapshot, anything else lets the shard stay dead).  Backends
        that support injection keep the plan and consult it from their
        primitives; the default silently ignores it so fault-oblivious
        backends keep working (their trainers still honour crash faults via
        :meth:`fault_crash`).
        """

    def fault_crash(self, lid: int, step: int) -> bool:
        """Execute a planned crash of learner ``lid`` after ``step`` steps.

        Returns True when the caller (the learner coroutine) should stop
        immediately — the simulator's model of death.  Real backends kill
        the worker process outright (``os._exit``) and never return.
        The default records nothing and lets the learner die quietly via
        :meth:`note_failure` + return.
        """
        self.note_failure(lid, step)
        return True

    def fault_disconnect(self, lid: int, step: int) -> None:
        """Sever learner ``lid``'s transport connections after ``step`` steps.

        The net backend closes the worker's real TCP sockets (control, ring,
        PS) so the run exercises reconnect-and-resume; backends with no wire
        to cut (sim, mp shared memory) record the injection as an event and
        continue — an honest no-op, not a modelled crash.
        """
        from ..obs import events as _events

        _events.emit(
            _events.FAULT_INJECTED,
            source=f"learner{lid}",
            t=self.clock(),
            fault="disconnect",
            learner=lid,
            step=step,
        )

    def fault_sleep(self, lid: int, seconds: float) -> Generator:
        """Coroutine that stalls learner ``lid`` for ``seconds``.

        Sim: this is a no-op — straggle cost is charged through the
        ``scale`` argument of :meth:`compute` instead (virtual time).  Real
        backends sleep for real.  The default no-op matches the sim.
        """
        return blocking(lambda: None)

    def respawn(self) -> "Backend":
        """A fresh, unbound backend of the same kind and configuration.

        Elastic recovery calls this to give each restart attempt its own
        transports (the old backend's collective may reference dead
        processes or an exhausted simulation).  The default re-constructs
        with no arguments; backends with configuration must override.
        """
        return type(self)()
