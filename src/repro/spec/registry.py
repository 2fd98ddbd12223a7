"""Typed registries: every scenario dimension, discoverable by name.

One :class:`Registry` per scenario dimension — trainers, problems, machine
families, recovery policies, runtime backends, experiment families.  Entries
are registered *at definition site* with the :meth:`Registry.register`
decorator (``algos/sasgd.py`` registers ``"sasgd"``, ``cluster/machine.py``
registers ``"fat_tree"``, …), so adding a trainer or a machine family is a
one-file change: define it, decorate it, and the spec grammar, the CLI
(``repro list``, ``repro run --spec``) and validation errors all pick it up.

This module is a deliberate *leaf*: it imports nothing from the rest of
``repro``, so any module can register itself without import cycles.  The
registries fill in as their defining modules are imported;
:func:`ensure_populated` imports the known definition sites lazily for
callers (CLI, spec validation) that need the full picture up front.

Lookup failures raise :class:`UnknownNameError` — a :class:`ValueError`
(and :class:`KeyError`) that names the bad value, lists the registered
alternatives, and suggests close matches ("did you mean …?").
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "UnknownNameError",
    "Registry",
    "TRAINERS",
    "PROBLEMS",
    "MACHINES",
    "RECOVERY",
    "BACKENDS",
    "EXPERIMENTS",
    "REGISTRIES",
    "ensure_populated",
]


class UnknownNameError(ValueError, KeyError):
    """A name that is not in a registry.

    Subclasses both :class:`ValueError` (what the pre-registry dispatch
    raised, so existing ``except``/test expectations keep working) and
    :class:`KeyError` (it *is* a failed lookup).
    """

    def __init__(self, kind: str, name: str, known: List[str], field: Optional[str] = None):
        self.kind = kind
        self.name = name
        self.known = list(known)
        self.field = field
        suggestions = difflib.get_close_matches(str(name), self.known, n=3, cutoff=0.4)
        msg = f"unknown {kind} {name!r}"
        if field:
            msg += f" (field {field!r})"
        if suggestions:
            msg += f"; did you mean {' or '.join(repr(s) for s in suggestions)}?"
        if self.known:
            msg += f" (registered: {', '.join(self.known)})"
        else:
            msg += f" (no {kind}s registered)"
        super().__init__(msg)
        self.message = msg

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.message


class Registry:
    """A named mapping from string keys to objects plus per-entry metadata."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._objs: Dict[str, Any] = {}
        self._meta: Dict[str, Dict[str, Any]] = {}

    def register(self, name: str, obj: Any = None, **meta) -> Callable[[Any], Any]:
        """Register ``obj`` under ``name`` (or use as a decorator).

        ``@REG.register("x", extra=1)`` above a def/class registers it at
        definition site; ``REG.register("x", fn)`` registers directly.
        Re-registering a name replaces the entry (last definition wins, so
        reloading a module in a REPL does not error).
        """

        def add(target: Any) -> Any:
            self._objs[name] = target
            self._meta[name] = dict(meta)
            return target

        if obj is not None or meta.pop("allow_none", False):
            return add(obj)
        return add

    def get(self, name: str, field: Optional[str] = None) -> Any:
        """The registered object, or :class:`UnknownNameError` with hints."""
        try:
            return self._objs[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, self.names(), field=field) from None

    def meta(self, name: str) -> Dict[str, Any]:
        if name not in self._objs:
            raise UnknownNameError(self.kind, name, self.names())
        return dict(self._meta[name])

    def names(self) -> List[str]:
        return sorted(self._objs)

    def items(self) -> List[Tuple[str, Any]]:
        return [(name, self._objs[name]) for name in self.names()]

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {len(self._objs)} entries)"


#: Trainer classes; meta: ``options`` (the Options dataclass or None),
#: ``description``.
TRAINERS = Registry("trainer")

#: Problem factories (``cifar_problem``-style callables); meta: ``description``.
PROBLEMS = Registry("problem")

#: MachineSpec factories; meta: ``description``.
MACHINES = Registry("machine")

#: Recovery policies; the object is the policy driver where one exists
#: (``elastic_train``) or None for policies built into the backends;
#: meta: ``description``.
RECOVERY = Registry("recovery policy")

#: Runtime Backend classes; meta: ``description``.
BACKENDS = Registry("backend")

#: Experiment families (the ``@experiment``-decorated figure/table
#: reproductions); meta: ``title``, ``claim``, ``split_axes``.
EXPERIMENTS = Registry("experiment")

#: Every registry, keyed by the plural name ``repro list`` prints.
REGISTRIES: Dict[str, Registry] = {
    "experiments": EXPERIMENTS,
    "trainers": TRAINERS,
    "problems": PROBLEMS,
    "machines": MACHINES,
    "recovery_policies": RECOVERY,
    "backends": BACKENDS,
}


def ensure_populated() -> None:
    """Import the known definition sites so every registry is filled.

    Registration happens as a side effect of importing the modules that
    define trainers/problems/machines/policies/backends/experiments; this
    pulls them all in for callers (CLI listings, spec validation) that need
    the complete name sets.  Idempotent and cheap after the first call.
    """
    import repro.algos  # noqa: F401  (trainers + problems)
    import repro.cluster.machine  # noqa: F401  (machine families)
    import repro.faults  # noqa: F401  (recovery policies)
    import repro.harness.experiments  # noqa: F401  (experiment families)
    import repro.runtime  # noqa: F401  (backends)
