"""The declarative scenario grammar: one document describes one run.

A :class:`ScenarioSpec` declares everything a run needs — what to compute
(an experiment family with its parameters, or a custom problem + algorithm +
machine scenario), where to run it (backend), what goes wrong (fault plan +
recovery policy), what to record (event sinks), and what to sweep (grid
axes).  Specs load from YAML or JSON files (:func:`load_spec`), from plain
dicts (:meth:`ScenarioSpec.from_dict`), or are built programmatically, and
compile to runnable plans via :func:`repro.spec.compile_scenario`.

Two modes, discriminated by which fields are set:

**experiment mode** — reference a registered experiment family::

    experiment: fig2
    params: {p_values: [1, 8], epochs: 12, eval_every: 3}
    backend: mp
    sweep: {seed: [5, 6]}

**custom mode** — wire a scenario the families don't cover::

    problem: cifar
    problem_args: {scale: unit, seed: 1}
    algorithm: sasgd
    options: {T: 2}
    config: {p: 3, epochs: 2, batch_size: 8, lr: 0.02, seed: 3}
    faults: "crash:learner=1,step=3"
    recovery: elastic

Every name is checked against its registry at validation time and failures
say which *field* held the bad value and what names are registered
(``unknown trainer 'saasgd' (field 'algorithm'); did you mean 'sasgd'?``).

Canonical form and hashing
--------------------------
:meth:`ScenarioSpec.canonical` returns a minimal plain dict — defaults
dropped, keys sorted, tuples as lists, numpy scalars cast, fault plans
normalised to a list of dicts regardless of whether they were written in
the CLI string grammar or as structured YAML.  Round-tripping through it is
stable (``from_dict(spec.canonical()).canonical() == spec.canonical()``)
and :meth:`canonical_hash` over its sorted JSON is the identity the grid
runner's disk cache keys derive from: byte-equal for an unchanged spec, new
the moment any field changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from . import registry as reg

__all__ = [
    "SpecError",
    "ScenarioSpec",
    "load_spec",
    "spec_from_text",
]


class SpecError(ValueError):
    """A scenario document that does not validate.

    ``field`` names the offending field; the message lists registered
    alternatives when the problem is an unknown name.
    """

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        if field and not message.startswith(f"{field}:"):
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


def _canonical_value(obj: Any) -> Any:
    """JSON-stable form: tuples→lists, dict keys sorted, numpy scalars cast."""
    if isinstance(obj, Mapping):
        return {str(k): _canonical_value(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical_value(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return obj


def _fault_dicts(faults: Union[str, Sequence, None], field_name: str = "faults") -> List[dict]:
    """Normalise a fault declaration (CLI grammar string, one dict, or a
    list of dicts) into the canonical list-of-dicts form.

    Uses :class:`repro.faults.Fault` itself for parsing and validation so
    the spec grammar and the ``--fault`` CLI grammar can never drift: a
    grammar string and its structured equivalent normalise to the identical
    canonical dicts.
    """
    if not faults:
        return []
    from ..faults.plan import Fault, parse_faults

    if isinstance(faults, str):
        try:
            parsed = parse_faults(faults)
        except ValueError as exc:
            raise SpecError(str(exc), field=field_name) from None
    else:
        if isinstance(faults, Mapping):
            faults = [faults]
        parsed = []
        for i, item in enumerate(faults):
            if isinstance(item, str):
                try:
                    parsed.extend(parse_faults(item))
                except ValueError as exc:
                    raise SpecError(str(exc), field=f"{field_name}[{i}]") from None
                continue
            if not isinstance(item, Mapping):
                raise SpecError(
                    f"each fault must be a mapping or a grammar string, got {item!r}",
                    field=f"{field_name}[{i}]",
                )
            try:
                parsed.append(Fault(**{str(k): v for k, v in item.items()}))
            except (TypeError, ValueError) as exc:
                raise SpecError(str(exc), field=f"{field_name}[{i}]") from None

    out = []
    defaults = {f.name: f.default for f in fields(Fault)}
    for f in parsed:
        d = {
            name: _canonical_value(getattr(f, name))
            for name in defaults
            if getattr(f, name) != defaults[name]
        }
        d["kind"] = f.kind
        out.append({k: d[k] for k in sorted(d)})
    return out


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario (see the module docstring for the grammar)."""

    # -- experiment mode -----------------------------------------------------
    experiment: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    # -- custom mode ---------------------------------------------------------
    problem: Optional[str] = None
    problem_args: Mapping[str, Any] = field(default_factory=dict)
    algorithm: Optional[str] = None
    options: Mapping[str, Any] = field(default_factory=dict)
    config: Mapping[str, Any] = field(default_factory=dict)
    machine: Optional[str] = None
    machine_args: Mapping[str, Any] = field(default_factory=dict)
    # -- shared --------------------------------------------------------------
    backend: Optional[str] = None
    backend_args: Mapping[str, Any] = field(default_factory=dict)
    faults: Union[str, Sequence, None] = None
    fault_seed: int = 0
    recovery: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    sweep: Mapping[str, Sequence] = field(default_factory=dict)
    events: Tuple[str, ...] = ()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        # normalise containers so frozen instances hash/compare sensibly
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "problem_args", dict(self.problem_args))
        object.__setattr__(self, "options", dict(self.options))
        object.__setattr__(self, "config", dict(self.config))
        object.__setattr__(self, "machine_args", dict(self.machine_args))
        object.__setattr__(self, "backend_args", dict(self.backend_args))
        object.__setattr__(self, "sweep", dict(self.sweep))
        object.__setattr__(self, "events", tuple(self.events))

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build and validate a spec from a plain document dict.

        Unknown top-level keys are an error naming the key and listing the
        grammar's fields — a typo'd field never silently disappears.
        """
        if not isinstance(data, Mapping):
            raise SpecError(f"a scenario document must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        # a YAML key with no value ("params:") parses as None — treat it as
        # absent so empty sections mean their defaults
        data = {k: v for k, v in data.items() if v is not None}
        for key in data:
            if key not in known:
                suggestion = ""
                import difflib

                close = difflib.get_close_matches(str(key), sorted(known), n=1, cutoff=0.5)
                if close:
                    suggestion = f"; did you mean {close[0]!r}?"
                raise SpecError(
                    f"unknown field {key!r}{suggestion} "
                    f"(known fields: {', '.join(sorted(known))})"
                )
        spec = cls(**{str(k): v for k, v in data.items()})
        spec.validate()
        return spec

    # -- validation ----------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"experiment"`` or ``"custom"`` (validated by :meth:`validate`)."""
        return "experiment" if self.experiment is not None else "custom"

    def validate(self) -> "ScenarioSpec":
        """Check every field against the registries; returns self.

        Raises :class:`SpecError` (naming the field and the registered
        alternatives) on the first problem found.
        """
        reg.ensure_populated()
        if self.experiment is not None and self.algorithm is not None:
            raise SpecError(
                "a scenario is either an experiment reference or a custom "
                "problem+algorithm scenario, not both",
                field="experiment",
            )
        if self.experiment is None and self.algorithm is None:
            raise SpecError(
                "a scenario needs either experiment: (a registered experiment "
                f"family: {', '.join(reg.EXPERIMENTS.names())}) or algorithm: "
                f"(a registered trainer: {', '.join(reg.TRAINERS.names())})",
                field="experiment",
            )

        if self.experiment is not None:
            self._validate_experiment_mode()
        else:
            self._validate_custom_mode()

        if self.backend is not None:
            self._registered(reg.BACKENDS, self.backend, "backend")
        if self.recovery is not None:
            self._registered(reg.RECOVERY, self.recovery, "recovery")
        _fault_dicts(self.faults)  # raises SpecError on a bad plan
        if not isinstance(self.fault_seed, int):
            raise SpecError(
                f"fault_seed must be an int, got {self.fault_seed!r}", field="fault_seed"
            )
        for axis, values in self.sweep.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, (list, tuple)):
                raise SpecError(
                    f"sweep axis {axis!r} needs a list of values, got {values!r}",
                    field=f"sweep.{axis}",
                )
            if not values:
                raise SpecError(f"sweep axis {axis!r} is empty", field=f"sweep.{axis}")
        for spec_ev in self.events:
            if not isinstance(spec_ev, str):
                raise SpecError(f"event sink must be a string, got {spec_ev!r}", field="events")
        return self

    @staticmethod
    def _registered(registry: reg.Registry, name: str, field_name: str) -> Any:
        try:
            return registry.get(name)
        except reg.UnknownNameError as exc:
            raise SpecError(str(exc), field=field_name) from None

    def _experiment_param_names(self) -> Optional[set]:
        fn = reg.EXPERIMENTS.get(self.experiment, field="experiment")
        wrapped = getattr(fn, "__wrapped__", fn)
        sig = inspect.signature(wrapped)
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in sig.parameters.values()):
            return None  # **kwargs: anything goes
        names = set(sig.parameters)
        # ambient knobs run_experiment strips before calling the family
        names |= {"backend", "backend_timeout"}
        return names

    def _validate_experiment_mode(self) -> None:
        self._registered(reg.EXPERIMENTS, self.experiment, "experiment")
        for f in ("problem", "algorithm", "machine"):
            if getattr(self, f) is not None:
                raise SpecError(
                    f"{f!r} belongs to custom scenarios; an experiment "
                    "reference only takes params/sweep",
                    field=f,
                )
        for f in ("problem_args", "options", "config", "machine_args"):
            if getattr(self, f):
                raise SpecError(
                    f"{f!r} belongs to custom scenarios; put experiment "
                    "arguments under params:",
                    field=f,
                )
        allowed = self._experiment_param_names()
        if allowed is not None:
            for key in self.params:
                if key not in allowed:
                    raise SpecError(
                        f"experiment {self.experiment!r} takes no parameter "
                        f"{key!r} (accepted: {', '.join(sorted(allowed))})",
                        field=f"params.{key}",
                    )
            for axis in self.sweep:
                if axis not in allowed:
                    raise SpecError(
                        f"sweep axis {axis!r} is not a parameter of "
                        f"experiment {self.experiment!r} "
                        f"(accepted: {', '.join(sorted(allowed))})",
                        field=f"sweep.{axis}",
                    )

    def _validate_custom_mode(self) -> None:
        if self.problem is None:
            raise SpecError(
                "custom scenarios need problem: "
                f"(registered: {', '.join(reg.PROBLEMS.names())})",
                field="problem",
            )
        self._registered(reg.PROBLEMS, self.problem, "problem")
        trainer_cls = self._registered(reg.TRAINERS, self.algorithm, "algorithm")
        options_cls = reg.TRAINERS.meta(self.algorithm).get("options")
        if self.options and options_cls is None:
            raise SpecError(
                f"trainer {self.algorithm!r} takes no options", field="options"
            )
        if options_cls is not None:
            valid = {f.name for f in fields(options_cls)}
            for key in self.options:
                if key not in valid:
                    raise SpecError(
                        f"unknown option {key!r} for trainer {self.algorithm!r} "
                        f"(accepted: {', '.join(sorted(valid))})",
                        field=f"options.{key}",
                    )
        from ..algos.base import TrainerConfig

        cfg_fields = {f.name for f in fields(TrainerConfig)}
        for key in self.config:
            if key not in cfg_fields:
                raise SpecError(
                    f"unknown trainer config field {key!r} "
                    f"(accepted: {', '.join(sorted(cfg_fields))})",
                    field=f"config.{key}",
                )
        if self.machine is not None:
            self._registered(reg.MACHINES, self.machine, "machine")
            if self.backend is not None and self.backend != "sim":
                raise SpecError(
                    "a simulated machine only exists on the sim backend; "
                    f"drop machine: or use backend: sim (got {self.backend!r})",
                    field="machine",
                )
        del trainer_cls
        valid_opt = (
            {f.name for f in fields(options_cls)} if options_cls is not None else set()
        )
        for axis in self.sweep:
            scope, _, key = axis.partition(".")
            if scope == "config" and key in cfg_fields:
                continue
            if scope == "options" and key in valid_opt:
                continue
            raise SpecError(
                f"custom sweep axes are 'config.<field>' or 'options.<field>', "
                f"got {axis!r}",
                field=f"sweep.{axis}",
            )

    # -- canonical form ------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """The minimal, order-insensitive plain-dict form of this spec.

        Fields at their default value are omitted, mapping keys are sorted,
        sequences become lists, and the fault plan is normalised to a list
        of dicts whether it was declared as a grammar string or structured
        data — so two documents that *mean* the same scenario canonicalise
        (and therefore hash) identically.
        """
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default is not dataclasses.MISSING:
                default = f.default
            else:
                default = f.default_factory()  # type: ignore[misc]
            if f.name == "faults":
                norm = _fault_dicts(value)
                if norm:
                    out["faults"] = norm
                continue
            if value == default or (value in ({}, (), []) and not default):
                continue
            out[f.name] = _canonical_value(value)
        return out

    def canonical_hash(self) -> str:
        """sha256 (hex) of the canonical JSON — the spec's cache identity."""
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- derived specs -------------------------------------------------------

    def fault_plan(self):
        """The spec's :class:`~repro.faults.FaultPlan` (empty when no faults)."""
        from ..faults.plan import Fault, FaultPlan

        dicts = _fault_dicts(self.faults)
        return FaultPlan(
            faults=tuple(Fault(**d) for d in dicts), seed=self.fault_seed
        )

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A copy with dataclass fields replaced (used by CLI flags)."""
        return replace(self, **changes).validate()

    def sweep_points(self) -> List[Dict[str, Any]]:
        """The cartesian expansion of ``sweep`` in declaration order.

        Each point is an axis→value dict; no sweep yields ``[{}]`` (one
        point, no overrides).
        """
        import itertools

        if not self.sweep:
            return [{}]
        axes = list(self.sweep.items())
        return [
            dict(zip((a for a, _ in axes), combo))
            for combo in itertools.product(*(tuple(v) for _, v in axes))
        ]


# --------------------------------------------------------------------------
# document loading (YAML optional, JSON always)
# --------------------------------------------------------------------------


_YAML_HELP = (
    "pyyaml is not installed; YAML scenario specs need it. "
    "Install the optional extra (pip install 'repro[spec]' or pip install "
    "pyyaml), or write the spec as JSON (.json works without pyyaml)."
)


def spec_from_text(text: str, format: str = "yaml") -> ScenarioSpec:
    """Parse a scenario document from a string (``format``: yaml|json)."""
    if format == "json":
        data = json.loads(text)
    elif format == "yaml":
        try:
            import yaml
        except ImportError:
            raise SpecError(_YAML_HELP) from None
        data = yaml.safe_load(text)
    else:
        raise ValueError(f"unknown spec format {format!r} (yaml or json)")
    return ScenarioSpec.from_dict(data)


def load_spec(path: Union[str, Path]) -> ScenarioSpec:
    """Load a ScenarioSpec from a ``.yml``/``.yaml`` or ``.json`` file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from None
    fmt = "json" if path.suffix.lower() == ".json" else "yaml"
    try:
        return spec_from_text(text, format=fmt)
    except SpecError as exc:
        err = SpecError(f"{path}: {exc}")
        err.field = exc.field
        raise err from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON: {exc}") from None
