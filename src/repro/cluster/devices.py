"""Device models: compute rates, jitter, and per-device clocks.

A :class:`Device` turns a FLOP count into virtual seconds.  The paper's
learners run on NVIDIA K80 GPUs (one learner per GPU; two per GPU for p=16
via CUDA MPS), the (sharded) parameter server on the Power8 host cores.

Jitter matters: asynchronous algorithms derive their *staleness distribution*
from the relative processing speeds of learners ("the staleness is also
impacted by the relative processing speed of the learners" — Sec. III).  Each
device owns a seeded RNG stream and draws a multiplicative lognormal factor
per operation, so two learners drift apart exactly the way real ones do, and
the whole simulation stays reproducible from one seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["DeviceSpec", "Device"]


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a compute device.

    Parameters
    ----------
    name:
        Unique device id (also the topology node name).
    flops:
        Sustained throughput in FLOP/s for the dense kernels of this workload.
        This is a *calibration* knob, not a datasheet number: it is fit so the
        simulated sequential epoch time matches the paper's (see
        :mod:`repro.harness.calibration`).
    jitter:
        Standard deviation of the lognormal multiplicative noise on each
        operation's duration.  0 disables jitter.
    overhead:
        Fixed per-operation launch overhead in seconds (kernel launches,
        framework dispatch).
    kind:
        Free-form tag ("gpu", "cpu") used by reports.
    mps_share:
        Fraction of the device each resident learner gets when several
        learners share it (CUDA multi-process service in the paper's p=16
        runs).  1.0 means exclusive.
    """

    name: str
    flops: float
    jitter: float = 0.05
    overhead: float = 0.0
    kind: str = "gpu"
    mps_share: float = 1.0

    def __post_init__(self) -> None:
        if self.flops <= 0:
            raise ValueError(f"flops must be positive, got {self.flops}")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.overhead < 0:
            raise ValueError(f"overhead must be >= 0, got {self.overhead}")
        if not (0.0 < self.mps_share <= 1.0):
            raise ValueError(f"mps_share must be in (0, 1], got {self.mps_share}")


class Device:
    """A device instance bound to an RNG stream.

    ``compute_seconds(flop)`` converts work to time, including jitter and
    launch overhead.  The lognormal is parameterised so its *mean* is 1 (the
    calibrated rate is the mean rate, not the mode).
    """

    def __init__(self, spec: DeviceSpec, rng: Optional[np.random.Generator] = None) -> None:
        self.spec = spec
        self.rng = rng if rng is not None else np.random.default_rng(0)
        if spec.jitter > 0:
            # lognormal with E[factor]=1: mu = -sigma^2/2
            self._sigma = float(np.sqrt(np.log(1.0 + spec.jitter**2)))
            self._mu = -0.5 * self._sigma**2
        else:
            self._sigma = 0.0
            self._mu = 0.0

    def jitter_factor(self) -> float:
        if self._sigma == 0.0:
            return 1.0
        return float(self.rng.lognormal(self._mu, self._sigma))

    def compute_seconds(self, flop: float, jitter: bool = True) -> float:
        """Virtual seconds to execute ``flop`` floating-point operations."""
        if flop < 0:
            raise ValueError(f"flop must be >= 0, got {flop}")
        base = flop / (self.spec.flops * self.spec.mps_share) + self.spec.overhead
        return base * (self.jitter_factor() if jitter else 1.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Device {self.spec.name} {self.spec.flops:.3g} FLOP/s>"
