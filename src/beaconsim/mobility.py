"""Bounded-speed mobility models and hop-distance smoothness measurement.

All models obey a hard per-step speed cap: every node's displacement is
strictly below ``max_speed`` length units per time step, independent of the
node count, measured as torus distance: the domain wraps, so a node leaving
one edge re-enters at the opposite one. Steps are functional in (seed, t) so
trajectories replay exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import HorizonError, ParameterError, ProtocolInvariantError
from .geometry import DomainSpec, _positions
from .graph import ConnectivityGraph, _pair_hops

__all__ = [
    "RandomWalk",
    "RandomWaypoint",
    "Lockstep",
    "MobilityModel",
    "SmoothnessSample",
    "SmoothnessReport",
    "step",
    "measure_smoothness",
    "theoretical_kappa",
]

_SQRT10 = math.sqrt(10.0)


def _check_speed(max_speed: float) -> None:
    if max_speed <= 0:
        raise ParameterError(f"max speed must be positive, got {max_speed}")


@dataclass
class RandomWalk:
    """Independent per-node jumps: direction uniform on [0, 2pi), length
    uniform on [0, max_speed)."""

    max_speed: float

    def __post_init__(self) -> None:
        _check_speed(self.max_speed)

    def advance(self, arr: np.ndarray, domain: DomainSpec, rng: np.random.Generator) -> np.ndarray:
        n = len(arr)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        radius = rng.uniform(0.0, self.max_speed, n)
        moved = arr + np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
        return np.mod(moved, domain.side)


@dataclass
class Lockstep:
    """One shared jump per step (random-walk law) applied to every node, so
    all pairwise torus distances are preserved exactly."""

    max_speed: float

    def __post_init__(self) -> None:
        _check_speed(self.max_speed)

    def advance(self, arr: np.ndarray, domain: DomainSpec, rng: np.random.Generator) -> np.ndarray:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(0.0, self.max_speed)
        shift = np.array([radius * math.cos(theta), radius * math.sin(theta)])
        return np.mod(arr + shift, domain.side)


@dataclass
class RandomWaypoint:
    """Each node walks straight toward a private uniform target, redrawing the
    target (and a leg speed in [max_speed/2, max_speed)) on arrival.

    Stateful across steps; the first step initializes targets from its rng.
    Leg speeds stay above half the cap so legs terminate.
    """

    max_speed: float
    _targets: np.ndarray | None = field(default=None, repr=False, compare=False)
    _speeds: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_speed(self.max_speed)

    def advance(self, arr: np.ndarray, domain: DomainSpec, rng: np.random.Generator) -> np.ndarray:
        n = len(arr)
        if self._targets is None:
            self._targets = rng.uniform(0.0, domain.side, (n, 2))
            self._speeds = rng.uniform(self.max_speed / 2.0, self.max_speed, n)
        if len(self._targets) != n:
            raise ParameterError(
                f"waypoint state tracks {len(self._targets)} nodes, got {n} positions"
            )
        vec = self._targets - arr
        dist = np.hypot(vec[:, 0], vec[:, 1])
        arrive = dist <= self._speeds
        safe = np.where(dist == 0.0, 1.0, dist)
        stepped = arr + vec / safe[:, None] * self._speeds[:, None]
        moved = np.where(arrive[:, None], self._targets, stepped)
        if arrive.any():
            k = int(arrive.sum())
            self._targets = self._targets.copy()
            self._speeds = self._speeds.copy()
            self._targets[arrive] = rng.uniform(0.0, domain.side, (k, 2))
            self._speeds[arrive] = rng.uniform(self.max_speed / 2.0, self.max_speed, k)
        return moved


MobilityModel = Union[RandomWalk, RandomWaypoint, Lockstep]


def _displacements(before: np.ndarray, after: np.ndarray, domain: DomainSpec) -> np.ndarray:
    delta = np.abs(after - before)
    delta = np.minimum(delta, domain.side - delta)
    return np.hypot(delta[:, 0], delta[:, 1])


def step(
    model: MobilityModel,
    positions: np.ndarray,
    domain: DomainSpec,
    seed: int,
    t: int,
) -> np.ndarray:
    """Advance one time step; replays exactly for the same (seed, t).

    Returns the moved positions as a new array; ``positions`` is not changed.
    """
    if seed < 0 or t < 0:
        raise ParameterError(f"seed and t must be non-negative, got seed={seed}, t={t}")
    arr = _positions(positions, domain.side)
    rng = np.random.default_rng((seed, t))
    moved = model.advance(arr, domain, rng)
    if _displacements(arr, moved, domain).max(initial=0.0) >= model.max_speed:
        raise ProtocolInvariantError("a node moved at least max_speed in one step")
    return moved


# ---------------------------------------------------------------------------
# Smoothness measurement
# ---------------------------------------------------------------------------


class SmoothnessSample(NamedTuple):
    d_before: int
    d_after: int
    tau: int
    ratio: float
    bucket: int


@dataclass(frozen=True)
class SmoothnessReport:
    """Hop-distance ratios over a fixed gap, bucketed by power-of-two distance."""

    samples: list[SmoothnessSample]
    kappa_hat: dict[int, float]
    skipped_unreachable: int
    tau: int


def _bucket(d: int) -> int:
    return 1 if d <= 1 else 2 ** math.ceil(math.log2(d))


def measure_smoothness(
    graph_sequence: Sequence[ConnectivityGraph],
    tau: int,
    pair_sample: int,
    seed: int,
) -> SmoothnessReport:
    """Sample node pairs per step and record how much their hop distance
    changes across a gap of ``tau`` steps.

    Pairs unreachable at either end are skipped and counted, not errors."""
    if tau < 0:
        raise ParameterError(f"gap must be non-negative, got {tau}")
    if len(graph_sequence) <= tau:
        raise ParameterError(
            f"need more than tau={tau} graphs, got {len(graph_sequence)}"
        )
    if pair_sample < 1:
        raise ParameterError(f"pair sample must be at least 1, got {pair_sample}")
    n = graph_sequence[0].n
    if any(g.n != n for g in graph_sequence):
        raise ParameterError("all graphs in the sequence must share the node set")
    if n < 2:
        raise ParameterError("smoothness needs at least two nodes")

    rng = np.random.default_rng(seed)
    samples: list[SmoothnessSample] = []
    skipped = 0
    for t in range(len(graph_sequence) - tau):
        g0 = graph_sequence[t]
        g1 = graph_sequence[t + tau]
        us = rng.integers(0, n, pair_sample)
        vs = rng.integers(0, n, pair_sample)
        clash = us == vs
        while clash.any():
            vs[clash] = rng.integers(0, n, int(clash.sum()))
            clash = us == vs
        pairs = np.column_stack([us, vs])
        for db, da in zip(_pair_hops(g0, pairs), _pair_hops(g1, pairs)):
            if math.isinf(db) or math.isinf(da):
                skipped += 1
                continue
            ratio = max(db / da, da / db)
            samples.append(
                SmoothnessSample(
                    d_before=int(db),
                    d_after=int(da),
                    tau=tau,
                    ratio=float(ratio),
                    bucket=_bucket(int(db)),
                )
            )
    kappa_hat: dict[int, float] = {}
    for s in samples:
        kappa_hat[s.bucket] = max(kappa_hat.get(s.bucket, 1.0), s.ratio)
    return SmoothnessReport(
        samples=samples, kappa_hat=kappa_hat, skipped_unreachable=skipped, tau=tau
    )


# ---------------------------------------------------------------------------
# Closed-form bound
# ---------------------------------------------------------------------------


def theoretical_kappa(r_n: float, max_speed: float, tau: float, d: float) -> float:
    """Closed-form cap on the hop-distance ratio across a gap of ``tau`` steps
    for nodes ``d`` hops apart, at communication radius ``r_n`` and speed cap
    ``max_speed``.

    Undefined (horizon error) when r_n*d <= 20*tau*max_speed: the pair can
    close enough distance within the gap that no finite ratio is guaranteed.
    """
    if r_n <= 0:
        raise ParameterError(f"communication radius must be positive, got {r_n}")
    if max_speed < 0:
        raise ParameterError(f"max speed must be non-negative, got {max_speed}")
    if tau < 0:
        raise ParameterError(f"gap must be non-negative, got {tau}")
    if d <= 0:
        raise ParameterError(f"hop distance must be positive, got {d}")
    rd = r_n * d
    denominator = rd / _SQRT10 - 2.0 * _SQRT10 * tau * max_speed
    if denominator <= 0:
        raise HorizonError(
            f"gap tau={tau} at speed {max_speed} can collapse distance {d}; "
            "the ratio bound is vacuous"
        )
    shrink = rd / denominator
    grow = _SQRT10 * (1.0 + 2.0 * tau * max_speed * _SQRT10 / rd)
    return max(shrink, grow)
