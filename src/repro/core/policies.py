"""The strategy-pattern policy registry: pluggable serving decisions.

Three decision families steer a serving replay, and each used to be a
hard-wired method.  This module gives every family a slim ABC and a
:class:`~repro.common.registry.Registry` (``POLICIES[family]``), the same
mechanism :mod:`repro.core.stages` resolves ingress stages with:

* :class:`SelectionPolicy` — which clients participate in a round
  (``availability-aware`` / ``random`` / ``population``);
* :class:`AdmissionPolicy` — what happens to an arrival when the
  tenant's in-flight slots are busy (``bounded-queue`` / ``drop-tail`` /
  ``drop-head`` / ``defer-with-deadline``);
* :class:`RecoveryPolicy` — how a round reacts to mid-flight client
  failures (``shrink-or-abort`` / ``abort-fast``).

Round placement is the fourth serving decision, but it is not a family
here: it is one bin-packing placer from
:data:`~repro.controlplane.placement.PLACERS`, selected by
``PlatformConfig.placement_policy``.

Policies register with the :func:`policy` decorator and are resolved by
name through :class:`~repro.traces.replay.ReplayConfig` /
:class:`~repro.chaos.FaultPlan` knobs — empty string means "the
registered default", which reproduces the pre-registry behaviour byte
for byte.  All randomness a policy consumes
comes through its injected RNG: selection receives the per-round stream
the replay derives from ``(seed, tenant, round_id)``, and
:func:`resolve_policy` binds a named :class:`~repro.common.rng.RngRegistry`
stream to ``self.rng`` for policies that draw outside the per-call path.
Drawing from the global RNG instead would break seeded-replay determinism
— the conformance suite (``tests/test_policy_conformance.py``) catches
exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.common.errors import ConfigError
from repro.common.registry import Registry
from repro.common.rng import RngRegistry

if TYPE_CHECKING:
    from repro.fl.client import FLClient
    from repro.fl.population import ClientPopulation
    from repro.fl.selector import Selector
    from repro.traces.models import AvailabilityTrace

__all__ = [
    "POLICIES",
    "AdmissionContext",
    "AdmissionPolicy",
    "Policy",
    "RecoveryContext",
    "RecoveryPolicy",
    "SelectionContext",
    "SelectionPolicy",
    "policy",
    "resolve_policy",
]

#: the decision families the registry knows about
FAMILIES = ("selection", "admission", "recovery")

#: the registered default per family — resolving an empty-string knob
#: lands here (except selection, whose default derives from the inputs
#: the replay was given; see TraceReplayEngine)
DEFAULTS = {
    "selection": "availability-aware",
    "admission": "bounded-queue",
    "recovery": "shrink-or-abort",
}


class Policy:
    """Base for every registered policy.

    ``family``/``name`` are set by the :func:`policy` decorator; ``rng``
    is the policy's injected stream (bound by :func:`resolve_policy`) —
    the ONLY generator a policy may draw from outside arguments
    explicitly passed to its decision methods.
    """

    family: str = ""
    name: str = ""
    rng: np.random.Generator | None = None


#: the process-wide registries every knob resolves against, one per family
POLICIES: dict[str, Registry[type[Policy]]] = {
    family: Registry(f"{family} policy") for family in FAMILIES
}


def _family(family: str) -> Registry[type[Policy]]:
    try:
        return POLICIES[family]
    except KeyError:
        raise ConfigError(
            f"unknown policy family {family!r}; have {list(FAMILIES)}"
        ) from None


def policy(family: str, name: str) -> Callable[[type], type]:
    """Class decorator: ``@policy("selection", "random")`` registers the
    class under ``name`` in ``POLICIES[family]``."""

    def deco(cls: type) -> type:
        _family(family).add(name, cls)
        cls.family = family
        cls.name = name
        return cls

    return deco


def resolve_policy(
    family: str, name: str = "", rngs: RngRegistry | None = None
) -> Policy:
    """Resolve one policy by name (empty → the family default) and bind
    its registry stream ``policy:<family>:<name>`` when ``rngs`` given."""
    resolved = _family(family).get(name or DEFAULTS[family])()
    if rngs is not None:
        resolved.rng = rngs.stream(f"policy:{family}:{resolved.name}")
    return resolved


# ================================================================= selection
@dataclass
class SelectionContext:
    """Everything a selection policy may consult for one round."""

    at: float
    tenant: int
    round_id: int
    #: the round's aggregation goal (``ReplayConfig.round_updates``)
    round_updates: int
    availability: "AvailabilityTrace | None" = None
    weights: dict[str, float] = field(default_factory=dict)
    selector: "Selector | None" = None
    clients: "list[FLClient]" = field(default_factory=list)
    population: "ClientPopulation | None" = None


class SelectionPolicy(Policy):
    """Which clients participate in one round.

    ``select`` returns the picked client ids (or, for population-backed
    policies, client *indices*) — a duplicate-free subset of the clients
    eligible at ``ctx.at``; an empty sequence marks the round unformable.
    ``participant_weights`` maps the picked sequence to per-client
    aggregation weights (same length/order).  All draws must come from
    the passed per-round ``rng`` — never module-level randomness.
    """

    family = "selection"

    def select(self, ctx: SelectionContext, rng: np.random.Generator):
        raise NotImplementedError

    def participant_weights(self, ctx: SelectionContext, picked) -> list[float]:
        return [float(ctx.weights.get(cid, 1.0)) for cid in picked]


@policy("selection", "availability-aware")
class AvailabilityAwareSelection(SelectionPolicy):
    """Route participation through the FL selector's over-provisioning
    policy, restricted to the clients the availability trace reports up
    at the round's arrival instant (the pre-registry selector path).

    Each round is one vectorized pass: the trace's compiled mask at
    ``ctx.at``, gathered into ``ctx.clients`` order through a client→row
    map (:meth:`~repro.traces.models.AvailabilityTrace.row_index`) built
    once per client list.  The replay hands the same list every round, so
    a replay builds the map once."""

    #: (clients, availability, positions of known ids, their trace rows)
    _row_map: tuple | None = None

    def select(self, ctx: SelectionContext, rng: np.random.Generator) -> list[str]:
        if ctx.selector is None or ctx.availability is None or not ctx.clients:
            raise ConfigError(
                "availability-aware selection needs selector, clients, "
                "and an availability trace"
            )
        picked = ctx.selector.select_available(ctx.clients, rng, self._up(ctx))
        return [c.client_id for c in picked]

    def _up(self, ctx: SelectionContext) -> np.ndarray:
        """Availability of ``ctx.clients`` at ``ctx.at``, in list order;
        ids the trace does not know are never up."""
        cached = self._row_map
        if cached is None or cached[0] is not ctx.clients or cached[1] is not ctx.availability:
            rows = ctx.availability.row_index(c.client_id for c in ctx.clients)
            known = np.flatnonzero(rows >= 0)
            cached = self._row_map = (ctx.clients, ctx.availability, known, rows[known])
        _, avail, known, rows = cached
        up = np.zeros(len(ctx.clients), dtype=bool)
        up[known] = avail.available_mask(ctx.at)[rows]
        return up


@policy("selection", "random")
class RandomSelection(SelectionPolicy):
    """Uniform sampling from whoever the availability trace reports up —
    no selector mediation; without a trace, a full synthetic cohort (the
    pre-registry fallback paths)."""

    def select(self, ctx: SelectionContext, rng: np.random.Generator) -> list[str]:
        if ctx.availability is not None:
            return ctx.availability.sample(ctx.at, ctx.round_updates, rng)
        return [f"synth-{i}" for i in range(ctx.round_updates)]


@policy("selection", "population")
class PopulationSelection(SelectionPolicy):
    """Vectorized selection over a struct-of-arrays
    :class:`~repro.fl.population.ClientPopulation`: mask + index draw,
    weights read straight from the population arrays."""

    def select(self, ctx: SelectionContext, rng: np.random.Generator) -> np.ndarray:
        if ctx.population is None or ctx.selector is None:
            raise ConfigError(
                "population selection needs a ClientPopulation and a selector"
            )
        pop = ctx.population
        return ctx.selector.select_population(pop, rng, pop.available_mask(ctx.at))

    def participant_weights(self, ctx: SelectionContext, picked) -> list[float]:
        return ctx.population.weights(picked)


# ================================================================= admission
#: what an admission policy may decide for an arrival that found every
#: in-flight slot busy
ADMISSION_DECISIONS = ("enqueue", "reject", "defer", "evict-oldest")


@dataclass(frozen=True)
class AdmissionContext:
    """One overflow arrival's view of its tenant's queue."""

    tenant: int
    #: rounds already waiting in the tenant's bounded queue
    queue_len: int
    queue_limit: int
    now: float
    #: deferral budget (seconds); 0 when deferral is not configured
    defer_deadline_s: float = 0.0


class AdmissionPolicy(Policy):
    """What happens to an arrival when the tenant's in-flight slots are
    all busy.  The serving loop admits directly while slots are free —
    policies only see overflow — and it enforces the queue bound: a
    decision may never grow the queue past ``queue_limit`` (``enqueue``
    with a full queue is a conformance violation), and leaving room
    unused (rejecting with a non-full queue) starves the tenant."""

    family = "admission"

    def decide(self, ctx: AdmissionContext) -> str:
        raise NotImplementedError


@policy("admission", "bounded-queue")
class BoundedQueueAdmission(AdmissionPolicy):
    """The default: queue while there is room, reject overflow outright
    (the pre-registry serving loop)."""

    def decide(self, ctx: AdmissionContext) -> str:
        return "enqueue" if ctx.queue_len < ctx.queue_limit else "reject"


@policy("admission", "drop-tail")
class DropTailAdmission(BoundedQueueAdmission):
    """Tail drop, named explicitly: the arriving round is the one shed
    when the queue is full — behaviourally identical to
    ``bounded-queue``, registered separately so tournaments can name the
    overflow discipline they mean."""


@policy("admission", "drop-head")
class DropHeadAdmission(AdmissionPolicy):
    """Head drop: a full queue evicts its *oldest* waiter to admit the
    newcomer — freshest-work-first under overload, at the cost of
    abandoning rounds that already waited longest."""

    def decide(self, ctx: AdmissionContext) -> str:
        return "enqueue" if ctx.queue_len < ctx.queue_limit else "evict-oldest"


@policy("admission", "defer-with-deadline")
class DeferWithDeadlineAdmission(AdmissionPolicy):
    """Park overflow in the deferral room with a shed deadline instead of
    dropping it — the reactive controller's discipline, available
    standalone through ``ReplayConfig.defer_deadline_s``."""

    def decide(self, ctx: AdmissionContext) -> str:
        if ctx.queue_len < ctx.queue_limit:
            return "enqueue"
        return "defer" if ctx.defer_deadline_s > 0 else "reject"


# ================================================================== recovery
@dataclass(frozen=True)
class RecoveryContext:
    """One declared-failed client, seen by the recovery sweep."""

    client_id: str
    #: clients still alive after this sweep's failures
    survivors: int
    quorum: int
    total: int


class RecoveryPolicy(Policy):
    """How a round reacts to clients its heartbeat sweep declared failed.

    ``on_client_failed`` runs once per newly-failed client and returns
    ``"shrink"`` (absorb the loss via the over-provisioning margin) or
    ``"abort"`` (fail the round now, typed); after each sweep
    ``should_abort`` decides whether the surviving cohort still covers
    the round.  Every path must terminate the round — complete, shrink
    to completion, or typed :class:`~repro.common.errors.RoundAbort` —
    never hang.
    """

    family = "recovery"

    def on_client_failed(self, ctx: RecoveryContext) -> str:
        raise NotImplementedError

    def should_abort(self, survivors: int, quorum: int, total: int) -> bool:
        raise NotImplementedError


@policy("recovery", "shrink-or-abort")
class ShrinkOrAbortRecovery(RecoveryPolicy):
    """The paper's §3 loop: shrink the affected leaf's goal per failed
    client; abort only when survivors no longer cover the quorum."""

    def on_client_failed(self, ctx: RecoveryContext) -> str:
        return "shrink"

    def should_abort(self, survivors: int, quorum: int, total: int) -> bool:
        return survivors < quorum


@policy("recovery", "abort-fast")
class AbortFastRecovery(RecoveryPolicy):
    """Fail fast: the first declared failure aborts the round with a
    typed :class:`~repro.common.errors.RoundAbort` — no shrinking, no
    partial cohorts.  Cheapest possible failure handling; tournaments
    measure what that costs in attainment."""

    def on_client_failed(self, ctx: RecoveryContext) -> str:
        return "abort"

    def should_abort(self, survivors: int, quorum: int, total: int) -> bool:
        return survivors < quorum
