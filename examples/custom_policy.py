"""The custom-policy walkthrough, runnable end to end.

Registers a new selection policy — ``freshest-first``, which fills the
round with the clients that became available most recently — and serves
a small Poisson trace with it through the real replay engine, twice, to
show the registry knob and the determinism contract in their minimal
form.  This is the companion example for the "Registering a custom
policy" section of ``docs/scenario-authoring.md``; the conformance suite
(``tests/test_policy_conformance.py``) imports this module so the
example policy is held to the same property tests as the built-ins.

Run:  PYTHONPATH=src python examples/custom_policy.py
"""

from __future__ import annotations

from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.core.policies import POLICIES, SelectionContext, SelectionPolicy, policy
from repro.traces.models import availability_trace, poisson_trace
from repro.traces.replay import ReplayConfig, TraceReplayEngine


# A policy is a class: subclass the family's ABC, implement its decision
# method(s), and register it under a (family, name) pair with @policy.
# Every random draw must come from the per-round ``rng`` the engine
# injects (or ``self.rng``, the stream resolve_policy binds) — module
# or global randomness would break seeded-replay determinism, and the
# conformance suite's determinism property catches exactly that.
@policy("selection", "freshest-first")
class FreshestFirstSelection(SelectionPolicy):
    """Pick the ``round_updates`` clients whose current availability
    session started last — mobile clients that just came online are the
    least likely to churn away mid-round.  Ties (and the no-trace
    fallback) stay deterministic: client ids break ties, and draws for
    jittering equal-freshness cohorts come from the injected ``rng``."""

    def select(self, ctx: SelectionContext, rng) -> list[str]:
        if ctx.availability is None:
            # No availability trace: same synthetic cohort the built-in
            # random policy falls back to.
            return [f"synth-{i}" for i in range(ctx.round_updates)]
        up = ctx.availability.sample(ctx.at, 10 * ctx.round_updates, rng)
        ranked = sorted(
            up, key=lambda cid: (-self._session_start(ctx, cid), cid)
        )
        return ranked[: ctx.round_updates]

    @staticmethod
    def _session_start(ctx: SelectionContext, client_id: str) -> float:
        """When the client's current availability session began."""
        for start, end in ctx.availability.windows.get(client_id, ()):
            if start <= ctx.at < end:
                return start
        return float("-inf")


def main() -> None:
    # Registration is immediate: the registry now lists the new name and
    # any ReplayConfig can resolve it.
    assert "freshest-first" in POLICIES["selection"].names()

    seed = 42
    trace = poisson_trace(12.0, 120.0, seed=seed)
    avail = availability_trace(40, 120.0, seed=seed)

    def serve() -> dict:
        replay = TraceReplayEngine(
            AggregationPlatform(
                PlatformConfig.lifl(), node_names=[f"node{i}" for i in range(4)]
            ),
            trace,
            ReplayConfig(
                round_updates=8,
                max_inflight=2,
                queue_limit=4,
                slo_target_s=15.0,
                selection_policy="freshest-first",  # <-- the registry knob
            ),
            availability=avail,
            seed=seed,
        )
        return replay.run().row()

    row = serve()
    print(f"freshest-first served {row['rounds']} rounds, "
          f"p95 {row['latency_p95_s']:.2f}s, "
          f"attainment {row['slo_attainment']:.1%}")
    assert row["rounds"] > 0 and row["completed"] > 0
    # The determinism contract: same seed, same bytes — because every
    # draw went through the injected per-round stream.
    assert serve() == row, "custom policy must be seed-deterministic"
    print("second replay with the same seed is identical — determinism holds")


if __name__ == "__main__":
    main()
