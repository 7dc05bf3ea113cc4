"""Output checks: conservation of round outcomes and FedAvg weight, and
determinism of the simulated outputs across repetitions."""

from __future__ import annotations

import math

from perfbench.workloads import Outcome


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def check_outcome(outcome: Outcome) -> list[str]:
    """Every violated invariant of one repetition, as a message."""
    problems = []
    tally = outcome.tally()
    if len(outcome.rows) != outcome.offered:
        problems.append(
            f"{len(outcome.rows)} round records for {outcome.offered} offered rounds"
        )
    settled = sum(tally.values())
    if settled != outcome.offered:
        problems.append(
            f"offered {outcome.offered} != completed + aborted + rejected + shed "
            f"= {settled} {tally}"
        )
    if tally != outcome.engine_tally:
        problems.append(f"round records {tally} disagree with engine tally {outcome.engine_tally}")
    if outcome.wan_weight is not None and not _close(
        outcome.wan_weight, outcome.nonroot_weight
    ):
        problems.append(
            f"WAN shipped weight {outcome.wan_weight!r} != completed non-root "
            f"participant weight {outcome.nonroot_weight!r}"
        )
    for row in outcome.rows:
        emitted = outcome.emitted_weight.get(row.key)
        if emitted is not None and row.status == "completed" and not _close(emitted, row.weight):
            problems.append(
                f"round {row.key}: total_weight {emitted!r} != participant weight {row.weight!r}"
            )
    return problems


def check_digests(digests: list[str]) -> list[str]:
    """The simulated outputs of one seed must repeat exactly."""
    if len(set(digests)) > 1:
        return [f"simulated outputs differ between repetitions: {digests}"]
    return []
