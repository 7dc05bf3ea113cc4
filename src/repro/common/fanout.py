"""One fan-out primitive: run independent tasks on forked workers or inline.

The sharded replay (tenants), the partitioned round (cohorts) and the geo
replay (regions) all fan independent cells out and fold the results.
:func:`fanout` is the one place that decides how: forked workers when
the caller allows it, more than one worker is useful and the fork start
method is available from this process, the current process otherwise.
Callers fix every seed and input before calling, so both modes return
the same results.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import Callable, Hashable, Mapping, Sequence, TypeVar

__all__ = ["FanoutError", "available_cpus", "balance", "can_fork", "fanout"]

T = TypeVar("T")
R = TypeVar("R")
K = TypeVar("K", bound=Hashable)


class FanoutError(RuntimeError):
    """A forked task raised, or its worker died before reporting it; the
    message names every failed task."""


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware where the OS
    exposes it) — the default worker-count cap."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def can_fork() -> bool:
    """Fork workers need the fork start method and a non-daemonic parent
    (``CampaignRunner --jobs`` pool workers are daemonic and cannot have
    children — there the tasks run inline)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    return not multiprocessing.current_process().daemon


def fanout(
    tasks: Sequence[T],
    fn: Callable[[T], R],
    workers: int | None = None,
    inline: bool = False,
    what: str = "fan-out",
    name: Callable[[T], str] = str,
) -> tuple[list[R], int]:
    """Run ``fn`` on every task; return the results in task order and the
    number of worker processes used (1 when the tasks ran inline).

    ``workers`` caps the forked workers (default: :func:`available_cpus`);
    tasks are dealt round-robin, worker ``w`` running ``tasks[w::n]``
    back to back and sending each result home as it finishes.  The parent
    receives everything a worker sends before joining it, so a large
    result cannot deadlock against a full pipe.  Failures raise one
    :class:`FanoutError` reading ``"<what> failed: <name(task)>: ..."``.
    """
    n = min(len(tasks), workers or available_cpus())
    if inline or n < 2 or not can_fork():
        return [fn(task) for task in tasks], 1

    def worker_main(group: Sequence[T], conn) -> None:
        with conn:
            for task in group:
                try:
                    conn.send(("ok", fn(task)))
                except BaseException:
                    conn.send(("err", traceback.format_exc()))

    ctx = multiprocessing.get_context("fork")
    procs = []
    for w in range(n):
        rx, tx = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=worker_main, args=(tasks[w::n], tx), name=f"{what} w{w}"
        )
        proc.start()
        tx.close()
        procs.append((proc, rx))
    results: list = [None] * len(tasks)
    failures: list[str] = []
    for w, (proc, rx) in enumerate(procs):
        with rx:
            for index in range(w, len(tasks), n):
                try:
                    status, payload = rx.recv()
                except EOFError:
                    proc.join()
                    failures.append(
                        f"{name(tasks[index])}: worker died without reporting "
                        f"(exit code {proc.exitcode})"
                    )
                    break
                if status == "ok":
                    results[index] = payload
                else:
                    failures.append(f"{name(tasks[index])}: {payload}")
        proc.join()
    if failures:
        raise FanoutError(f"{what} failed: " + "; ".join(failures))
    return results, n


def balance(weights: Mapping[K, int], n: int) -> tuple[tuple[K, ...], ...]:
    """Split the keys of ``weights`` into at most ``n`` groups of similar
    total weight, for :func:`fanout` to run one task per group.

    Greedy longest-processing-time: keys are taken heaviest first (ties by
    key) and each joins the lightest group (ties by group index).  Each
    group comes back sorted; there are ``min(n, len(weights))`` groups, so
    no group is empty.
    """
    n = min(n, len(weights))
    loads = [0] * n
    members: list[list[K]] = [[] for _ in range(n)]
    for key in sorted(weights, key=lambda k: (-weights[k], k)):
        group = min(range(n), key=lambda i: (loads[i], i))
        loads[group] += weights[key]
        members[group].append(key)
    return tuple(tuple(sorted(m)) for m in members)
