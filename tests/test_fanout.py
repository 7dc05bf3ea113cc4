"""The fan-out primitive (`repro.common.fanout`).

The engines' own tests cover a shard whose task raises; these cover what
they do not reach: a worker that dies without reporting, results larger
than the pipe buffer, task order across workers, and one error naming
every failed task.
"""

from __future__ import annotations

import os

import pytest

from repro.common.fanout import FanoutError, can_fork, fanout

forking = pytest.mark.skipif(not can_fork(), reason="fork start method unavailable")


def _name(task: int) -> str:
    return f"task {task}"


@forking
def test_worker_that_dies_without_reporting_is_named_not_hung():
    def fn(task: int) -> int:
        if task == 1:
            os._exit(3)
        return task

    with pytest.raises(FanoutError) as err:
        fanout([0, 1], fn, workers=2, what="demo", name=_name)
    msg = str(err.value)
    assert msg.startswith("demo failed: task 1: worker died without reporting")
    assert "exit code 3" in msg
    assert "task 0" not in msg


@forking
def test_payloads_larger_than_the_pipe_buffer_do_not_deadlock():
    size = 1 << 20
    results, workers = fanout([1, 2], lambda task: bytes([task]) * size, workers=2)
    assert workers == 2
    assert results == [b"\x01" * size, b"\x02" * size]


@forking
def test_forked_and_inline_return_equal_lists_in_task_order():
    tasks = list(range(7))
    forked, n_forked = fanout(tasks, lambda task: task * task, workers=2)
    inline, n_inline = fanout(tasks, lambda task: task * task, workers=2, inline=True)
    assert (n_forked, n_inline) == (2, 1)
    assert forked == inline == [task * task for task in tasks]


@forking
def test_error_names_every_failed_task():
    def fn(task: int) -> int:
        if task % 2:
            raise ValueError(f"odd {task}")
        return task

    with pytest.raises(FanoutError, match="^demo failed: task 1: ") as err:
        fanout(list(range(4)), fn, workers=2, what="demo", name=_name)
    msg = str(err.value)
    assert "ValueError: odd 1" in msg and "task 3: " in msg
    assert "ValueError: odd 3" in msg and "task 0" not in msg
