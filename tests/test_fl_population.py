"""Struct-of-arrays population: byte-parity with the per-object path.

The contracts :mod:`repro.fl.population` promises (its module docstring):

* generation parity — ``ClientPopulation.generate`` reproduces
  ``make_population``'s speeds/sample counts draw for draw;
* draw parity — batched timing draws equal a loop of per-object
  ``FLClient`` calls against an identically-seeded generator;
* selection parity — ``Selector.select_population`` picks the same
  clients, in the same order, as ``select_available`` over the
  equivalent client list + availability trace;
* availability parity — CSR masks agree with the per-id window dict,
  and ``AvailabilityTrace``'s compiled mask and ``available()`` agree
  with its scalar ``is_available``;
* one validator — a hand-built population's windows go through the same
  ``AvailabilityIndex`` checks as a trace's, and a bad layout raises a
  ``ConfigError`` naming the client.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.fl.model import model_spec
from repro.fl.population import ClientPopulation
from repro.fl.selector import Selector, SelectorConfig
from repro.traces.models import AvailabilityIndex, AvailabilityTrace, availability_trace
from repro.workloads.fedscale import MOBILE_PROFILE, SERVER_PROFILE, make_population


def _pop_pair(n: int, seed: int, profile=MOBILE_PROFILE, horizon: float = 0.0):
    pop = ClientPopulation.generate(n, profile=profile, seed=seed, horizon=horizon)
    ref = make_population(n, profile=profile, seed=seed)
    return pop, ref


def _as_trace(pop: ClientPopulation) -> AvailabilityTrace:
    """The population's CSR windows as a per-id ``AvailabilityTrace``."""
    off = pop.win_offsets
    return AvailabilityTrace(
        horizon=pop.horizon,
        windows={
            pop.client_id(i): tuple(
                zip(
                    pop.win_start[off[i] : off[i + 1]].tolist(),
                    pop.win_end[off[i] : off[i + 1]].tolist(),
                )
            )
            for i in range(pop.size)
        },
    )


def _hand_built(starts, ends, offsets) -> ClientPopulation:
    """A population with the given CSR windows; client ``i`` is ``c-000i``."""
    n = len(offsets) - 1
    return ClientPopulation(
        spec=model_spec("resnet18"),
        prefix="c",
        speed_factors=np.ones(n),
        num_samples=np.ones(n, dtype=np.int64),
        hibernate_max=0.0,
        win_start=np.asarray(starts, dtype=float),
        win_end=np.asarray(ends, dtype=float),
        win_offsets=np.asarray(offsets, dtype=np.int64),
    )


# ---- generation parity ----------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=400), seed=st.integers(0, 2**20))
def test_generate_matches_make_population(n: int, seed: int) -> None:
    pop, ref = _pop_pair(n, seed)
    assert np.array_equal(
        pop.speed_factors, np.array([c.config.speed_factor for c in ref.clients])
    )
    assert np.array_equal(
        pop.num_samples, np.array([ref.sample_counts[c.client_id] for c in ref.clients])
    )
    assert pop.ids() == [c.client_id for c in ref.clients]
    assert pop.hibernate_max == MOBILE_PROFILE.hibernate_max


def test_generate_server_profile_always_on() -> None:
    pop, ref = _pop_pair(50, seed=3, profile=SERVER_PROFILE)
    assert pop.hibernate_max == 0.0
    assert np.array_equal(
        pop.speed_factors, np.array([c.config.speed_factor for c in ref.clients])
    )
    # no windows -> always available
    assert pop.available_mask(123.0).all()


# ---- draw parity ----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    seed=st.integers(0, 2**20),
    draw_seed=st.integers(0, 2**20),
)
def test_batched_draws_match_per_object_flclient(n, seed, draw_seed) -> None:
    pop, ref = _pop_pair(n, seed)
    idx = np.arange(n)
    r_vec, r_obj = make_rng(draw_seed, "t"), make_rng(draw_seed, "t")
    assert np.array_equal(
        pop.training_durations(r_vec, idx),
        np.array([c.training_duration(r_obj) for c in ref.clients]),
    )
    r_vec, r_obj = make_rng(draw_seed, "h"), make_rng(draw_seed, "h")
    assert np.array_equal(
        pop.hibernations(r_vec, idx),
        np.array([c.hibernation(r_obj) for c in ref.clients]),
    )


def test_always_on_hibernations_consume_no_stream() -> None:
    pop, _ = _pop_pair(20, seed=1, profile=SERVER_PROFILE)
    rng = make_rng(0, "x")
    before = rng.bit_generator.state
    assert not pop.hibernations(rng, np.arange(20)).any()
    assert rng.bit_generator.state == before


# ---- selection parity -----------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=300),
    goal=st.integers(min_value=1, max_value=60),
    seed=st.integers(0, 2**20),
    diversity=st.sampled_from(["uniform", "diverse"]),
)
def test_select_population_matches_select_available(n, goal, seed, diversity) -> None:
    pop, ref = _pop_pair(n, seed, horizon=400.0)
    if diversity == "diverse":
        # the per-object path reads FLClient.num_samples (1 without a
        # shard), so cross-path parity only holds for uniform selection;
        # exercise the diverse path against a manual pool instead
        sel = Selector(SelectorConfig(aggregation_goal=goal, diversity="diverse"))
        mask = pop.available_mask(10.0)
        if not mask.any():
            return
        r1, r2 = make_rng(seed, "s"), make_rng(seed, "s")
        picked = sel.select_population(pop, r1, mask)
        pool = np.flatnonzero(mask)
        w = np.maximum(1, pop.num_samples[pool]).astype(float)
        want = min(sel.target_count(), pool.size)
        expect = pool[r2.choice(pool.size, size=want, replace=False, p=w / w.sum())]
        assert np.array_equal(picked, expect)
        return
    sel = Selector(SelectorConfig(aggregation_goal=goal, over_provision=1.0))
    trace = _as_trace(pop)
    at = 10.0
    r1, r2 = make_rng(seed, "s"), make_rng(seed, "s")
    picked = sel.select_population(pop, r1, pop.available_mask(at))
    mask = trace.available_mask(at)[trace.row_index(c.client_id for c in ref.clients)]
    chosen = sel.select_available(ref.clients, r2, mask)
    assert [pop.client_id(int(i)) for i in picked] == [c.client_id for c in chosen]


def test_select_population_empty_pool_is_unformable_round() -> None:
    pop, _ = _pop_pair(10, seed=2, horizon=50.0)
    picked = Selector(SelectorConfig(aggregation_goal=4)).select_population(
        pop, make_rng(0, "s"), np.zeros(10, dtype=bool)
    )
    assert picked.size == 0


# ---- availability parity --------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=150),
    seed=st.integers(0, 2**20),
    at=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
def test_available_mask_matches_window_dict(n, seed, at) -> None:
    pop = ClientPopulation.generate(n, seed=seed, horizon=450.0)
    trace = _as_trace(pop)
    expect = np.array([trace.is_available(pop.client_id(i), at) for i in range(n)])
    assert np.array_equal(pop.available_mask(at), expect)


def test_windows_cover_horizon_and_are_sorted() -> None:
    pop = ClientPopulation.generate(300, seed=9, horizon=800.0)
    off = pop.win_offsets
    assert off[-1] == pop.total_windows
    for i in range(pop.size):
        s = pop.win_start[off[i] : off[i + 1]]
        e = pop.win_end[off[i] : off[i + 1]]
        assert (e >= s).all()
        assert (s[1:] >= e[:-1]).all()  # disjoint, time-ordered
        assert (e <= 800.0).all()


@pytest.mark.parametrize(
    "starts, ends, offsets, error, client",
    [
        ([0, 10, 30], [5, 20, 25], [0, 1, 2, 3], "ends before it starts", "c-0002"),
        ([0, 50, 10], [5, 60, 20], [0, 1, 3, 3], "not sorted by start", "c-0001"),
        ([0, 10, 20], [5, 15, 25], [0, 1, 2, 2], "offsets end at 2", "c-0002"),
        ([0, 10, 20], [5, 15, 25], [0, 2, 1, 3], "negative count", "c-0001"),
    ],
    ids=["inverted", "unsorted", "offsets-short", "negative-count"],
)
def test_hand_built_population_validates_windows(starts, ends, offsets, error, client):
    with pytest.raises(ConfigError, match=error) as info:
        _hand_built(starts, ends, offsets)
    assert repr(client) in str(info.value)


#: one ``[start, end)`` span on a small integer grid, so zero-length spans,
#: overlaps and equal starts all come up often
_SPAN = st.tuples(st.integers(0, 20), st.integers(0, 6)).map(
    lambda sd: (float(sd[0]), float(sd[0] + sd[1]))
)


@settings(max_examples=60, deadline=None)
@given(
    clients=st.lists(st.lists(_SPAN, max_size=5).map(sorted), min_size=1, max_size=6),
    extra=st.lists(st.floats(min_value=-1.0, max_value=30.0, allow_nan=False), max_size=3),
)
def test_index_mask_matches_brute_force(clients, extra) -> None:
    starts = [s for spans in clients for s, _ in spans]
    ends = [e for spans in clients for _, e in spans]
    offsets = np.cumsum([0] + [len(spans) for spans in clients])
    index = AvailabilityIndex(
        np.asarray(starts, dtype=float), np.asarray(ends, dtype=float), offsets, str
    )
    trace = AvailabilityTrace(
        horizon=30.0, windows={f"c-{i:04d}": tuple(spans) for i, spans in enumerate(clients)}
    )
    pop = _hand_built(starts, ends, offsets)
    # query at every window bound (where an off-by-one would show) and a few
    # arbitrary instants
    for at in sorted({*starts, *ends, *extra}):
        brute = np.array([any(s <= at < e for s, e in spans) for spans in clients])
        assert np.array_equal(index.mask(at), brute)
        # the dict route and the CSR route compile to the same mask
        assert np.array_equal(trace.available_mask(at), brute)
        if starts:  # a population without windows is always-on instead
            assert np.array_equal(pop.available_mask(at), brute)


def test_availability_trace_vectorized_available_matches_loop() -> None:
    trace = availability_trace(600, horizon=250.0, seed=8)
    for at in (0.0, 60.0, 249.9, 400.0):
        fast = trace.available(at)
        slow = [cid for cid in trace.client_ids if trace.is_available(cid, at)]
        assert fast == slow
        mask = trace.available_mask(at)
        assert [trace.client_ids[int(i)] for i in np.flatnonzero(mask)] == slow


def test_generate_rejects_bad_inputs() -> None:
    with pytest.raises(ConfigError):
        ClientPopulation.generate(0)
