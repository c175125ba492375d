"""Tests for the benchmark's own helpers.

Run from the repository root: python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import run

run.load_library()

import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402  (needs the library on sys.path)
from reference import (  # noqa: E402
    alternating_values,
    count_below_band,
    reference_count,
    reference_energies,
    resolves_every_state,
)
from tracing import Span, Tracer  # noqa: E402


def test_reference_count_single_site():
    assert reference_count([2.0]) == 1


@pytest.mark.parametrize("b", [1, 2, 3, 40, 110])
def test_reference_count_alternating_is_b(b):
    assert reference_count(alternating_values(b)) == b
    assert wl.reference_for(wl.Case(f"alt b={b}", alternating_values(b))).n == b


def test_reference_count_empty_potential():
    assert reference_count([]) == 0


def test_zero_pivots_match_the_truncated_operator():
    # half-integer potentials hit exact zero pivots (V = [-2] has D_1 = 0)
    assert count_below_band([-2.0]) == 1
    grid = [x / 2 for x in range(-6, 7)]
    for b in (1, 2):
        for values in itertools.product(grid, repeat=b):
            if values[-1] == 0:
                continue
            assert reference_count(values) == len(reference_energies(values)), values


def test_reference_energies_single_site():
    # V = [2]: alpha = -1/2, lambda = 2 - alpha - 1/alpha = 4.5
    assert reference_energies([2.0]) == pytest.approx([4.5], abs=1e-12)


def test_inputs_are_seeded():
    w = wl.WORKLOADS["crosscheck"]
    a, b, c = wl.make_inputs(w, 7), wl.make_inputs(w, 7), wl.make_inputs(w, 8)
    assert a == b
    assert a != c
    assert len(a) == w.blocks
    for block in a:
        assert [len(case.values) for case in block] == [b for _, b in w.block]
        for case in block:
            assert case.values[-1] != 0.0
            assert all(abs(v) <= wl.RANDOM_RANGE for v in case.values)
    alt = [case for case in a[0] if case.label.startswith("alt")]
    assert [case.values for case in alt] == [alternating_values(b) for b in (40, 80, 110, 110)]


def test_crosscheck_inputs_have_every_state_clear_of_the_band():
    w = wl.WORKLOADS["crosscheck"]
    for block in wl.make_inputs(w, 202):
        for case in block:
            assert resolves_every_state(case.values), case
    # the probe keeps an input with a state the truncation cannot see
    assert not resolves_every_state(wl.EDGE_STATE.values)
    assert resolves_every_state(wl.CLOSE_PAIR.values)


def test_probe_is_seeded_and_holds_the_known_failures():
    w = wl.WORKLOADS["crosscheck"]
    a, b = wl.make_probe(w, 7), wl.make_probe(w, 8)
    assert a == wl.make_probe(w, 7)
    assert a != b
    assert [len(case.values) for case in a] == [*w.probe_b, 8, 40]
    assert a[-2:] == [wl.EDGE_STATE, wl.CLOSE_PAIR]
    assert [len(case.values) for case in wl.make_probe(wl.WORKLOADS["analyze-std"], 7)] == [40] * 20
    assert wl.make_probe(wl.WORKLOADS["analyze-ext"], 7) == []


def test_check_kinds():
    ref = wl.Reference(n=1, energies=(4.5,))
    ref2 = wl.Reference(n=2, energies=(-0.9, 4.5))
    good = wl.Outcome(n=1, states=((-0.5, 4.5 + 1e-9),))
    assert wl.check(good, ref) == wl.OK
    assert wl.check(wl.Outcome(error="UnitCircleViolationError"), ref) == "UnitCircleViolationError"
    assert wl.check(wl.Outcome(n=1, verdicts_hold=False), ref) == wl.FALSE_VERDICT
    assert wl.check(wl.Outcome(n=2, states=good.states), ref) == wl.N_OFF
    assert wl.check(wl.Outcome(n=1, states=((-0.5, 4.5 + 1e-5),)), ref) == wl.ENERGY_OFF
    # near the band edge only the count is checked
    assert wl.check(wl.Outcome(n=1, states=((0.97, 4.5 + 1e-3),)), ref) == wl.OK
    # crosscheck: the oracle must agree with the scan too
    far = ((4.5 + 1e-9, 4.5 + 1e-3, 1e-3),)
    assert wl.check(wl.Outcome(n=1, states=good.states, match=far), ref) == wl.ENERGY_OFF
    # an oracle energy the scan missed is flagged by the op's own match table
    missed = ((4.5 + 1e-9, 4.5, 1e-9), (float("nan"), -0.9, float("nan")))
    assert wl.check(wl.Outcome(n=1, states=good.states, match=missed), ref2) == wl.UNMATCHED
    assert wl.check(wl.Outcome(n=1, states=good.states), ref2) == wl.N_OFF


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert run.percentile(values, 0.5) == 5.0
    assert run.percentile(values, 0.9) == 9.0
    assert run.percentile([3.0], 0.9) == 3.0
    # a failed op ranks above every successful one, whatever its own time
    assert run.percentile([1.0, 2.0, 3.0], 0.5, [True, False, False]) == 3.0
    assert run.percentile([1.0, 2.0, 3.0], 0.9, [True, False, False]) == 1.0


def test_keep_going_stops_at_the_nearest_unit_boundary():
    started_20_s_ago = time.perf_counter() - 20.0
    # two units of 10 s: a third would end at 30 s, nearer 26 s than 20 s is
    assert run.keep_going(started_20_s_ago, 2, 26.0)
    assert not run.keep_going(started_20_s_ago, 2, 24.0)
    # one unit of 20 s: a second would end at 40 s
    assert run.keep_going(started_20_s_ago, 1, 31.0)
    assert not run.keep_going(started_20_s_ago, 1, 29.0)


def test_bisection_time_is_not_scaled():
    assert hostspeed.scaled(0.25, 0.25) == 0.25
    assert hostspeed.scaled(0.25, 0.0) != 0.25


def test_quartile_spread_matches_statistics():
    values = [1.0, 2.0, 4.0, 8.0, 16.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert run.quartile_spread(values) == (med, q1, q3, (q3 - q1) / med)


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.spans = [
        Span("op", None, 0, 0.0, 10.0),
        Span("a", 0, 0, 1.0, 4.0),
        Span("b", 0, 0, 5.0, 9.0),
        Span("op", None, 3, 20.0, 21.0),
    ]
    assert tr.self_times() == {"op": [3.0, 1.0], "a": [3.0], "b": [4.0]}


def test_tracer_records_parents_and_errors():
    tr = Tracer()
    with tr.span("op"):
        with pytest.raises(ValueError):
            with tr.span("stage"):
                raise ValueError
    with tr.span("op"):
        pass
    assert [(s.name, s.parent, s.op, s.error) for s in tr.spans] == [
        ("op", None, 0, False), ("stage", 0, 0, True), ("op", None, 2, False)]
    assert tr.errors("stage") == 1


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = tuple(w["name"] for w in spec["workloads"])
    assert names == run.WORKLOAD_NAMES == tuple(wl.WORKLOADS)


def test_exits_without_the_library(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze-std", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
