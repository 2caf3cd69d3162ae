"""Self-tests for the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import dataclasses
import os
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import certs  # noqa: E402
from run import input_count  # noqa: E402
from summary import MIN_SAMPLES, tail  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from worker import SAMPLE_WINDOW_S, Speed  # noqa: E402

from cdvcert import cdvcore, exactlinalg, maps  # noqa: E402


# -- tail percentile -------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_absent_below_eleven_samples(n):
    assert tail(list(range(n))) is None


def test_tail_with_eleven_samples_is_the_minimum():
    value, percentile, count = tail([5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11])
    assert (value, count) == (1, 11)
    assert percentile == pytest.approx(100 / 11)


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(100, 0, -1))
    value, percentile, count = tail(values)
    assert (value, percentile, count) == (90, 90.0, 100)
    assert sum(1 for v in values if v > value) == 10


# -- inputs per run -------------------------------------------------------


def test_input_count_depends_only_on_the_run_length():
    assert input_count("genus10_skip_sap", 34.0) == 20
    assert input_count("genus10_skip_sap", 1.0) == MIN_SAMPLES
    assert input_count("bipartite_sap_sweep", 1.0) == 1
    assert input_count("bipartite_sap_sweep", 61.0) == 2


# -- machine speed ---------------------------------------------------------


def test_speed_ratio_averages_the_samples_near_a_span():
    speed = Speed()
    speed.times = [0.0, 1.0, 2.0, 3.0]
    speed.ratios = [1.0, 2.0, 4.0, 8.0]
    assert speed.ratio(1.0, 2.0) == 3.0
    assert speed.ratio(1.0 + SAMPLE_WINDOW_S, 1.5) == 2.0


def test_speed_is_sampled_while_started():
    speed = Speed()
    speed.start()
    try:
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    finally:
        speed.stop()
    assert len(speed.ratios) >= 3 and speed.spent > 0
    assert speed.times == sorted(speed.times)


# -- spans and self time ---------------------------------------------------


def _clock(*readings):
    it = iter(readings)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=_clock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tracer.begin("root")
    a = tracer.begin("a")
    leaf = tracer.begin("leaf")
    tracer.end(leaf)
    tracer.end(a)
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(root)
    parents = {span[1]: span[4] for span in tracer.spans}
    assert parents == {"root": None, "a": root, "leaf": a, "b": root}
    assert self_times(tracer.spans) == {"root": 3, "a": 2, "leaf": 1, "b": 4}


def test_self_time_counts_overlapping_children_once():
    spans = [
        [0, "parent", 0.0, 10.0, None, 0],
        [1, "child", 2.0, 6.0, 0, 0],
        [2, "child", 4.0, 12.0, 0, 0],
    ]
    times = self_times(spans)
    assert times["parent"] == pytest.approx(2.0)
    assert times["child"] == pytest.approx(12.0)


def test_spans_from_wrapped_entry_points():
    # The 5-cycle shifted by its second eigenvalue: corank 2, full rank.
    graph = maps.SimpleGraph(5, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)))
    shift = certs.QuadScalar(Fraction(-1, 2), Fraction(1, 2), 5)
    operator = cdvcore.build_shift_operator(graph, shift)
    original_rank = exactlinalg.rank
    tracer = Tracer()
    tracer.install()
    try:
        assert cdvcore.rank is exactlinalg.rank is not original_rank
        cert = cdvcore.check_sap(operator)
    finally:
        tracer.uninstall()
    assert exactlinalg.rank is original_rank and cdvcore.rank is original_rank
    assert cert.full_rank
    by_id = {span[0]: span for span in tracer.spans}
    rank_spans = [s for s in tracer.spans if s[1] == "exactlinalg.rank"]
    assert len(rank_spans) == 1
    assert by_id[rank_spans[0][4]][1] == "cdvcore.check_sap"
    assert tracer.counts["cdvcore.check_sap.calls"] == 1
    assert tracer.counts["cdvcore.check_sap.full_rank"] == 1
    # 20 ordered vertex pairs by 5 non-adjacent pairs.
    assert tracer.counts["cdvcore.sap_system.slots"] == 20 * 5
    assert tracer.absent == []


def test_missing_public_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(cdvcore, "spans_match")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["cdvcore.spans_match"]


def test_constructor_counts():
    tracer = Tracer()
    tracer.count_constructors()
    try:
        certs.QuadScalar(1, 2, 3) * certs.QuadScalar(2, 1, 3)
    finally:
        tracer.uninstall()
    assert tracer.counts["exactfield.quadscalar.constructed"] == 3
    assert tracer.counts["exactfield.fraction.constructed"] > 0
    before = dict(tracer.counts)
    certs.QuadScalar(1)
    assert dict(tracer.counts) == before


# -- seeded inputs ---------------------------------------------------------


def test_seed_zero_keeps_the_enumerated_labels():
    assert certs.relabelling(0, 3, 24) == list(range(24))


def test_other_seeds_permute_deterministically():
    perm = certs.relabelling(7, 0, 54)
    assert sorted(perm) == list(range(54))
    assert perm != list(range(54))
    assert perm == certs.relabelling(7, 0, 54)
    assert perm != certs.relabelling(7, 1, 54)


@pytest.mark.parametrize("seed", [0, 7])
def test_klein_verdicts_do_not_depend_on_labels(seed):
    perm = certs.relabelling(seed, 0, certs.KLEIN.vertices)
    assert certs.map_certificate(certs.KLEIN, perm, with_sap=True) == []


def test_genus10_verdicts_do_not_depend_on_labels():
    perm = certs.relabelling(5, 2, certs.GENUS10.vertices)
    assert certs.map_certificate(certs.GENUS10, perm, with_sap=False) == []


def test_wrong_expectation_is_reported():
    wrong = dataclasses.replace(certs.KLEIN, inertia=(1, 7, 16))
    failed = certs.map_certificate(wrong, list(range(24)), with_sap=False)
    assert failed == ["inertia", "corank"]


def test_bipartite_cases_are_shuffled_not_changed():
    plain = certs.bipartite_cases(0)
    shuffled = certs.bipartite_cases(3)
    assert len(plain) == 2249
    assert plain[-2:] == [("witness", 3, 4, ()), ("witness", 4, 5, ())]
    assert shuffled != plain and sorted(shuffled) == sorted(plain)


def test_expected_verdicts_match_sweep_totals():
    verdicts = [
        certs.expected_full_rank(a, b, s)
        for kind, a, b, s in certs.bipartite_cases(0)
        if kind == "sweep"
    ]
    assert verdicts.count(True) == certs.SWEEP_FULL_RANK
    assert verdicts.count(False) == certs.SWEEP_DEFICIENT


@pytest.mark.parametrize(
    "case, full_rank",
    [
        (("sweep", 3, 3, (0,)), True),
        (("sweep", 2, 5, (0, 2)), False),
        (("witness", 3, 4, ()), False),
    ],
)
def test_bipartite_certificate(case, full_rank):
    assert certs.bipartite_certificate(case) == ([], full_rank)
