"""Tests of the benchmark itself: its reference computations agree with the
library on small cases, its checks reject a damaged output, and the traced
run's outputs equal the untraced run's bit for bit.

    python3 -m pytest perfbench -q
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gwtheta.analytics as analytics  # noqa: E402
import gwtheta.series as series  # noqa: E402
import gwtheta.simulator as simulator  # noqa: E402
from gwtheta.errors import CutoffExceeded  # noqa: E402
from gwtheta.harness import registry, scenario_model  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402


@pytest.mark.parametrize("sc", registry(), ids=lambda sc: sc.id)
def test_composed_pgf_matches_closed_form(sc):
    m = sc.model
    steps = ref.step_values(m, 60)
    for n in (1, 5, 60):
        cc = analytics.composite_constants(m, n)
        for s in (0.0, 0.5, 1.0):
            want = analytics.pgf_from_constants(m.theta, m.r, cc, s)
            assert ref.composed_pgf(m.theta, m.r, steps, n, s) == \
                pytest.approx(want, abs=1e-13)
        assert ref.product_of_a(steps, n) == pytest.approx(cc.A, rel=1e-13)
        assert ref.sum_of_c(steps, n) == pytest.approx(cc.C, rel=1e-13)


def test_dyadic_exact_matches_library():
    m = scenario_model("Ex5")
    for k, (A, C) in ref.dyadic_exact([15, 31, 63, 64]).items():
        cc = analytics.composite_constants(m, k)
        assert cc.A == pytest.approx(float(A), rel=1e-14)
        assert cc.C == pytest.approx(float(C), rel=1e-14)


@pytest.mark.parametrize("theta,r,A,C,closed_form", [
    (1.0, 1.0, 0.2, 0.8, ref.linear_fractional_pmf),
    (1.0, 2.0, 0.3, 0.5, ref.linear_fractional_pmf),
    (-0.5, 1.0, 0.6, 0.3, ref.half_power_pmf),
    (-0.5, 2.0, 0.4, 0.5, ref.half_power_pmf),
])
def test_closed_form_pmfs_match_series(theta, r, A, C, closed_form):
    try:
        pmf = series.pmf_from_theta_pgf(theta, r, A, C, tail_tol=1e-6,
                                        max_cutoff=2 ** 12)
    except CutoffExceeded as err:       # the heavy theta = -1/2, r = 1 tail
        pmf = err.partial
    want = closed_form(r, A, C, pmf.cutoff)
    assert np.max(np.abs(pmf.weights - want)) < 1e-14


def test_laplace_matches_closed_form():
    m = scenario_model("Ex1")
    steps = ref.step_values(m, 30)
    cc = analytics.composite_constants(m, 30)
    for lam in (0.5, 2.0):
        s = math.exp(-lam * cc.A)
        assert ref.laplace_at(1.0, steps, 30, lam) == pytest.approx(
            analytics.pgf_from_constants(1.0, 1.0, cc, s), abs=1e-13)


def test_checks_reject_damaged_outputs():
    m = scenario_model("Ex7i")
    stats = simulator.run_ensemble(m, 20, 500, 3, mode="direct")
    assert workloads._ensemble_checks(stats, m, 20, 500) == []
    moved = dataclasses.replace(stats, zero_freq=(stats.zero_freq[0] + 0.2,
                                                  stats.zero_freq[1]))
    assert workloads._ensemble_checks(moved, m, 20, 500)
    pmf = series.population_pmf(m, 20)
    closed = (lambda J: ref.linear_fractional_pmf(
        2.0, ref.product_of_a(ref.step_values(m, 20), 20),
        ref.sum_of_c(ref.step_values(m, 20), 20), J))
    assert workloads._pmf_checks(pmf, closed) == []
    bent = pmf.weights.copy()
    bent[3] += 1e-9
    assert workloads._pmf_checks(dataclasses.replace(pmf, weights=bent),
                                 closed)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_equal_untraced(workload):
    ops = workloads.build(workload, 2024)
    plain = []
    for op in ops:
        out = op.call()
        assert op.check(out) == [], op.name
        plain.append(workloads.digest(out))
    originals = (series.population_pmf, simulator.step_pmf,
                 analytics.constants_iter)
    tracer = Tracer()
    tracer.install()
    try:
        assert simulator.step_pmf is not originals[1]
        traced = [workloads.digest(op.call()) for op in ops]
    finally:
        tracer.uninstall()
    assert (series.population_pmf, simulator.step_pmf,
            analytics.constants_iter) == originals
    assert traced == plain
    assert tracer.functions       # spans were recorded
