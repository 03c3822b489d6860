import math

import pytest

from gwtheta.analytics import (DETERMINED, INFINITE, OSCILLATING,
                               _detect_positive_limit,
                               absorption_probabilities, limit_constants,
                               subsequence_b_values)
from gwtheta.errors import DomainError, UndeterminedLimit
from gwtheta.harness import scenario_model

HORIZON = 10 ** 4


def limits(sid):
    return limit_constants(scenario_model(sid), HORIZON)


def test_ex1_limits():
    lim = limits("Ex1")
    assert lim.A.status == DETERMINED and lim.A.value <= 1e-6
    assert lim.C.status == DETERMINED
    assert lim.C.value == pytest.approx(1.0, abs=1e-3)


def test_ex2_limits():
    lim = limits("Ex2")
    assert lim.A.value == pytest.approx(1 / 3, rel=1e-3)
    assert lim.C.value == pytest.approx(2 / 3, rel=1e-3)


def test_ex3_limits():
    lim = limits("Ex3")
    assert lim.C.status == INFINITE
    assert lim.B.status == INFINITE


def test_ex4_limits():
    lim = limits("Ex4a")
    assert lim.A.status == INFINITE
    assert lim.C.status == DETERMINED
    assert lim.B.status == DETERMINED and lim.B.value <= 1e-3
    lim = limits("Ex4b")
    assert lim.C.status == INFINITE
    assert lim.B.status == DETERMINED
    assert lim.B.value == pytest.approx(1.0, rel=1e-3)


def test_ex5_b_oscillates():
    lim = limits("Ex5")
    assert lim.C.status == INFINITE
    assert lim.B.status == OSCILLATING
    assert "window" in lim.B.rule


def test_ex5_subsequence_values():
    model = scenario_model("Ex5")
    ups = subsequence_b_values(model, [2 ** m for m in (8, 10, 12)])
    downs = subsequence_b_values(model, [2 ** m - 1 for m in (8, 10, 12)])
    assert ups[-1] > 4 * ups[0] > 100       # diverges along 2^m
    assert downs[-1] == pytest.approx(1.0, rel=1e-2)


def test_ex6_limits():
    lim = limits("Ex6i")
    assert lim.A.value <= 1e-6 and lim.D.value == 0.0
    lim = limits("Ex6ii")
    assert lim.A.value <= 1e-6
    assert lim.D.value == pytest.approx(math.exp(-1), rel=1e-3)
    lim = limits("Ex6iii")
    assert lim.A.value == pytest.approx(1 / 3, rel=1e-3)
    assert lim.D.value == 0.0
    lim = limits("Ex6iv")
    assert lim.A.value == pytest.approx(1 / 3, rel=1e-3)
    assert lim.D.value == pytest.approx(math.exp(-2 / 3), rel=1e-2)


def test_defective_limits():
    lim = limits("Ex7i")
    assert lim.A.value <= 1e-6
    assert lim.C.value == pytest.approx(0.75, rel=1e-3)
    lim = limits("Ex7ii")
    assert lim.A.value == pytest.approx(1 / 3, rel=1e-3)
    assert lim.C.value == pytest.approx(0.5, rel=1e-3)


def test_stabilized_rule_is_relative():
    # x_n = 1/n at the checkpoints of N = 10^6: every increment is below
    # tol = 1e-6, yet x_n halves per doubling and its limit is 0
    N = 10 ** 6
    cks = [8 / N, 4 / N, 2 / N, 4 / (3 * N), 1 / N]
    est = _detect_positive_limit(cks, 1e-6, cks[2] - cks[4])
    assert (est.status, est.value) == (DETERMINED, 0.0)
    assert est.rule == "log increments not decaying (decay to 0)"
    # a value near 1 with the same absolute increments has stabilized
    near_one = [1.0 + x for x in cks]
    est = _detect_positive_limit(near_one, 1e-6, cks[2] - cks[4])
    assert (est.status, est.value, est.rule) == (
        DETERMINED, near_one[-1], "stabilized")


def test_horizon_and_tol_validation():
    model = scenario_model("Ex1")
    with pytest.raises(DomainError):
        limit_constants(model, 5)
    with pytest.raises(DomainError):
        limit_constants(model, 100, tol=0.0)
    # NaN fails every comparison, so it must not pass as a positive tol
    with pytest.raises(DomainError, match="tol must be > 0"):
        limit_constants(model, 100, tol=math.nan)


def test_finite_value_raises_on_undetermined():
    lim = limits("Ex3")
    with pytest.raises(UndeterminedLimit):
        lim.B.finite_value("B")


# -- absorption probabilities -------------------------------------------------

def test_absorption_ex1():
    ab = absorption_probabilities(scenario_model("Ex1"), limits("Ex1"))
    assert ab.q == pytest.approx(0.0, abs=1e-3)
    assert ab.q_delta == 0.0


def test_absorption_ex3_certain_extinction():
    ab = absorption_probabilities(scenario_model("Ex3"), limits("Ex3"))
    assert ab.q == 1.0 and ab.q_delta == 0.0


def test_absorption_ex9ii_closed_form():
    # q = 2 - 2^{1/3} (2 - sigma)^{2/3} with sigma = 1/2
    ab = absorption_probabilities(scenario_model("Ex9ii"), limits("Ex9ii"))
    q_exact = 2.0 - 2.0 ** (1 / 3) * 1.5 ** (2 / 3)
    qd_exact = -1.0 + 1.5 ** (2 / 3)
    assert ab.q == pytest.approx(q_exact, abs=1e-4)
    assert ab.q_delta == pytest.approx(qd_exact, abs=1e-4)
    assert ab.Q == pytest.approx(ab.q + ab.q_delta)


def test_absorption_ex10():
    ab = absorption_probabilities(scenario_model("Ex10i"), limits("Ex10i"))
    assert ab.q == pytest.approx(0.75, abs=1e-3)
    assert ab.q_delta == pytest.approx(0.25, abs=1e-3)
    ab = absorption_probabilities(scenario_model("Ex10ii"), limits("Ex10ii"))
    # Q = 1 - (1/3 + 1/3)^2 + (1/3)^2 with alpha = 2, A = 1/3, C = sigma·2/3
    assert ab.Q == pytest.approx(1 - (2 / 3) ** 2 + (1 / 3) ** 2, abs=1e-3)


def test_absorption_ex6_total():
    ab = absorption_probabilities(scenario_model("Ex6ii"), limits("Ex6ii"))
    assert ab.q == pytest.approx(1 - math.exp(-1), rel=1e-3)
    assert ab.q_delta == 0.0
