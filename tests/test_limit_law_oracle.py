"""Limit-law descriptors and absorption probabilities against an oracle that
writes each theta-family limit out by hand, as the descriptors once did."""

import dataclasses
import itertools
import math

import pytest

from gwtheta.analytics import (INFINITE, UNDETERMINED, LimitEstimate,
                               absorption_probabilities, limit_constants,
                               limit_law)
from gwtheta.errors import UndeterminedLimit
from gwtheta.harness import registry, scenario_model

HORIZON = 10 ** 4
GRID = tuple(j / 10.0 for j in range(11))
TOL = 4.5e-16
WITH_LAW = {"T2", "T4", "T5ii", "T6iii", "T6iv", "T7ii", "T8ii", "T9ii",
            "T10i", "T10ii"}
SUB_UP = [2 ** k for k in range(4, 13)]
SUB_DOWN = [2 ** k - 1 for k in range(4, 13)]


def oracle_evaluate(desc, x):
    """Each limit transform in closed form, by theorem."""
    tid, p = desc.theorem_id, desc.param
    if tid == "T1":
        theta, C = p("theta"), p("C")
        if x == 0.0:
            return 1.0
        return 1.0 - (x ** (-theta) + C) ** (-1.0 / theta)
    if tid == "T2":
        theta, A, C = p("theta"), p("A"), p("C")
        if x == 1.0:
            return 1.0
        return 1.0 - (A * (1.0 - x) ** (-theta) + C) ** (-1.0 / theta)
    if tid in ("T3", "T5i"):
        theta = p("theta")
        if x == 0.0:
            return 1.0
        return 1.0 - (1.0 + x ** (-theta)) ** (-1.0 / theta)
    if tid in ("T4", "T5ii"):
        theta, B = p("theta"), p("B")
        if x == 1.0:
            return 1.0
        w = (1.0 - x) ** (-theta)
        return 1.0 - ((w + B) / (1.0 + B)) ** (-1.0 / theta)
    if tid == "T6i":
        return 1.0 - math.exp(-x)
    if tid == "T6ii":
        return 1.0 - math.exp(-x) * p("D")
    if tid == "T6iii":
        return 1.0 - (1.0 - x) ** p("A")
    if tid == "T6iv":
        return 1.0 - (1.0 - x) ** p("A") * p("D")
    if tid == "T7i":
        theta, r = p("theta"), p("r")
        return (((r - x) ** (-theta) - r ** (-theta))
                / ((r - 1.0) ** (-theta) - r ** (-theta)))
    if tid == "T7ii":
        theta, r, A, C = p("theta"), p("r"), p("A"), p("C")
        return r - (A * (r - x) ** (-theta) + C) ** (-1.0 / theta)
    if tid == "T8i":
        ia, r = 1.0 / p("alpha"), p("r")
        return (r ** ia - (r - x) ** ia) / (r ** ia - (r - 1.0) ** ia)
    if tid == "T8ii":
        alpha, r, A, C = p("alpha"), p("r"), p("A"), p("C")
        return r - (A * (r - x) ** (1.0 / alpha) + C) ** alpha
    if tid == "T9i":
        r = p("r")
        return ((math.log(r) - math.log(r - x))
                / (math.log(r) - math.log(r - 1.0)))
    if tid == "T9ii":
        r, A, D = p("r"), p("A"), p("D")
        return r - (r - x) ** A * D
    if tid == "T10i":
        return 1.0 - (1.0 - x) ** (1.0 / p("alpha"))
    if tid == "T10ii":
        alpha, A, C = p("alpha"), p("A"), p("C")
        return 1.0 - (A * (1.0 - x) ** (1.0 / alpha) + C) ** alpha
    raise AssertionError(tid)


def _clamp01(x):
    return min(1.0, max(0.0, x))


def oracle_absorption(model, limits):
    """(q, q_Delta) by case, each formula written out."""
    theta, r, case = model.theta, model.r, model.case_label
    if case == "a":
        if limits.C.is_infinite:
            return 1.0, 0.0
        C = limits.C.finite_value("C")
        if limits.A.is_infinite:
            return 1.0, 0.0
        A = limits.A.finite_value("A")
        return _clamp01(1.0 - (A + C) ** (-1.0 / theta)), 0.0
    if case in ("b", "d"):
        A = limits.A.finite_value("A")
        C = limits.C.finite_value("C")
        q = r - (A * r ** (-theta) + C) ** (-1.0 / theta)
        q_delta = 1.0 - r + (A * (r - 1.0) ** (-theta) + C) ** (-1.0 / theta)
        return _clamp01(q), _clamp01(q_delta)
    if case == "c":
        alpha = -1.0 / theta
        A = limits.A.finite_value("A")
        C = limits.C.finite_value("C")
        return _clamp01(1.0 - (A + C) ** alpha), _clamp01(C ** alpha)
    if case == "e":
        return _clamp01(1.0 - limits.D.finite_value("D")), 0.0
    A = limits.A.finite_value("A")
    D = limits.D.finite_value("D")
    return (_clamp01(r - r ** A * D),
            _clamp01(1.0 - r + (r - 1.0) ** A * D))


def _cases():
    """(label, model, limits, descriptor) for every scenario, with Ex5 along
    both of its subsequences."""
    out = []
    for sc in registry():
        lim = limit_constants(sc.model, HORIZON)
        if sc.id == "Ex5":
            for tag, sub in (("up", SUB_UP), ("down", SUB_DOWN)):
                out.append((f"Ex5_{tag}", sc.model, lim,
                            limit_law(sc.model, lim, subsequence=sub)))
        else:
            out.append((sc.id, sc.model, lim, limit_law(sc.model, lim)))
    return out


CASES = _cases()


@pytest.mark.parametrize("label,model,lim,desc", CASES,
                         ids=[c[0] for c in CASES])
def test_evaluate_matches_oracle(label, model, lim, desc):
    for x in GRID:
        assert desc.evaluate(x) == pytest.approx(oracle_evaluate(desc, x),
                                                 rel=0.0, abs=TOL), x


@pytest.mark.parametrize("label,model,lim,desc", CASES,
                         ids=[c[0] for c in CASES])
def test_absorption_matches_oracle(label, model, lim, desc):
    ab = absorption_probabilities(model, lim)
    q, q_delta = oracle_absorption(model, lim)
    assert ab.q == pytest.approx(q, rel=0.0, abs=TOL)
    assert ab.q_delta == pytest.approx(q_delta, rel=0.0, abs=TOL)


def test_descriptors_carry_a_law_exactly_for_theta_family_limits():
    tids = {desc.theorem_id for *_, desc in CASES}
    assert tids >= WITH_LAW
    for label, _, _, desc in CASES:
        assert (desc.law is not None) == (desc.theorem_id in WITH_LAW), label


def _absorption(model, lim):
    ab = absorption_probabilities(model, lim)
    return ab.q, ab.q_delta


def _outcome(fn, model, lim):
    try:
        return fn(model, lim)
    except UndeterminedLimit as err:
        return ("raises", str(err))


# one scenario per case: a, b, c, d, e, f
_BY_CASE = ("Ex2", "Ex7ii", "Ex10ii", "Ex8ii", "Ex6iv", "Ex9ii")


@pytest.mark.parametrize("sid", _BY_CASE)
def test_undetermined_limits_raise_in_the_same_order(sid):
    model = scenario_model(sid)
    base = limit_constants(model, HORIZON)
    raised = 0
    for status in (UNDETERMINED, INFINITE):
        bad = LimitEstimate(status, None, "test")
        for k in (1, 2, 3):
            for names in itertools.combinations("ACD", k):
                lim = dataclasses.replace(base, **{n: bad for n in names})
                want = _outcome(oracle_absorption, model, lim)
                got = _outcome(_absorption, model, lim)
                if want[0] == "raises":
                    raised += 1
                    assert got == want, (names, status)
                else:
                    assert got == pytest.approx(want, rel=0.0, abs=TOL), \
                        (names, status)
    assert raised > 0
