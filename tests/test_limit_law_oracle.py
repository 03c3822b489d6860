"""Limit-law descriptors and absorption probabilities against an oracle that
writes each theta-family limit out by hand, as the descriptors once did."""

import dataclasses
import itertools
import math

import pytest

from gwtheta.analytics import (CDF, DETERMINED, INFINITE, LAPLACE,
                               OSCILLATING, PGF, UNDETERMINED, LimitEstimate,
                               LimitLawDescriptor, absorption_probabilities,
                               limit_constants, limit_law)
from gwtheta.classifier import UNDETERMINED_REGIME, classify
from gwtheta.environment import ThetaLaw
from gwtheta.errors import GwThetaError, NoLimitLaw, UndeterminedLimit
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


# ---------------------------------------------------------------------------
# The regime decision: limit_law against a copy of the case-by-case tree it
# once walked on its own (the Ex5 subsequence branch left out)
# ---------------------------------------------------------------------------

def _oracle_is_zero(est):
    return est.is_determined and est.value <= 1e-9


def _oracle_conditional_law(theta, B):
    return ThetaLaw(theta, 1.0, 1.0 / (1.0 + B), B / (1.0 + B), None)


def oracle_limit_law(model, limits):
    theta, r, case = model.theta, model.r, model.case_label
    D_ = LimitLawDescriptor
    if case == "a":
        if not (limits.C.is_determined or limits.C.is_infinite):
            raise UndeterminedLimit("limit C is undetermined")
        if limits.C.is_determined:
            C = limits.C.value
            if _oracle_is_zero(limits.A):
                return D_("T1", LAPLACE, (("theta", theta), ("C", C)),
                          "multiply Z_n by A_n^(1/theta)")
            if limits.A.is_infinite:
                return D_("T4", PGF, (("theta", theta), ("B", 0.0)),
                          "pgf of Z_n conditioned on Z_n > 0",
                          _oracle_conditional_law(theta, 0.0))
            A = limits.A.finite_value("A")
            return D_("T2", PGF, (("theta", theta), ("A", A), ("C", C)),
                      "pgf of Z_n (no scaling; almost-sure limit)",
                      limits.law(theta, r))
        if limits.B.is_infinite:
            return D_("T3", LAPLACE, (("theta", theta),),
                      "Laplace argument lambda_n = lambda * B_n^(-1/theta), "
                      "conditioned on Z_n > 0")
        if limits.B.is_determined:
            return D_("T4", PGF, (("theta", theta), ("B", limits.B.value)),
                      "pgf of Z_n conditioned on Z_n > 0",
                      _oracle_conditional_law(theta, limits.B.value))
        if limits.B.status == OSCILLATING:
            raise NoLimitLaw("loosely subcritical regime")
        raise UndeterminedLimit("limit B is undetermined")
    if case == "e":
        a_zero = _oracle_is_zero(limits.A)
        d_zero = _oracle_is_zero(limits.D)
        A = limits.A.finite_value("A")
        D = limits.D.finite_value("D")
        if a_zero and d_zero:
            return D_("T6i", CDF, (), "multiply ln Z_n by A_n, conditioned "
                      "on Z_n > 0")
        if a_zero:
            return D_("T6ii", CDF, (("D", D),), "multiply ln Z_n by A_n")
        if d_zero:
            return D_("T6iii", PGF, (("A", A),),
                      "pgf of Z_n conditioned on Z_n > 0",
                      ThetaLaw(0.0, 1.0, A, 0.0, 0.0))
        return D_("T6iv", PGF, (("A", A), ("D", D)),
                  "pgf of Z_n (no scaling; almost-sure limit)",
                  limits.law(theta, r))
    survive = "pgf of Z_n conditioned on tau > n"
    restricted = "restricted pgf E(s^{Z_n}; tau_Delta > n) (no scaling)"
    if case == "b":
        C = limits.C.finite_value("C")
        if _oracle_is_zero(limits.A):
            return D_("T7i", PGF, (("theta", theta), ("r", r), ("C", C)),
                      survive)
        A = limits.A.finite_value("A")
        return D_("T7ii", PGF,
                  (("theta", theta), ("r", r), ("A", A), ("C", C)),
                  restricted, limits.law(theta, r))
    if case == "d":
        alpha = -1.0 / theta
        C = limits.C.finite_value("C")
        if _oracle_is_zero(limits.A):
            return D_("T8i", PGF, (("alpha", alpha), ("r", r), ("C", C)),
                      survive)
        A = limits.A.finite_value("A")
        return D_("T8ii", PGF,
                  (("alpha", alpha), ("r", r), ("A", A), ("C", C)),
                  restricted, limits.law(theta, r))
    if case == "f":
        D = limits.D.finite_value("D")
        if _oracle_is_zero(limits.A):
            return D_("T9i", PGF, (("r", r),), survive)
        A = limits.A.finite_value("A")
        return D_("T9ii", PGF, (("r", r), ("A", A), ("D", D)), restricted,
                  limits.law(theta, r))
    alpha = -1.0 / theta
    C = limits.C.finite_value("C")
    if _oracle_is_zero(limits.A):
        return D_("T10i", PGF, (("alpha", alpha), ("C", C)), survive,
                  ThetaLaw(0.0, 1.0, -theta, 0.0, 0.0))
    A = limits.A.finite_value("A")
    return D_("T10ii", PGF, (("alpha", alpha), ("A", A), ("C", C)),
              "restricted pgf E(s^{Z_n}; tau > n) (no scaling)",
              limits.law(theta, r))


def _est(status, value=None):
    return LimitEstimate(status, value, "test")


_A_STATUSES = (_est(DETERMINED, 0.0), _est(DETERMINED, 0.4), _est(INFINITE),
               _est(UNDETERMINED))
_C_STATUSES = (_est(DETERMINED, 0.7), _est(INFINITE), _est(UNDETERMINED))
_D_STATUSES = (_est(DETERMINED, 0.0), _est(DETERMINED, 0.6),
               _est(UNDETERMINED))
_B_STATUSES = (_est(DETERMINED, 1.5), _est(INFINITE), _est(OSCILLATING),
               _est(UNDETERMINED))


def _decision(fn, model, limits):
    try:
        return fn(model, limits)
    except GwThetaError as err:
        return type(err)


@pytest.mark.parametrize("sid", _BY_CASE)
def test_limit_law_decision_matches_oracle(sid):
    model = scenario_model(sid)
    base = limit_constants(model, HORIZON)
    outcomes = set()
    for A, C, D, B in itertools.product(_A_STATUSES, _C_STATUSES,
                                        _D_STATUSES, _B_STATUSES):
        lim = dataclasses.replace(base, A=A, C=C, D=D, B=B)
        want = _decision(oracle_limit_law, model, lim)
        got = _decision(limit_law, model, lim)
        where = (A.status, A.value, C.status, D.status, D.value, B.status)
        if isinstance(want, LimitLawDescriptor):
            assert isinstance(got, LimitLawDescriptor), where
            assert got.to_dict() == want.to_dict(), where
            assert got.law == want.law, where
            outcomes.add(got.theorem_id)
        else:
            assert got is want, where
            outcomes.add(want.__name__)
        assert ((classify(model, lim).regime == UNDETERMINED_REGIME)
                == (got is UndeterminedLimit)), where
    # every row reaches a law and an undetermined limit
    assert UndeterminedLimit.__name__ in outcomes
    assert len(outcomes) > 1
