import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from gwtheta.analytics import (composed_pgf, composite_constants,
                               conditional_pgf, constants_at,
                               constants_table, limit_constants,
                               pgf_from_constants, survival_and_moments)
from gwtheta.environment import (EnvSequence, ThetaModel, step_pgf,
                                 validate_model)
from gwtheta.errors import ConditioningOnNull, DomainError, GwThetaError
from gwtheta.harness import scenario_model


def iterated_pgf(model, n, s):
    """Oracle: compose the one-step maps explicitly, F_n = f_1 o ... o f_n."""
    x = s
    for k in range(n, 0, -1):
        x = step_pgf(model, k, x)
    return x


def test_composite_constants_closed_forms():
    # the registry models have telescoping products with known closed forms
    ex1 = scenario_model("Ex1")
    ex4a = scenario_model("Ex4a")
    for n in (1, 2, 7, 50):
        cc = composite_constants(ex1, n)
        assert cc.A == pytest.approx(1 / (n + 1), rel=1e-12)
        assert cc.C == pytest.approx(n / (n + 1), rel=1e-12)
        cc = composite_constants(ex4a, n)
        assert cc.A == pytest.approx(n + 1, rel=1e-12)
        assert cc.C == pytest.approx(n / (n + 1), rel=1e-12)
        assert cc.B == pytest.approx(n / (n + 1) ** 2, rel=1e-12)


def test_composite_constants_theta_zero_log_channel():
    # Ex6 with sigma = 1: log D_n = -sum i (A_{i-1} - A_i) stays exact far
    # past the point where c_n rounds to 1 in double precision
    model = scenario_model("Ex6i")
    cc = composite_constants(model, 2000)
    expected = -math.fsum(i / (i * (i + 1)) for i in range(1, 2001))
    assert cc.log_D == pytest.approx(expected, rel=1e-12)
    assert cc.D == pytest.approx(7.625306498734599e-04, rel=1e-10)


def test_constants_at_single_pass_matches():
    model = scenario_model("Ex3")
    cs = constants_at(model, [5, 17, 40])
    for n in (5, 17, 40):
        cc = composite_constants(model, n)
        assert cs[n].A == cc.A and cs[n].C == cc.C and cs[n].B == cc.B


def test_composed_pgf_matches_iterated_composition():
    # one representative model per admissible case
    models = [scenario_model(sid) for sid in
              ("Ex1", "Ex7i", "Ex10i", "Ex8i", "Ex6i", "Ex9i")]
    grid = [j / 10 for j in range(11)]
    for model in models:
        for n in (1, 3, 12):
            for s in grid:
                direct = composed_pgf(model, n, s)
                oracle = iterated_pgf(model, n, s)
                assert direct == pytest.approx(oracle, abs=1e-10), \
                    (model.case_label, n, s)


def test_pgf_domain_checks():
    model = scenario_model("Ex1")
    cc = composite_constants(model, 3)
    with pytest.raises(DomainError):
        pgf_from_constants(1.0, 1.0, cc, 1.2)
    with pytest.raises(DomainError):
        composed_pgf(model, 0, 0.5)


def test_pgf_at_upper_endpoint_defective_case():
    # s = r = 1 with theta < 0: F_n(1) = 1 - C_n^{-1/theta} < 1
    model = scenario_model("Ex10i")
    cc = composite_constants(model, 50)
    assert pgf_from_constants(-0.5, 1.0, cc, 1.0) == \
        pytest.approx(1.0 - cc.C ** 2, rel=1e-12)


def test_restricted_mean_matches_numeric_derivative():
    # central difference of F_n at s = 1 (one-sided where the derivative
    # blows up is excluded: cases (c), (e) report +inf)
    h = 1e-6
    for sid in ("Ex1", "Ex7i", "Ex8i", "Ex9i"):
        model = scenario_model(sid)
        cc = composite_constants(model, 8)
        mean = cc.law(model.theta, model.r).restricted_mean()
        f = lambda s: pgf_from_constants(model.theta, model.r, cc, s)
        if model.r > 1.0:
            num = (f(1.0 + h) - f(1.0 - h)) / (2 * h)
        else:
            # one-sided with Richardson extrapolation (s > 1 is out of range)
            d1 = (f(1.0) - f(1.0 - h)) / h
            d2 = (f(1.0) - f(1.0 - 2 * h)) / (2 * h)
            num = 2 * d1 - d2
        assert mean == pytest.approx(num, rel=1e-6), sid


def test_restricted_mean_infinite_cases():
    for sid in ("Ex10i", "Ex6i"):
        model = scenario_model(sid)
        cc = composite_constants(model, 8)
        assert math.isinf(cc.law(model.theta, model.r).restricted_mean())


def test_survival_and_moments_consistency():
    model = scenario_model("Ex7i")
    sm = survival_and_moments(model, 20)
    assert sm.p_alive + sm.p_zero + sm.p_delta == pytest.approx(1.0)
    assert sm.mean_conditional == pytest.approx(
        sm.mean_restricted / sm.p_alive)
    assert sm.mean_conditional >= 1.0


def test_conditional_pgf_bounds_and_endpoints():
    model = scenario_model("Ex3")
    assert conditional_pgf(model, 30, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert conditional_pgf(model, 30, 1.0) == pytest.approx(1.0, abs=1e-12)
    vals = [conditional_pgf(model, 30, j / 10) for j in range(11)]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_conditioning_on_null_raises():
    # all mass is absorbed by n = 200 in this strongly subcritical model
    model = validate_model(1.0, 1.0, EnvSequence.constant(4.0),
                           EnvSequence.constant(4.0))
    with pytest.raises(ConditioningOnNull):
        conditional_pgf(model, 500, 0.5)


def test_constants_table_rows():
    model = scenario_model("Ex1")
    rows = constants_table(model, [10, 20])
    assert [row["n"] for row in rows] == [10, 20]
    assert rows[0]["F_n(0)"] == pytest.approx(0.0, abs=1e-12)
    assert rows[1]["mean_restricted"] == pytest.approx(21.0, rel=1e-12)


def test_constants_table_rejects_overflowed_constants():
    # A_2 = 1e200^2 overflows to inf; a row of inf is not exported
    model = validate_model(1.0, 1.0, EnvSequence.from_table([1e200] * 3),
                           EnvSequence.from_table([1.0] * 3))
    assert constants_table(model, [1])[0]["A_n"] == 1e200
    with pytest.raises(GwThetaError, match="^composite constants overflow "
                       "at n = 2: A_n = inf, C_n = 1e"):
        constants_table(model, [1, 2, 3])


@pytest.mark.parametrize("a,horizon,n", [(1e200, 10 ** 4, 1250),
                                         (2.0, 10 ** 4, 1250),
                                         (2.0, 8000, 2000)])
def test_limit_constants_rejects_overflowed_constants(a, horizon, n):
    # A_n = a^n overflows at n = 2 (a = 1e200) or n = 1024 (a = 2): the
    # error names the first checkpoint of N/8, N/4, N/2, 3N/4, N past it
    # instead of labelling limits read from inf and NaN
    model = validate_model(1.0, 1.0, EnvSequence.from_table([a] * 3),
                           EnvSequence.from_table([1.0] * 3))
    with pytest.raises(GwThetaError, match=f"^composite constants overflow "
                       f"at n = {n}: A_n = inf, C_n = inf$"):
        limit_constants(model, horizon)


def test_undefined_log_d_is_a_domain_error():
    # case (f) with c_n = r inside BOUND_SLACK: r - c_n = 0, so D_n and the
    # theta = 0 law F_n are undefined
    r = 1.0 + 1e-13
    model = ThetaModel.from_dict({
        "theta": 0.0, "r": r,
        "a": EnvSequence.constant(0.5).to_dict(),
        "c": EnvSequence.constant(r).to_dict()})
    assert composite_constants(model, 3).log_D is None
    for call in (lambda: composed_pgf(model, 3, 0.5),
                 lambda: survival_and_moments(model, 3),
                 lambda: conditional_pgf(model, 3, 0.5),
                 lambda: constants_table(model, [1, 3])):
        with pytest.raises(DomainError, match="log D_"):
            call()
    # theta != 0 laws do not use D: Ex3 has r - c_1 = 0 and still evaluates
    ex3 = scenario_model("Ex3")
    assert composite_constants(ex3, 5).log_D is None
    assert 0.0 <= composed_pgf(ex3, 5, 0.5) <= 1.0


# -- closed form against exact composition over random tables ---------------

def _in_band(case, theta, r, a, t):
    """c_n placed by t in [0, 1] inside the admissible band of row `case`."""
    if case == "a":
        return max(1.0 - a, 1e-3) + 2.0 * t
    if case in ("b", "d"):
        ends = ((1.0 - a) * r ** (-theta), (1.0 - a) * (r - 1.0) ** (-theta))
        return min(ends) + t * (max(ends) - min(ends))
    if case == "c":
        return (1.0 - a) * max(t, 1e-3)
    if case == "e":
        return 0.99 * t
    return t


@st.composite
def admissible_tables(draw):
    """(theta, r, [a_1..a_n], [c_1..c_n]) with 1 <= n <= 8 in one of the six
    cases.  |theta| stays >= 0.05: rounding in the base of (.)^(-1/theta) is
    amplified by 1/|theta|, so a fixed absolute tolerance needs theta away
    from 0."""
    case = draw(st.sampled_from("abcdef"))
    theta = draw({"a": st.floats(0.05, 1.0), "b": st.floats(0.05, 1.0),
                  "c": st.floats(-0.99, -0.05), "d": st.floats(-0.99, -0.05)
                  }.get(case, st.just(0.0)))
    r = 1.0 if case in "ace" else draw(st.floats(1.05, 4.0))
    a_range = st.floats(0.05, 3.0) if case == "a" else st.floats(0.01, 0.99)
    steps = draw(st.lists(st.tuples(a_range, st.floats(0.0, 1.0)),
                          min_size=1, max_size=8))
    return (theta, r, [a for a, _ in steps],
            [_in_band(case, theta, r, a, t) for a, t in steps])


def mp_composed(theta, r, a, c, s):
    """f_1 o ... o f_n (s) in 50-digit arithmetic, carried as u = r - x so
    that x near r loses nothing to cancellation."""
    with mpmath.workdps(50):
        R, th = mpmath.mpf(r), mpmath.mpf(theta)
        u = R - mpmath.mpf(s)
        for ak, ck in zip(reversed(a), reversed(c)):
            ak, ck = mpmath.mpf(ak), mpmath.mpf(ck)
            if theta == 0.0:
                u = (R - ck) ** (1 - ak) * u ** ak
            elif u != 0 or theta < 0.0:
                u = (ak * u ** (-th) + ck) ** (-1 / th)
        return float(R - u)


@settings(max_examples=200, deadline=None)
@given(admissible_tables())
def test_closed_form_equals_exact_composition(table):
    theta, r, a, c = table
    model = validate_model(theta, r, EnvSequence.from_table(a, "error"),
                           EnvSequence.from_table(c, "error"),
                           check_horizon=len(a))
    for n in range(1, len(a) + 1):
        for s in (0.0, 0.3, 0.7, 1.0):
            assert composed_pgf(model, n, s) == pytest.approx(
                mp_composed(theta, r, a[:n], c[:n], s), rel=0.0,
                abs=1e-13), (n, s)
