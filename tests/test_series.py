import math
import random
import sys
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwtheta import series
from gwtheta.analytics import (composed_pgf, composite_constants,
                               composite_law)
from gwtheta.environment import (EnvSequence, ThetaLaw, step_pgf_weight_one,
                                 validate_model)
from gwtheta.errors import CutoffExceeded, DomainError, GwThetaError
from gwtheta.harness import registry, scenario_model
from gwtheta.series import (extend_pmf, pmf_from_theta_pgf, population_pmf,
                            step_pmf, write_pmf_csv)


def mp_taylor(theta, r, a, c, J, d=None):
    """Independent oracle: high-precision Taylor coefficients of the pgf."""
    with mpmath.workdps(60):
        if theta == 0.0:
            f = lambda s: r - d * (r - s) ** a
        else:
            f = lambda s: r - (a * (r - s) ** (-theta) + c) ** \
                (-1.0 / theta)
        return [float(x) for x in mpmath.taylor(f, 0, J)]


@pytest.fixture
def no_memo(swap_memo):
    """A weight memo that keeps nothing, so every weight is computed."""
    return swap_memo(series, "_memo", budget=0)


@pytest.fixture
def fresh_memo(swap_memo):
    return swap_memo(series, "_memo")


def _kept(key):
    """The weights the memo keeps for key; they are not marked as used."""
    return dict(series._memo.items())[key]


def build_or_partial(*args, **kwargs):
    """Heavy-tailed laws cannot meet the default tail tolerance; their
    coefficients are still exact in the partial attached to the error."""
    try:
        return pmf_from_theta_pgf(*args, **kwargs)
    except CutoffExceeded as err:
        return err.partial


def step_or_partial(model, n, **kwargs):
    try:
        return step_pmf(model, n, **kwargs)
    except CutoffExceeded as err:
        return err.partial


def test_geometric_case():
    # theta=1, r=1, a=c=1: the offspring law is geometric 2^{-(j+1)}
    pmf = pmf_from_theta_pgf(1.0, 1.0, 1.0, 1.0)
    for j in range(31):
        assert pmf.weight(j) == pytest.approx(2.0 ** -(j + 1), abs=1e-12)


def test_square_root_case():
    # theta=0, r=1, a=1/2, c=0: binomial series of 1 - (1-s)^{1/2}
    pmf = build_or_partial(0.0, 1.0, 0.5, 0.0)
    expected = [0.0, 0.5, 1 / 8, 1 / 16]
    for j, w in enumerate(expected):
        assert pmf.weight(j) == pytest.approx(w, abs=1e-12)


CASE_PARAMS = [
    (1.0, 1.0, 1.0, 1.0),       # (a)
    (0.5, 2.0, 0.5, 0.4),       # (b)
    (-0.5, 1.0, 0.5, 0.3),      # (c)
    (-0.5, 2.0, 0.5, 0.6),      # (d)
    (0.0, 1.0, 0.5, 0.3),       # (e)
    (0.0, 2.0, 0.5, 0.3),       # (f)
]


@pytest.mark.parametrize("theta,r,a,c", CASE_PARAMS)
def test_coefficients_match_mpmath(theta, r, a, c):
    pmf = build_or_partial(theta, r, a, c, max_cutoff=2 ** 14)
    J = min(60, pmf.cutoff)
    d = (r - c) ** (1.0 - a) if theta == 0.0 else None
    oracle = mp_taylor(theta, r, a, c, J, d)
    for j in range(J + 1):
        assert pmf.weight(j) == pytest.approx(oracle[j], abs=1e-11), j


@pytest.mark.parametrize("sid", ["Ex1", "Ex7i", "Ex10i", "Ex8i", "Ex6ii",
                                 "Ex9i"])
def test_step_pmf_weight_one_and_total(sid):
    model = scenario_model(sid)
    for n in (1, 5):
        pmf = step_or_partial(model, n, max_cutoff=2 ** 14)
        assert pmf.weight(1) == pytest.approx(step_pgf_weight_one(model, n),
                                              abs=1e-10)
        # total mass (including tail and defect) is 1
        assert pmf.total == pytest.approx(1.0, abs=1e-10)


def test_population_pmf_matches_step_composition_mass():
    model = scenario_model("Ex9i")
    pmf = population_pmf(model, 4)
    assert pmf.total == pytest.approx(1.0, abs=1e-10)
    assert pmf.defect_mass > 0.0       # defective case loses mass to Delta


def test_population_pmf_zero_weight_is_extinction_probability():
    from gwtheta.analytics import composed_pgf
    model = scenario_model("Ex7i")
    pmf = population_pmf(model, 6)
    assert pmf.weight(0) == pytest.approx(composed_pgf(model, 6, 0.0),
                                          abs=1e-12)


def test_heavy_tail_raises_cutoff_exceeded_with_partial():
    # theta = 1/2 composite laws have tails ~ j^{-3/2}: a 1e-9 tolerance
    # cannot be met within any reasonable cutoff, and the engine predicts
    # this instead of burning the full quadratic budget
    model = scenario_model("Ex1", theta=0.5)
    with pytest.raises(CutoffExceeded) as err:
        population_pmf(model, 5, tail_tol=1e-9, max_cutoff=2 ** 20)
    partial = err.value.partial
    assert partial is not None
    from gwtheta.analytics import composed_pgf
    assert partial.weight(0) == pytest.approx(composed_pgf(model, 5, 0.0),
                                              abs=1e-12)
    assert partial.tail_mass > 1e-9


def test_extend_pmf_prefix_stable():
    pmf = pmf_from_theta_pgf(1.0, 1.0, 1.0, 1.0)
    bigger = extend_pmf(pmf, pmf.cutoff * 4)
    assert bigger.cutoff == pmf.cutoff * 4
    for j in range(0, pmf.cutoff, 37):
        assert bigger.weight(j) == pytest.approx(pmf.weight(j), rel=1e-12)
    assert bigger.tail_mass <= pmf.tail_mass
    assert extend_pmf(pmf, 2) is pmf    # smaller cutoff is a no-op


def test_invalid_arguments():
    with pytest.raises(DomainError):
        pmf_from_theta_pgf(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        pmf_from_theta_pgf(1.0, 1.0, 1.0, 1.0, tail_tol=0.0)
    with pytest.raises(DomainError):
        pmf_from_theta_pgf(0.0, 1.0, 0.5, 1.5)
    for d_coef in (0.0, -0.5):
        with pytest.raises(DomainError):
            pmf_from_theta_pgf(0.0, 2.0, 0.5, d_coef=d_coef)
    with pytest.raises(DomainError):
        pmf_from_theta_pgf(0.5, 2.0, 0.5, -0.1)


def test_composite_form_matches_population_pmf():
    # theta = 0 with d_coef = D_n is the composite law F_n of the model
    model = scenario_model("Ex9i")
    cc = composite_constants(model, 6)
    pmf = pmf_from_theta_pgf(0.0, model.r, cc.A, d_coef=cc.D)
    want = population_pmf(model, 6)
    assert pmf.cutoff == want.cutoff
    np.testing.assert_allclose(pmf.weights, want.weights, rtol=1e-12,
                               atol=0.0)


NAN, INF = math.nan, math.inf


def _no_weights(*args):
    raise AssertionError("weights computed for rejected input")


@pytest.mark.parametrize("args,kwargs,name", [
    ((0.5, 1.0, 0.5, 0.1), {"tail_tol": NAN}, "tail_tol"),
    ((0.5, 1.0, 0.5, 0.1), {"tail_tol": -1e-12}, "tail_tol"),
    ((NAN, 1.0, 0.5, 0.1), {}, "theta"),
    ((INF, 1.0, 0.5, 0.1), {}, "theta"),
    ((0.5, NAN, 0.5, 0.1), {}, "r"),
    ((0.5, INF, 0.5, 0.1), {}, "r"),
    ((0.5, 1.0, NAN, 0.1), {}, "a_coef"),
    ((0.5, 1.0, INF, 0.1), {}, "a_coef"),
    ((0.5, 1.0, 0.5, NAN), {}, "c_coef"),
    ((0.5, 1.0, 0.5, INF), {}, "c_coef"),
    ((0.0, 1.0, 0.5, 0.1), {"d_coef": NAN}, "d_coef"),
    ((0.0, 1.0, 0.5, 0.1), {"d_coef": INF}, "d_coef"),
    ((1.5, 1.0, 0.5, 0.1), {}, "theta"),
    ((-1.0, 1.0, 0.5, 0.1), {}, "theta"),
    ((-1.5, 1.0, 0.5, 0.1), {}, "theta"),
])
def test_bad_input_is_rejected_before_any_weight(monkeypatch, args, kwargs,
                                                 name):
    monkeypatch.setattr(series, "_extend_coeffs", _no_weights)
    with pytest.raises(DomainError, match=f"^{name} must"):
        pmf_from_theta_pgf(*args, **kwargs)


@pytest.mark.parametrize("build", [step_pmf, population_pmf])
def test_nan_tail_tol_is_rejected_for_model_laws(monkeypatch, build):
    monkeypatch.setattr(series, "_extend_coeffs", _no_weights)
    with pytest.raises(DomainError, match="^tail_tol must be > 0, got nan"):
        build(scenario_model("Ex2"), 5, tail_tol=NAN)


def test_weights_are_read_only():
    pmf = pmf_from_theta_pgf(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        pmf.weights[0] = 0.5


def test_csv_export(tmp_path):
    pmf = pmf_from_theta_pgf(1.0, 1.0, 1.0, 1.0)
    out = tmp_path / "pmf.csv"
    with out.open("w") as fh:
        write_pmf_csv(pmf, fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "j,weight"
    assert lines[1].startswith("0,0.5")
    assert lines[-1] == f"cutoff,{pmf.cutoff}"


@pytest.mark.parametrize("r", [3.0, 1.5])
def test_defect_mass_is_analytic_f_n_at_one(r):
    model = scenario_model("Ex9ii", r=r)
    for n in range(1, 201):
        assert population_pmf(model, n).defect_mass == \
            max(0.0, 1.0 - composed_pgf(model, n, 1.0)), n


def _admissible(case, theta, r, a, t):
    """(theta, r, a, c) in row `case` of the parameter table, with c placed
    by t in [0, 1] within the admissible band."""
    if case == "a":
        lo = max(1.0 - a, 1e-3)
        return theta, 1.0, a, lo + 2.0 * t
    if case in ("b", "d"):
        ends = ((1.0 - a) * r ** (-theta), (1.0 - a) * (r - 1.0) ** (-theta))
        return theta, r, a, min(ends) + t * (max(ends) - min(ends))
    if case == "c":
        return theta, 1.0, a, (1.0 - a) * max(t, 1e-3)
    if case == "e":
        return 0.0, 1.0, a, 0.99 * t
    return 0.0, r, a, t


_unit = st.floats(0.0, 1.0)
_case_params = st.one_of(
    st.builds(_admissible, st.just("a"), st.floats(0.05, 1.0), st.just(1.0),
              st.floats(0.05, 3.0), _unit),
    st.builds(_admissible, st.just("b"), st.floats(0.05, 1.0),
              st.floats(1.05, 4.0), st.floats(0.01, 0.99), _unit),
    st.builds(_admissible, st.just("c"), st.floats(-0.95, -0.05),
              st.just(1.0), st.floats(0.01, 0.99), _unit),
    st.builds(_admissible, st.just("d"), st.floats(-0.95, -0.05),
              st.floats(1.05, 4.0), st.floats(0.01, 0.99), _unit),
    st.builds(_admissible, st.just("e"), st.just(0.0), st.just(1.0),
              st.floats(0.01, 0.99), _unit),
    st.builds(_admissible, st.just("f"), st.just(0.0), st.floats(1.05, 4.0),
              st.floats(0.01, 0.99), _unit),
)


@settings(max_examples=60, deadline=None)
@given(_case_params)
def test_pmf_agrees_with_its_law(params):
    theta, r, a, c = params
    pmf = build_or_partial(theta, r, a, c, max_cutoff=2 ** 12)
    log_d = (1.0 - a) * math.log(r - c) if theta == 0.0 else None
    law = ThetaLaw(theta, r, a, c, log_d)
    assert pmf.defect_mass == max(0.0, 1.0 - law.pgf(1.0))
    assert pmf.weights[0] == pytest.approx(law.pgf(0.0), rel=1e-12)
    assert pmf.weights[1] == pytest.approx(law.weight_one(), rel=1e-12)


# -- weights above RECURRENCE_MAX (Cauchy integral blocks) -------------------

def linear_fractional_weights(a, c, J):
    """theta = 1, r = 1: 1 - (a/(1-s) + c)^-1 = 1 - (1-s)/(a + c(1-s)), so
    p_0 = 1 - 1/(a+c) and p_j = a/(a+c)^2 (c/(a+c))^(j-1) for j >= 1."""
    d = a + c
    p = (a / (d * d)) * (c / d) ** (np.arange(J + 1, dtype=float) - 1.0)
    p[0] = 1.0 - 1.0 / d
    return p


def half_power_weights(a, c, J):
    """theta = -1/2, r = 1: 1 - (a (1-s)^(1/2) + c)^2
    = 1 - c^2 - a^2 (1-s) - 2ac (1-s)^(1/2), with the binomial series
    (1-s)^(1/2) = sum_j b_j s^j, b_0 = 1, b_{j+1} = b_j (j - 1/2)/(j + 1)."""
    b = np.ones(J + 1)
    for j in range(J):
        b[j + 1] = b[j] * (j - 0.5) / (j + 1.0)
    p = -2.0 * a * c * b
    p[0] += 1.0 - c * c - a * a
    p[1] += a * a
    return p


@pytest.mark.parametrize("J", [2 ** 13, 2 ** 14, 2 ** 16])
@pytest.mark.parametrize("theta,a,c,closed_form", [
    (1.0, 0.5, 0.6, linear_fractional_weights),
    (1.0, 0.05, 1.0, linear_fractional_weights),
    (1.0, 0.9, 0.3, linear_fractional_weights),
    (-0.5, 0.5, 0.3, half_power_weights),
    (-0.5, 0.05, 0.9, half_power_weights),
    (-0.5, 0.9, 0.05, half_power_weights),
])
def test_weights_above_recurrence_match_closed_form(theta, a, c, closed_form,
                                                    J):
    p = series._coeffs(ThetaLaw(theta, 1.0, a, c, None), J)
    assert len(p) == J + 1
    assert np.max(np.abs(p - closed_form(a, c, J))) <= 1e-13


@pytest.mark.parametrize("theta,a,c", [(-0.95, 0.5, 0.3), (-0.3, 0.9, 0.05),
                                       (0.05, 0.5, 0.6), (0.5, 0.1, 1.2),
                                       (0.99, 0.95, 0.1)])
def test_weights_above_recurrence_match_recurrence(theta, a, c):
    J = 2 ** 13
    p = series._coeffs(ThetaLaw(theta, 1.0, a, c, None), J)
    q = series._coeffs_theta(theta, 1.0, a, c, series._NO_WEIGHTS, J)
    assert np.array_equal(p[:series.RECURRENCE_MAX + 1],
                          q[:series.RECURRENCE_MAX + 1])
    assert np.max(np.abs(p - q)) <= 1e-13


def _single_law_recurrence(theta, r, a, c, J):
    """The power recurrence one law at a time, as it ran before the batched
    engine: np.dot over the negative-stride window v[m-1::-1]."""
    gamma = -1.0 / theta
    u = np.empty(J + 1)
    u[0] = a * r ** (-theta)
    j = np.arange(J, dtype=float)
    np.cumprod((theta + j) / ((j + 1.0) * r), out=u[1:])
    u[1:] *= u[0]
    u[0] += c
    ju = np.arange(J + 1, dtype=float) * u
    v = np.empty(J + 1)
    v[0] = u[0] ** gamma
    inv_u0 = 1.0 / u[0]
    for m in range(1, J + 1):
        vr = v[m - 1::-1]
        acc = (gamma + 1.0) * np.dot(ju[1:m + 1], vr) \
            - m * np.dot(u[1:m + 1], vr)
        v[m] = acc * inv_u0 / m
    p = -v
    p[0] = r - v[0]
    return p


@pytest.mark.parametrize("J", [64, 512, 4096])
@pytest.mark.parametrize("theta", [1.0, -0.5, 0.5, -0.95])
@pytest.mark.parametrize("r", [1.0, 2.0])
def test_batched_recurrence_matches_single_law_loop(J, theta, r):
    a = np.array([0.3, 0.6, 0.9])
    c = np.array([0.8, 0.35, 0.1])
    rows = series._coeffs_theta(theta, r, a, c, series._NO_WEIGHTS, J)
    assert rows.shape == (3, J + 1)
    for i in range(3):
        want = _single_law_recurrence(theta, r, a[i], c[i], J)
        assert np.isfinite(want).all()
        assert np.array_equal(rows[i], want), i
        single = series._coeffs_theta(theta, r, float(a[i]), float(c[i]),
                                      series._NO_WEIGHTS, J)
        assert single.shape == (J + 1,)
        assert np.array_equal(single, want), i
    one = series._coeffs_theta(theta, r, a[1:2], c[1:2], series._NO_WEIGHTS, J)
    assert one.shape == (1, J + 1)
    assert np.array_equal(one[0], rows[1])


@pytest.mark.parametrize("theta", [1.0, 0.5, -0.5])
@pytest.mark.parametrize("r", [1.0, 2.0])
def test_resumed_doubling_matches_one_pass(theta, r):
    # the cutoffs of a build, 64 to 4096, each call resuming from the
    # weights the last one returned
    a = np.array([0.002, 0.004, 0.006])
    c = np.array([1.0, 0.99, 0.98])
    once = series._coeffs_theta(theta, r, a, c, series._NO_WEIGHTS, 4096)
    # r = 1: no weight is zero, so every call resumes; r = 2: the weights
    # fall like 2^-j and underflow to zero past j = 1050 or so, so the calls
    # from there on start again at index 0
    assert once[:, 1:].all() == (r == 1.0)
    rows, single = series._NO_WEIGHTS, [series._NO_WEIGHTS] * 3
    for J in 2 ** np.arange(6, 13):
        rows = series._coeffs_theta(theta, r, a, c, rows, int(J))
        single = [series._coeffs_theta(theta, r, float(a[i]), float(c[i]),
                                       single[i], int(J)) for i in range(3)]
    assert np.array_equal(rows, once)
    for i in range(3):
        assert np.array_equal(single[i], once[i]), i


def test_build_resumes_the_recurrence(monkeypatch, no_memo):
    # Ex1 at n = 105 doubles to J = 4096: 4,096 recurrence steps in all,
    # where restarting every doubling at index 0 costs 64 + ... + 4096 =
    # 8,128.  The spy takes positional arguments only, as the benchmark
    # tracer's wrapper does.
    calls = []
    coeffs_theta = series._coeffs_theta

    def spy(*args):
        known = args[-2]
        calls.append((np.shape(known)[-1], args[-1]))
        assert np.all(np.asarray(known)[..., 1:])   # so the call resumes
        return coeffs_theta(*args)
    monkeypatch.setattr(series, "_coeffs_theta", spy)
    model = scenario_model("Ex1")
    pmf = population_pmf(model, 105)
    assert pmf.cutoff == 4096
    assert [J for _, J in calls] == [2 ** k for k in range(6, 13)]
    # a call that knows p_0..p_{K-1} runs the steps m = K..J
    assert sum(J - max(K - 1, 0) for K, J in calls) == 4096
    monkeypatch.undo()
    assert np.array_equal(pmf.weights, series._coeffs(pmf.source, 4096))


def test_extend_partial_matches_one_build(no_memo):
    # the Ex10ii law stops hopeless at J = 1024; extending its partial to
    # 2^13 resumes the recurrence at 1025 and adds one Cauchy block
    with pytest.raises(CutoffExceeded) as info:
        population_pmf(scenario_model("Ex10ii"), 37)
    partial = info.value.partial
    assert partial.cutoff == 1024 and partial.weights[1:].all()
    extended = extend_pmf(partial, 2 ** 13)
    assert np.array_equal(extended.weights,
                          series._coeffs(partial.source, 2 ** 13))


def test_clipped_weight_restarts_the_recurrence(no_memo):
    # a weight clipped to +0.0 is not -v_m, so the recurrence starts again
    # at index 0 and the new weights are still the one-pass ones
    law = ThetaLaw(-0.5, 1.0, 0.4, 0.35, None)
    full = series._coeffs(law, 2048)
    clipped = full[:1025].copy()
    clipped[300] = 0.0
    pmf = series.Pmf(clipped, 0.0, 0.0, 1024, law)
    extended = extend_pmf(pmf, 2048)
    assert np.array_equal(extended.weights[:1025], clipped)
    assert np.array_equal(extended.weights[1025:], full[1025:])
    # a nonzero weight is taken as the law's own: the recurrence resumes
    # from it, so a wrong one moves the weights after it
    wrong = full[:1025].copy()
    wrong[300] *= 2.0
    moved = extend_pmf(series.Pmf(wrong, 0.0, 0.0, 1024, law), 2048)
    assert not np.array_equal(moved.weights[1025:], full[1025:])


@pytest.mark.parametrize("theta,coefs,cutoffs", [
    # geometric tails met at cutoffs 64, 256, 512 and 4096, the last two
    # beyond a budget of 2^8
    (1.0, [(0.5, 0.5), (0.2, 0.9), (0.1, 0.9), (0.01, 1.0)],
     {2 ** 20: [64, 256, 512, 4096], 2 ** 8: [64, 256, -256, -256]}),
    # heavy tails, partial at 1024 or at the budget
    (-0.5, [(0.5, 0.3), (0.3, 0.6)],
     {2 ** 20: [-1024, -1024], 2 ** 8: [-256, -256]})])
def test_build_doubles_one_law_to_its_cutoff(theta, coefs, cutoffs, no_memo):
    # cutoffs holds each law's cutoff, negated for a CutoffExceeded partial
    tol = series.DEFAULT_TAIL_TOL
    for max_cutoff, want in cutoffs.items():
        got = []
        for a, c in coefs:
            law = ThetaLaw(theta, 1.0, a, c, None)
            try:
                pmf, sign = series._build(law, tol, max_cutoff), 1
            except CutoffExceeded as err:
                pmf, sign = err.partial, -1
                assert str(err) == (
                    f"tail mass {pmf.tail_mass:.3e} cannot reach tail_tol "
                    f"{tol:.3e} within the cutoff budget {max_cutoff} "
                    "(heavy-tailed law; raise max_cutoff or tail_tol)")
            got.append(sign * pmf.cutoff)
            # one-pass weights, and the tail g(1) - sum p at the cutoff
            assert np.array_equal(pmf.weights,
                                  series._coeffs(law, pmf.cutoff))
            tail = law.pgf(1.0) - math.fsum(pmf.weights)
            assert (tail <= tol) == (sign == 1)
            assert (pmf.tail_mass, pmf.defect_mass) == (
                max(0.0, tail), max(0.0, 1.0 - law.pgf(1.0)))
            assert pmf.source is law
        assert got == want


def test_weights_depend_on_index_only(no_memo):
    # a weight is the same whatever cutoff, or chain of cutoffs, led to it
    law = ThetaLaw(-0.5, 1.0, 0.4, 0.35, None)
    full = series._coeffs(law, 2 ** 14)
    for k in (2 ** 12, 5000, 2 ** 13):
        assert np.array_equal(full[:k + 1], series._coeffs(law, k)), k
    # tail tolerances that the doubling first meets at 2^12 and at 2^14
    tol = [1.0 - 0.35 ** 2 - math.fsum(half_power_weights(0.4, 0.35,
                                                          3 * J // 4))
           for J in (2 ** 12, 2 ** 14)]
    small = pmf_from_theta_pgf(-0.5, 1.0, 0.4, 0.35, tail_tol=tol[0],
                               max_cutoff=2 ** 15)
    direct = pmf_from_theta_pgf(-0.5, 1.0, 0.4, 0.35, tail_tol=tol[1],
                                max_cutoff=2 ** 15)
    assert (small.cutoff, direct.cutoff) == (2 ** 12, 2 ** 14)
    extended = extend_pmf(small, 2 ** 14)
    assert np.array_equal(extended.weights, direct.weights)
    assert np.array_equal(extended.weights, full)
    odd = extend_pmf(small, 5000)
    assert np.array_equal(odd.weights, full[:5001])
    again = extend_pmf(odd, 12000)
    assert np.array_equal(again.weights, full[:12001])


def _extend_heavy_law() -> series.Pmf:
    """A theta = -1/2 law built to at most 2^12, extended to 2^15."""
    # one complex array over the 2^18 nodes of the last block would alone
    # take 4 MB; the strided sum keeps the peak to a few block-length arrays
    partial = build_or_partial(-0.5, 1.0, 0.5, 0.3, max_cutoff=2 ** 12)
    assert partial.cutoff <= 2 ** 12
    tracemalloc.start()
    try:
        extended = extend_pmf(partial, 2 ** 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert extended.cutoff == 2 ** 15
    assert peak < 3 * 2 ** 20, peak
    return partial


def test_extension_memory_is_per_block(no_memo):
    _extend_heavy_law()


@pytest.mark.parametrize("bound", [2 ** 17, 2 ** 14])
def test_extension_memory_through_the_memo(swap_memo, bound):
    # the memo keeps the extension (2^17), or is crossed by it (2^14) and
    # keeps the weights it had and no more
    swap_memo(series, "_memo", bound)
    partial = _extend_heavy_law()
    kept = [w.size for _, w in series._memo.items()]
    assert kept == [2 ** 15 + 1 if bound > 2 ** 15 else partial.cutoff + 1]


@pytest.mark.parametrize("sid,ns", [
    # Ex10ii, theta = -1/2: laws that doubling under tail_tol 1e-6 and a
    # budget of 2^13 takes to 256, a partial at 1024, 8192 (past 2^12), 64,
    # 1024 and a partial at 1024
    ("Ex10ii", [300, 3, 120, 400, 200, 20]),
    # Ex9ii, theta = 0 and r = 2: the binomial closed form of a batch
    ("Ex9ii", [1, 2, 3, 10, 50, 200])])
def test_first_cutoff_batch_matches_per_law(sid, ns):
    model = scenario_model(sid)
    laws = [model.step_law(n) for n in ns]
    for budget in (2 ** 13, 40):
        for law, pmf in zip(laws, series._first_pmfs(laws, budget)):
            (want,) = series._first_pmfs([law], budget)
            assert np.array_equal(pmf.weights, want.weights)
            assert (pmf.cutoff, pmf.tail_mass, pmf.defect_mass) == (
                want.cutoff, want.tail_mass, want.defect_mass)
            assert pmf.cutoff == min(64, budget)
            assert pmf.source is law
            # a law's weights are its own array, not a view of the batch
            assert pmf.weights.base is None
    with pytest.raises(DomainError):
        series._first_pmfs(laws + [ThetaLaw(0.5, 1.0, 0.5, 0.5, None)],
                           2 ** 13)
    if sid == "Ex10ii":
        cutoffs = []
        for law in laws:
            try:
                cutoffs.append(series._build(law, 1e-6, 2 ** 13).cutoff)
            except CutoffExceeded as err:
                cutoffs.append(-err.partial.cutoff)
        assert cutoffs == [256, -1024, 8192, 64, 1024, -1024]


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_non_finite_weight_is_an_error(theta):
    # a valid model whose composite A_2 = 1e200^2 overflows to inf: the
    # NaN weights of F_2 raise at once instead of doubling to the budget
    model = validate_model(theta, 1.0, EnvSequence.from_table([1e200] * 3),
                           EnvSequence.from_table([1.0] * 3))
    t0 = time.perf_counter()
    with pytest.raises(GwThetaError,
                       match="^non-finite pmf coefficient at cutoff 64$"):
        population_pmf(model, 2)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("n", [150, 300, 500])
def test_theta_one_population_law_matches_closed_form(n):
    # theta = 1: g(s) = r - (r-s) / (b - c s) with b = a + c r, so
    # p_0 = r - r / b and p_j = a q^(j-1) / b^2 with q = c / b; the tail
    # above 1024 is geometric, not hopeless, and the law builds past it
    model = scenario_model("Ex1")
    pmf = population_pmf(model, n)
    law = composite_law(model, n)
    a, c, r = law.a, law.c, law.r
    b = a + c * r
    q = c / b
    j = np.arange(1, pmf.cutoff + 1)
    want = np.concatenate([[r - r / b], a * q ** (j - 1) / b ** 2])
    assert pmf.cutoff > 1024
    assert np.max(np.abs(pmf.weights - want)) < 1e-13
    assert pmf.tail_mass < series.DEFAULT_TAIL_TOL


def test_theta_one_law_hopeless_by_its_exact_tail():
    # the exact tail at the budget decides: 2^12 cannot reach 1e-12 at
    # n = 300 (q^4096 is about 1e-6), so the law stops at 1024 as before
    with pytest.raises(CutoffExceeded) as info:
        population_pmf(scenario_model("Ex1"), 300, max_cutoff=2 ** 12)
    assert info.value.partial.cutoff == 1024


@pytest.mark.parametrize("sc", registry(), ids=lambda sc: sc.id)
def test_extend_pmf_tail_is_g1_minus_the_weights(sc):
    # the one tail rule of every grown Pmf: g(1) - sum p, clamped at 0
    for n in (1, 10, 100):
        for build in (population_pmf, step_pmf):
            try:
                pmf = build(sc.model, n, max_cutoff=2 ** 12)
            except CutoffExceeded as err:
                pmf = err.partial
            law, bigger = pmf.source, extend_pmf(pmf, 2 * pmf.cutoff)
            assert bigger.tail_mass == max(
                0.0, law.pgf(1.0) - math.fsum(bigger.weights)), (n, build)
            assert bigger.defect_mass == pmf.defect_mass


def test_extend_pmf_tail_reads_the_law_not_the_defect():
    # a hand-built Pmf's defect is carried, but its tail comes from g(1)
    law = ThetaLaw(0.5, 2.0, 0.5, 0.4, None)
    w = series._coeffs(law, 64)
    bigger = extend_pmf(series.Pmf(w, 0.0, 0.25, 64, law), 128)
    assert bigger.defect_mass == 0.25
    assert bigger.tail_mass == max(0.0, law.pgf(1.0)
                                   - math.fsum(bigger.weights))


# -- integral cutoffs --------------------------------------------------------

@pytest.mark.parametrize("bad", [100.5, 4096.5, 2048.0, np.float64(2048),
                                 "64"])
def test_non_integral_cutoff_is_rejected(bad):
    model = scenario_model("Ex1")
    for build in (lambda: population_pmf(model, 20, max_cutoff=bad),
                  lambda: step_pmf(model, 1, max_cutoff=bad),
                  lambda: pmf_from_theta_pgf(1.0, 1.0, 1.0, 1.0,
                                             max_cutoff=bad)):
        with pytest.raises(DomainError,
                           match="^max_cutoff must be an integer, got "):
            build()
    pmf = population_pmf(model, 20)
    with pytest.raises(DomainError, match="^cutoff must be an integer, got "):
        extend_pmf(pmf, bad)


def test_integral_numpy_cutoff_is_accepted():
    model = scenario_model("Ex1")
    pmf = population_pmf(model, 20, max_cutoff=np.int64(2 ** 12))
    assert pmf.weights.tobytes() == population_pmf(
        model, 20, max_cutoff=2 ** 12).weights.tobytes()
    bigger = extend_pmf(pmf, np.int64(2 * pmf.cutoff))
    assert type(bigger.cutoff) is int and bigger.cutoff == 2 * pmf.cutoff


# -- the weight memo ---------------------------------------------------------

def _outcome(build, *args, **kwargs):
    """Weight bytes, tail, defect and cutoff of a build, or of the partial
    of its CutoffExceeded, and which of the two it was."""
    try:
        pmf, kind = build(*args, **kwargs), "pmf"
    except CutoffExceeded as err:
        pmf, kind = err.partial, "partial"
    return (kind, pmf.weights.tobytes(), pmf.tail_mass, pmf.defect_mass,
            pmf.cutoff)


def _chain(pmf, cutoffs):
    """The outcomes of extending pmf through cutoffs, one after another."""
    out = []
    for cutoff in cutoffs:
        pmf = extend_pmf(pmf, cutoff)
        out.append(_outcome(lambda: pmf))
    return out


_MEMO_CASES = [(build, sc.model, n, budget)
               for sc in registry() for n in (1, 10, 100)
               for build in (population_pmf, step_pmf)
               for budget in (2 ** 14, 2 ** 9)]


def _memo_case(case):
    build, model, n, budget = case
    return _outcome(build, model, n, max_cutoff=budget)


def _check_memo_bound():
    kept = [w for _, w in series._memo.items()]
    assert sum(w.size for w in kept) == series._memo.total \
        <= series._memo.budget
    assert not any(w.flags.writeable for w in kept)


def test_memo_serves_what_a_fresh_build_gives(monkeypatch, swap_memo):
    # every case of the 18 scenarios at n = 1, 10, 100, built with the memo
    # keeping nothing, then twice through a fresh memo in shuffled orders,
    # the second time served
    swap_memo(series, "_memo", budget=0)
    fresh = [_memo_case(case) for case in _MEMO_CASES]
    assert {out[0] for out in fresh} == {"pmf", "partial"}
    swap_memo(series, "_memo")
    rng = random.Random(2026)
    for served in (False, True):
        if served:          # they all fit in the bound: nothing is computed
            monkeypatch.setattr(series, "_new_coeffs", _no_weights)
        order = list(range(len(_MEMO_CASES)))
        rng.shuffle(order)
        for i in order:
            assert _memo_case(_MEMO_CASES[i]) == fresh[i], _MEMO_CASES[i]
            _check_memo_bound()


@pytest.mark.parametrize("sid,n", [("Ex10ii", 37), ("Ex1", 105),
                                   ("Ex8i", 10), ("Ex6iii", 3)])
def test_memo_extend_chains_match_fresh_ones(swap_memo, sid, n):
    # a build then the extensions of its pmf, with and without the memo,
    # cold and warm, and the extensions in another order
    model = scenario_model(sid)
    chains = ([2 ** 11, 5000, 2 ** 13, 2 ** 14], [2 ** 14], [3000, 2 ** 12])

    def run():
        base = _outcome(population_pmf, model, n, max_cutoff=2 ** 14)
        try:
            pmf = population_pmf(model, n, max_cutoff=2 ** 14)
        except CutoffExceeded as err:
            pmf = err.partial
        return [base] + [_chain(pmf, cutoffs) for cutoffs in chains]
    swap_memo(series, "_memo", budget=0)
    fresh = run()
    swap_memo(series, "_memo")
    assert run() == fresh          # cold
    assert run() == fresh          # served
    _check_memo_bound()


def test_memo_extension_resumes_from_the_kept_weights(fresh_memo,
                                                      monkeypatch):
    # a doubling past the kept weights computes only the blocks they lack
    law = ThetaLaw(-0.5, 1.0, 0.4, 0.35, None)
    key = (-0.5, 1.0, 0.4, 0.35, None)
    base = build_or_partial(-0.5, 1.0, 0.4, 0.35, max_cutoff=2 ** 13)
    assert _kept(key).size == base.cutoff + 1 == 1025
    small = extend_pmf(base, 2 ** 13)
    assert _kept(key).size == 2 ** 13 + 1
    calls = []
    block = series._cauchy_block

    def spy(law, k):
        calls.append(k)
        return block(law, k)
    monkeypatch.setattr(series, "_cauchy_block", spy)
    monkeypatch.setattr(series, "_coeffs_theta", _no_weights)
    full = extend_pmf(small, 2 ** 14)
    assert calls == [13]
    assert _kept(key).size == 2 ** 14 + 1
    # another pmf of the law with an equal prefix is served, not computed
    calls.clear()
    again = extend_pmf(series.Pmf(full.weights[:2049].copy(), 0.0, 0.0,
                                  2048, law), 2 ** 14)
    assert calls == []
    assert again.weights.tobytes() == full.weights.tobytes()
    monkeypatch.undo()
    assert full.weights.tobytes() == series._coeffs(law, 2 ** 14).tobytes()


def test_memo_keeps_no_law_past_its_bound(fresh_memo):
    # 2^17 + 1 weights are one law more than the whole bound: the memo keeps
    # the prefix it had and drops nothing else for it
    pmf = pmf_from_theta_pgf(1.0, 1.0, 0.5, 0.6)
    key = (1.0, 1.0, 0.5, 0.6, None)
    kept = _kept(key)
    assert kept.size == pmf.cutoff + 1
    other = population_pmf(scenario_model("Ex7i"), 5)
    before = dict(series._memo.items())
    big = extend_pmf(pmf, fresh_memo.budget)
    assert big.cutoff + 1 > fresh_memo.budget
    assert dict(series._memo.items()) == before and _kept(key) is kept
    assert other.cutoff + 1 == fresh_memo.total - kept.size
    # a shorter prefix of the kept weights, extended past the bound, gets
    # the weights computed from it, with nothing more kept
    short = series.Pmf(kept[:33].copy(), 0.0, 0.0, 32, pmf.source)
    longer = extend_pmf(short, fresh_memo.budget)
    assert longer.weights.tobytes() == big.weights.tobytes()
    assert dict(series._memo.items()) == before and _kept(key) is kept
    _check_memo_bound()


def test_memo_extends_a_shorter_prefix_from_its_own_weights(monkeypatch,
                                                            swap_memo):
    # the memo holds p_0..p_128 of a law; a caller holding p_0..p_64 asks
    # for J = 256, past the kept weights: the recurrence resumes from the
    # caller's 65 weights, the weights are the memo-off chain's, and the
    # memo then holds p_0..p_256
    law = ThetaLaw(-0.5, 1.0, 0.4, 0.35, None)
    key = (-0.5, 1.0, 0.4, 0.35, None)

    def chain():
        (first,) = series._first_pmfs([law], 2 ** 10)
        assert first.cutoff == 64
        extend_pmf(first, 128)
        return extend_pmf(first, 256)
    swap_memo(series, "_memo", budget=0)
    want = _outcome(chain)
    swap_memo(series, "_memo")
    calls = []
    coeffs_theta = series._coeffs_theta

    def spy(*args):
        calls.append((np.shape(args[-2])[-1], args[-1]))
        return coeffs_theta(*args)
    monkeypatch.setattr(series, "_coeffs_theta", spy)
    got = _outcome(chain)
    assert calls == [(0, 64), (65, 128), (65, 256)]
    assert got == want
    assert _kept(key).tobytes() == want[1]
    _check_memo_bound()


def test_memo_neither_serves_nor_stores_a_wrong_prefix(fresh_memo):
    law = ThetaLaw(-0.5, 1.0, 0.4, 0.35, None)
    key = (-0.5, 1.0, 0.4, 0.35, None)
    full = series._coeffs(law, 4096)
    base = build_or_partial(-0.5, 1.0, 0.4, 0.35, max_cutoff=2 ** 10)
    kept = _kept(key)
    assert kept.tobytes() == full[:kept.size].tobytes()
    wrong = full[:1025].copy()
    wrong[300] *= 2.0
    moved = extend_pmf(series.Pmf(wrong, 0.0, 0.0, 1024, law), 4096)
    assert moved.weights[1025:].tobytes() != full[1025:].tobytes()
    assert _kept(key) is kept
    # a prefix longer than the kept one is not stored either
    longer = extend_pmf(series.Pmf(full[:2049].copy(), 0.0, 0.0, 2048, law),
                        4096)
    assert longer.weights.tobytes() == full.tobytes()
    assert _kept(key) is kept
    # nor is a prefix of another dtype served
    cast = series.Pmf(full[:1025].astype(np.float32), 0.0, 0.0, 1024, law)
    extend_pmf(cast, 2048)
    assert _kept(key) is kept
    assert extend_pmf(base, 4096).weights.tobytes() == full.tobytes()
    assert _kept(key).size == 4097


def test_memo_threads_match_one_thread(swap_memo):
    # four threads run the same builds and extensions in their own orders,
    # with a bound that makes them evict each other's laws
    model = scenario_model("Ex10ii")
    jobs = [(n, cutoff) for n in (3, 20, 37, 120, 300)
            for cutoff in (2 ** 12, 2 ** 13, 2 ** 14)]

    def job(n, cutoff):
        try:
            pmf = population_pmf(model, n, tail_tol=1e-6,
                                 max_cutoff=2 ** 13)
        except CutoffExceeded as err:
            pmf = err.partial
        return _outcome(lambda: extend_pmf(pmf, cutoff))
    swap_memo(series, "_memo", budget=0)
    want = [job(*j) for j in jobs]
    swap_memo(series, "_memo", budget=3 * (2 ** 14 + 1))
    got, start = [None] * 4, threading.Barrier(4, timeout=60)

    def worker(t):
        order = list(range(len(jobs)))
        random.Random(t).shuffle(order)
        start.wait()
        got[t] = {i: job(*jobs[i]) for i in order * 2}
    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for t in range(4):
        assert [got[t][i] for i in range(len(jobs))] == want, t
    _check_memo_bound()
