import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwtheta import series
from gwtheta.analytics import composed_pgf
from gwtheta.environment import ThetaLaw, step_pgf_weight_one
from gwtheta.errors import CutoffExceeded, DomainError, GwThetaError
from gwtheta.harness import scenario_model
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


def test_build_resumes_the_recurrence(monkeypatch):
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


def test_extend_partial_matches_one_build():
    # the Ex10ii law stops hopeless at J = 1024; extending its partial to
    # 2^13 resumes the recurrence at 1025 and adds one Cauchy block
    with pytest.raises(CutoffExceeded) as info:
        population_pmf(scenario_model("Ex10ii"), 37)
    partial = info.value.partial
    assert partial.cutoff == 1024 and partial.weights[1:].all()
    extended = extend_pmf(partial, 2 ** 13)
    assert np.array_equal(extended.weights,
                          series._coeffs(partial.source, 2 ** 13))


def test_clipped_weight_restarts_the_recurrence():
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


@pytest.mark.parametrize("theta,coefs", [
    # geometric tails met at cutoffs 64, 256, 512 and 4096, the last two
    # beyond a budget of 2^8
    (1.0, [(0.5, 0.5), (0.2, 0.9), (0.1, 0.9), (0.01, 1.0)]),
    # heavy tails, partial at 1024 or at the budget
    (-0.5, [(0.5, 0.3), (0.3, 0.6)])])
def test_build_all_matches_build_law_by_law(theta, coefs):
    laws = [ThetaLaw(theta, 1.0, a, c, None) for a, c in coefs]
    for max_cutoff in (2 ** 8, 2 ** 20):
        got = series._build_all(laws, series.DEFAULT_TAIL_TOL, max_cutoff)
        for law, pmf in zip(laws, got):
            try:
                want = series._build(law, series.DEFAULT_TAIL_TOL, max_cutoff)
            except CutoffExceeded as err:
                assert type(pmf) is CutoffExceeded
                assert str(pmf) == str(err)
                pmf, want = pmf.partial, err.partial
            assert np.array_equal(pmf.weights, want.weights)
            assert (pmf.cutoff, pmf.tail_mass, pmf.defect_mass) == (
                want.cutoff, want.tail_mass, want.defect_mass)
            assert pmf.source is law
    if theta == 1.0:
        assert [pmf.cutoff for pmf in got] == [64, 256, 512, 4096]
    with pytest.raises(DomainError):
        series._build_all(laws + [ThetaLaw(0.5, 1.0, 0.5, 0.5, None)],
                          series.DEFAULT_TAIL_TOL, 2 ** 20)


def test_weights_depend_on_index_only():
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


def test_extension_memory_is_per_block():
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
