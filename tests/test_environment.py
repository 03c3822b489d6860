import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gwtheta.environment import (BOUND_SLACK, EnvSequence, ThetaLaw,
                                 ThetaModel, _check_index, _violations,
                                 step_pgf, step_pgf_weight_one,
                                 validate_model)
from gwtheta.errors import DomainError, RejectedParameter
from gwtheta.harness import scenario_model


def test_harmonic_and_convergent_values():
    h = EnvSequence.harmonic()
    v = EnvSequence.convergent()
    assert h.value(1) == 0.5
    assert h.value(99) == 99 / 100
    assert v.value(1) == pytest.approx(4 / 6)
    # partial products telescope: prod a_i = 1/(n+1) and (n+3)/(3(n+1))
    prod_h = prod_v = 1.0
    for n in range(1, 40):
        prod_h *= h.value(n)
        prod_v *= v.value(n)
        assert prod_h == pytest.approx(1 / (n + 1), rel=1e-12)
        assert prod_v == pytest.approx((n + 3) / (3 * (n + 1)), rel=1e-12)


def test_alternating_values():
    a = EnvSequence.alternating_ex3("a")
    c = EnvSequence.alternating_ex3("c")
    assert [a.value(n) for n in range(1, 6)] == [0.5, 4.0, 0.25, 4.0, 0.25]
    assert [c.value(n) for n in range(1, 6)] == [1.0, 2.0, 1.0, 2.0, 1.0]


def test_dyadic_values():
    a = EnvSequence.dyadic_ex5("a")
    c = EnvSequence.dyadic_ex5("c")
    # a_n = n at n = 2^k - 1, 1/(n-1) at n = 2^k, else 1
    assert a.value(3) == 3.0
    assert a.value(4) == pytest.approx(1 / 3)
    assert a.value(5) == 1.0
    assert a.value(1) == 1.0          # n = 1 = 2^1 - 1
    # partial product equals n at n = 2^k - 1 and 1 elsewhere
    prod = 1.0
    for n in range(1, 70):
        prod *= a.value(n)
        expected = float(n) if (n + 1) & n == 0 else 1.0
        assert prod == pytest.approx(expected, rel=1e-12)
    assert c.value(4) == 1.0
    assert c.value(2) == 0.25
    assert c.value(9) == pytest.approx(1 / 81)


def test_exp_tail_values_and_exact_log():
    c = EnvSequence.exp_tail_ex6(1.0)
    assert c.value(1) == pytest.approx(1 - math.exp(-1))
    # beyond n = 36 the value saturates just below 1, but the log channel
    # keeps the exact exponent
    assert c.value(100) < 1.0
    assert c.log_one_minus(100) == -100.0
    c2 = EnvSequence.exp_tail_ex6(0.5)
    assert c2.log_one_minus(9) == -3.0


@pytest.mark.parametrize("sigma,first", [(100.0, 1210), (200.0, 35)])
def test_exp_tail_power_overflow_is_rejected(sigma, first):
    # n^sigma overflows from n = first on: every accessor names that index
    c = EnvSequence.exp_tail_ex6(sigma)
    assert c.log_one_minus(first - 1) == -float(first - 1) ** sigma
    for access in (lambda: c.value(first), lambda: c.log_one_minus(first),
                   lambda: c.values(first - 3, first + 9),
                   lambda: c.log_one_minus_values(first - 3,
                                                  np.zeros(12))):
        with pytest.raises(RejectedParameter) as err:
            access()
        assert err.value.index == first
        assert err.value.constraint == "n^sigma finite"
    # within check_horizon validation meets it; past it, the first access
    scenario = "Ex6iii" if first <= 100 else "Ex6i"
    with pytest.raises(RejectedParameter) as err:
        model = scenario_model(scenario, sigma=sigma)
        model.steps(1, first + 1)
    assert err.value.index == first


def test_restricted_mean_overflow_is_infinite():
    # A^(-1/theta) at r = 1 beyond the float range, as Ex1 at theta = 0.003
    # reaches by n = 10
    assert ThetaLaw(0.003, 1.0, 1 / 11, 1.0, None).restricted_mean() == \
        math.inf
    assert ThetaLaw(0.5, 1.0, 0.25, 1.0, None).restricted_mean() == 16.0


def test_log_one_minus_generic():
    c = EnvSequence.constant(0.25)
    assert c.log_one_minus(5) == pytest.approx(math.log(0.75))
    assert EnvSequence.constant(1.0).log_one_minus(1) is None


def test_table_family():
    t = EnvSequence.from_table([0.5, 0.6])
    assert t.value(1) == 0.5
    assert t.value(7) == 0.6          # repeat_last
    strict = EnvSequence.from_table([0.5], tail_rule="error")
    with pytest.raises(DomainError):
        strict.value(2)


def test_unknown_family_rejected():
    with pytest.raises(RejectedParameter):
        EnvSequence("nope")


def test_sequence_index_must_be_positive():
    with pytest.raises(DomainError):
        EnvSequence.harmonic().value(0)


# -- values(): value() over a range as an array -------------------------------

H, V = EnvSequence.harmonic(), EnvSequence.convergent()
SEQUENCES = {
    "harmonic": H,
    "convergent": V,
    "constant": EnvSequence.constant(0.3),
    "proportional_c": EnvSequence.proportional_c(0.75, V),
    "proportional_c_nested": EnvSequence.proportional_c(
        1.2, EnvSequence.proportional_c(0.5, H)),
    "negative_proportional_c": EnvSequence.negative_proportional_c(
        1.0, EnvSequence.superharmonic_ex4("a")),
    "alternating_a": EnvSequence.alternating_ex3("a"),
    "alternating_c": EnvSequence.alternating_ex3("c"),
    "superharmonic_a": EnvSequence.superharmonic_ex4("a"),
    "superharmonic_c": EnvSequence.superharmonic_ex4("c"),
    "dyadic_a": EnvSequence.dyadic_ex5("a"),
    "dyadic_c": EnvSequence.dyadic_ex5("c"),
    "exp_tail_0": EnvSequence.exp_tail_ex6(0.0),
    "exp_tail_1": EnvSequence.exp_tail_ex6(1.0),
    "exp_tail_0.3": EnvSequence.exp_tail_ex6(0.3),
    "table_repeat_last": EnvSequence.from_table([0.1, 0.2, 0.35]),
    "table_error": EnvSequence.from_table([0.1 * k for k in range(1, 2001)],
                                          tail_rule="error"),
}


def _bits(xs):
    """Exact float images: hex tells -0.0 from 0.0 and NaN from a number."""
    return [float(x).hex() for x in xs]


@pytest.mark.parametrize("seq", SEQUENCES.values(), ids=SEQUENCES.keys())
def test_values_equal_value_bit_for_bit(seq):
    want = [seq.value(n) for n in range(1, 2001)]
    assert _bits(seq.values(1, 2001)) == _bits(want)
    assert _bits(seq.values(777, 1234)) == _bits(want[776:1233])
    assert seq.values(5, 5).size == 0


@pytest.mark.parametrize("role", ["a", "c"])
def test_dyadic_values_around_powers_of_two(role):
    seq = EnvSequence.dyadic_ex5(role)
    for k in range(1, 23):
        ns = (2 ** k - 1, 2 ** k, 2 ** k + 1)
        assert _bits(seq.values(ns[0], ns[-1] + 1)) == \
            _bits(seq.value(n) for n in ns)


@pytest.mark.parametrize("seq", SEQUENCES.values(), ids=SEQUENCES.keys())
def test_values_equal_value_at_large_indices(seq):
    # 3e6: n^2 (n+1) no longer fits in int64; 2^26: products of three float
    # indices stop being exact, and Python ints take over
    for n0 in (3 * 10 ** 6 - 2, 2 ** 26 - 2):
        if seq.family == "table":
            continue
        assert _bits(seq.values(n0, n0 + 5)) == \
            _bits(seq.value(n) for n in range(n0, n0 + 5))


def test_superharmonic_c_does_not_wrap():
    n = 3 * 10 ** 6
    got = EnvSequence.superharmonic_ex4("c").values(n, n + 1)[0]
    assert got == 1.0 / (n * n * (n + 1))
    assert got == pytest.approx(1 / 2.7e19, rel=1e-6)


def test_values_raise_as_value_does():
    strict = SEQUENCES["table_error"]
    for n0 in (1990, 2001, 2050):
        with pytest.raises(DomainError) as want:
            strict.value(max(n0, 2001))
        with pytest.raises(DomainError) as got:
            strict.values(n0, 2100)
        assert str(got.value) == str(want.value)
    with pytest.raises(DomainError, match="got 0"):
        EnvSequence.harmonic().values(0, 5)


# one theta and r strategy per admissible row (a)..(f)
ROWS = {
    "a": (st.floats(0.05, 1.0), st.just(1.0)),
    "b": (st.floats(0.05, 1.0), st.floats(1.1, 4.0)),
    "c": (st.floats(-0.95, -0.05), st.just(1.0)),
    "d": (st.floats(-0.95, -0.05), st.floats(1.1, 4.0)),
    "e": (st.just(0.0), st.just(1.0)),
    # r within BOUND_SLACK of 1 too, where c_n <= 1 admits c_n = r
    "f": (st.just(0.0), st.one_of(st.floats(1.1, 4.0),
                                  st.just(1.0 + 1e-13))),
}
SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0]


def _edges(case, theta, r, a):
    """The bounds _check_index compares c against, one ulp either side."""
    if case == "a":
        bounds = [0.0, 1.0 - a - BOUND_SLACK]
    elif case in ("b", "d"):
        bounds = [(1.0 - a) * r ** (-theta) - BOUND_SLACK,
                  (1.0 - a) * (r - 1.0) ** (-theta) + BOUND_SLACK,
                  (1.0 - a) * (r - 1.0) ** (-theta) - BOUND_SLACK,
                  (1.0 - a) * r ** (-theta) + BOUND_SLACK]
    elif case == "c":
        bounds = [0.0, 1.0 - a + BOUND_SLACK]
    elif case == "e":
        bounds = [0.0, 1.0]
    else:
        bounds = [-BOUND_SLACK, 1.0 + BOUND_SLACK, r]
    return [x for b in bounds
            for x in (math.nextafter(b, -math.inf), b,
                      math.nextafter(b, math.inf))]


@st.composite
def rows_of_steps(draw):
    case = draw(st.sampled_from(sorted(ROWS)))
    theta_st, r_st = ROWS[case]
    theta, r = draw(theta_st), draw(r_st)
    a_st = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     st.floats(-0.5, 2.0), st.sampled_from(SPECIALS),
                     st.sampled_from([math.nextafter(1.0, 0.0),
                                      math.nextafter(0.0, 1.0)]))
    a = draw(st.lists(a_st, min_size=1, max_size=20))
    c = [draw(st.one_of(st.sampled_from(_edges(case, theta, r, x)),
                        st.sampled_from(SPECIALS), st.floats(-0.5, 3.0)))
         for x in a]
    return case, theta, r, a, c


@settings(max_examples=300)
@given(rows_of_steps())
@example(("a", 1.0, 1.0, [0.5, 0.5], [0.5 - BOUND_SLACK, 0.5 - 2e-12]))
@example(("a", 1.0, 1.0, [math.inf, math.nan], [0.5, 0.5]))
@example(("f", 0.0, 1.0 + 1e-13, [0.5] * 3,
          [math.nextafter(1.0 + 1e-13, 0.0), 1.0 + 1e-13,
           math.nextafter(1.0 + 1e-13, 2.0)]))
def test_violation_mask_agrees_with_check_index(row):
    case, theta, r, a, c = row
    mask = _violations(case, theta, r, np.array(a), np.array(c))
    for n, (x, y) in enumerate(zip(a, c), start=1):
        try:
            _check_index(case, theta, r, x, y, n)
            rejected = False
        except RejectedParameter:
            rejected = True
        assert bool(mask[n - 1]) == rejected, (n, x, y)


# -- model validation ---------------------------------------------------------

def _simple_model(theta, r, a, c, horizon=20):
    return validate_model(theta, r, EnvSequence.constant(a),
                          EnvSequence.constant(c), check_horizon=horizon)


def test_case_labels():
    assert _simple_model(0.5, 1.0, 0.9, 0.2).case_label == "a"
    assert _simple_model(0.5, 2.0, 0.5, 0.4).case_label == "b"
    assert _simple_model(-0.5, 1.0, 0.5, 0.3).case_label == "c"
    assert _simple_model(-0.5, 2.0, 0.5, 0.6).case_label == "d"
    assert _simple_model(0.0, 1.0, 0.5, 0.3).case_label == "e"
    assert _simple_model(0.0, 2.0, 0.5, 0.3).case_label == "f"


def test_theta_minus_one_rejected():
    with pytest.raises(RejectedParameter):
        _simple_model(-1.0, 1.0, 0.5, 0.3)


def test_theta_out_of_range_rejected():
    for theta in (1.5, -1.2):
        with pytest.raises(RejectedParameter):
            _simple_model(theta, 1.0, 0.5, 0.3)


def test_r_below_one_rejected():
    with pytest.raises(RejectedParameter):
        _simple_model(0.5, 0.9, 0.5, 0.3)


def test_case_a_constraints():
    # c_n >= 1 - a_n violated
    with pytest.raises(RejectedParameter) as err:
        _simple_model(1.0, 1.0, 0.5, 0.4)
    assert err.value.index == 1
    # a_n > 1 allowed in case (a) only
    validate_model(1.0, 1.0, EnvSequence.superharmonic_ex4("a"),
                   EnvSequence.superharmonic_ex4("c"))
    with pytest.raises(RejectedParameter):
        _simple_model(0.0, 1.0, 1.5, 0.3)


def test_case_b_band():
    # admissible band for theta=1, r=2, a=1/2: c in [(1-a)/2, 1-a]
    _simple_model(1.0, 2.0, 0.5, 0.25)
    _simple_model(1.0, 2.0, 0.5, 0.5)
    with pytest.raises(RejectedParameter):
        _simple_model(1.0, 2.0, 0.5, 0.24)
    with pytest.raises(RejectedParameter):
        _simple_model(1.0, 2.0, 0.5, 0.51)


def test_case_d_band_is_reversed():
    # theta=-1/2, r=2: c in [(1-a)(r-1)^{1/2}, (1-a) r^{1/2}]
    _simple_model(-0.5, 2.0, 0.5, 0.5)
    _simple_model(-0.5, 2.0, 0.5, 0.5 * math.sqrt(2))
    with pytest.raises(RejectedParameter):
        _simple_model(-0.5, 2.0, 0.5, 0.49)
    with pytest.raises(RejectedParameter):
        _simple_model(-0.5, 2.0, 0.5, 0.72)


def test_bound_slack_absorbs_roundoff():
    c = 0.5 * (1.0 - BOUND_SLACK / 2)
    _simple_model(1.0, 2.0, 0.5, c * 0.5 / 0.5)  # just inside slack


# one admissible (theta, r, a_1) per case (a)..(f)
CASE_ROWS = [(0.5, 1.0, 0.5), (0.5, 2.0, 0.5), (-0.5, 1.0, 0.5),
             (-0.5, 2.0, 0.5), (0.0, 1.0, 0.5), (0.0, 2.0, 0.5)]


@pytest.mark.parametrize("theta,r,a", CASE_ROWS,
                         ids=["a", "b", "c", "d", "e", "f"])
@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_c_rejected(theta, r, a, c):
    with pytest.raises(RejectedParameter) as err:
        validate_model(theta, r, EnvSequence.from_table([a]),
                       EnvSequence.from_table([c]), check_horizon=1)
    assert err.value.index == 1


@pytest.mark.parametrize("r", [1.0 + 1e-13, 1.0 + 2e-13])
def test_case_f_rejects_c_equal_to_r(r):
    # c_n = r passes c_n <= 1 within BOUND_SLACK but leaves r - c_n = 0:
    # eagerly at n = 1, and lazily past check_horizon at n = 5
    below = math.nextafter(r, 0.0)
    _simple_model(0.0, r, 0.5, below)
    with pytest.raises(RejectedParameter) as err:
        _simple_model(0.0, r, 0.5, r)
    assert (err.value.index, err.value.constraint) == (1, "c_n < r")
    model = validate_model(0.0, r, EnvSequence.constant(0.5),
                           EnvSequence.from_table([below] * 4 + [r]),
                           check_horizon=4)
    for access in (lambda: model.step(5), lambda: model.steps(1, 9),
                   lambda: model.step_law(5)):
        with pytest.raises(RejectedParameter) as err:
            access()
        assert (err.value.index, err.value.constraint) == (5, "c_n < r")


def test_lazy_validation_beyond_horizon():
    # table that turns invalid at n = 3; check_horizon = 2 defers the error
    a = EnvSequence.from_table([0.5, 0.5, -1.0])
    c = EnvSequence.constant(0.6)
    model = validate_model(1.0, 1.0, a, c, check_horizon=2)
    with pytest.raises(RejectedParameter) as err:
        model.step(3)
    assert err.value.index == 3


# -- one-step pgf -------------------------------------------------------------

def test_step_pgf_is_a_proper_pgf_shape():
    model = _simple_model(1.0, 1.0, 1.0, 1.0)
    # f(s) = 1 - ((1-s)^{-1} + 1)^{-1} = 1/(2-s)
    for s in (0.0, 0.3, 0.9):
        assert step_pgf(model, 1, s) == pytest.approx(1 / (2 - s))
    assert step_pgf(model, 1, 1.0) == 1.0


def test_step_pgf_theta_zero():
    model = _simple_model(0.0, 1.0, 0.5, 0.19)
    # f(s) = 1 - (1-c)^{1/2} (1-s)^{1/2}
    assert step_pgf(model, 1, 0.0) == pytest.approx(1 - math.sqrt(0.81))
    assert step_pgf(model, 1, 1.0) == 1.0


def test_step_pgf_at_r_defective_case():
    model = _simple_model(-0.5, 1.0, 0.5, 0.25)
    # f(1) = 1 - c^{-1/theta} = 1 - c^2 < 1: mass escapes to the graveyard
    assert step_pgf(model, 1, 1.0) == pytest.approx(1 - 0.25 ** 2)


def test_step_pgf_weight_one_matches_derivative():
    for theta, r, a, c in ((1.0, 1.0, 1.0, 1.0), (0.5, 2.0, 0.5, 0.4),
                           (-0.5, 1.0, 0.5, 0.3), (0.0, 2.0, 0.5, 0.3)):
        model = _simple_model(theta, r, a, c)
        h = 1e-7
        num = (step_pgf(model, 1, h) - step_pgf(model, 1, 0.0)) / h
        assert step_pgf_weight_one(model, 1) == pytest.approx(num, rel=1e-5)


def test_step_pgf_domain():
    model = _simple_model(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        step_pgf(model, 1, 1.5)
    r2 = _simple_model(1.0, 2.0, 0.5, 0.4)
    assert step_pgf(r2, 1, 1.5) < 2.0   # s up to r is fine


# -- serialization ------------------------------------------------------------

def test_model_round_trip():
    model = validate_model(
        1.0, 1.0, EnvSequence.harmonic(),
        EnvSequence.proportional_c(1.0, EnvSequence.harmonic()))
    spec = json.loads(json.dumps(model.to_dict()))
    again = ThetaModel.from_dict(spec)
    assert again == model


def test_sequence_round_trip_with_table():
    seq = EnvSequence.from_table([0.5, 0.75], tail_rule="error")
    assert EnvSequence.from_dict(json.loads(json.dumps(seq.to_dict()))) == seq


@given(st.floats(0.01, 0.99), st.floats(0.0, 0.99))
def test_case_e_constant_models_validate(a, c):
    model = _simple_model(0.0, 1.0, a, c, horizon=5)
    p1 = step_pgf_weight_one(model, 1)
    assert 0.0 <= p1 <= 1.0
    assert 0.0 <= step_pgf(model, 1, 0.0) <= 1.0


# models with every sequence family: the registry covers all but the table
_ROUND_TRIP_SCENARIOS = ("Ex1", "Ex2", "Ex3", "Ex4a", "Ex4b", "Ex5", "Ex6i",
                         "Ex8i", "Ex9i")


@st.composite
def _serializable_models(draw):
    kind = draw(st.sampled_from(("scenario", "nested", "table")))
    if kind == "scenario":
        return scenario_model(draw(st.sampled_from(_ROUND_TRIP_SCENARIOS)))
    unit = st.floats(0.05, 0.95)
    if kind == "nested":
        # case (a) with c = sigma (1 - a_n), a_n itself proportional_c
        a = EnvSequence.proportional_c(draw(unit), EnvSequence.harmonic())
        return validate_model(draw(st.floats(0.05, 1.0)), 1.0, a,
                              EnvSequence.proportional_c(
                                  draw(st.floats(1.0, 3.0)), a))
    # case (c) tables of 200 entries, so steps(1, 200) stays in range
    # under either tail rule
    rule = draw(st.sampled_from(("repeat_last", "error")))
    a = draw(st.lists(unit, min_size=1, max_size=6))
    frac = draw(st.lists(st.floats(0.05, 1.0), min_size=len(a),
                         max_size=len(a)))
    c = [f * (1.0 - x) for x, f in zip(a, frac)]
    return validate_model(draw(st.floats(-0.95, -0.05)), 1.0,
                          EnvSequence.from_table((a * 200)[:200], rule),
                          EnvSequence.from_table((c * 200)[:200], rule))


@settings(max_examples=60, deadline=None)
@given(_serializable_models())
def test_model_json_round_trip_is_exact(model):
    again = ThetaModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert again == model
    for got, want in zip(again.steps(1, 200), model.steps(1, 200)):
        assert got.tobytes() == want.tobytes()
