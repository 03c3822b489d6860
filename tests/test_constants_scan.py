"""The blockwise constants scan against the one-generation-at-a-time
recursion it replaced, kept here as the oracle: every constant, the
limit_constants evidence and the convergence partial sums must agree bit
for bit, errors must surface at the same index, memory stays O(block), and
a later walk that reuses a kept one-block walk gives what a fresh one does.
"""

import math
import tracemalloc

import numpy as np
import pytest

import gwtheta.analytics as analytics
from gwtheta.analytics import (composite_constants, constants_at,
                               constants_iter, constants_table,
                               convergence_conditions, limit_constants)
from gwtheta.environment import EnvSequence, ThetaModel, validate_model
from gwtheta.errors import DomainError, GwThetaError, RejectedParameter
from gwtheta.harness import registry, scenario_model

SCENARIOS = registry()
IDS = [sc.id for sc in SCENARIOS]


# -- the scalar oracle --------------------------------------------------------

def oracle_constants(model, up_to):
    """(n, A_n, C_n, log D_n, B_n) for n = 0..up_to, one step at a time."""
    A, C, log_D = 1.0, 0.0, 0.0
    yield 0, A, C, log_D, 0.0
    for n in range(1, up_to + 1):
        a, c = model.step(n)
        A_prev = A
        A = A * a
        C = C + A_prev * c
        if log_D is not None:
            lg = model.log_r_minus(n, c)
            log_D = None if lg is None else log_D + (A_prev - A) * lg
        B = C / A if A > 0.0 else math.inf
        yield n, A, C, log_D, B


def oracle_evidence(model, horizon):
    """The evidence dict of limit_constants, from running window folds."""
    order = [horizon // 8, horizon // 4, horizon // 2, 3 * horizon // 4,
             horizon]
    half, quarter = horizon // 2, horizon // 4
    ck = {}
    a_min2 = a_max2 = b_min1 = b_max1 = b_min2 = b_max2 = None
    for n, A, C, log_D, B in oracle_constants(model, horizon):
        if n in order:
            ck[n] = {"A": A, "C": C, "B": B, "log_D": log_D}
        if quarter < n <= half:
            b_min1 = B if b_min1 is None else min(b_min1, B)
            b_max1 = B if b_max1 is None else max(b_max1, B)
        elif n > half:
            a_min2 = A if a_min2 is None else min(a_min2, A)
            a_max2 = A if a_max2 is None else max(a_max2, A)
            b_min2 = B if b_min2 is None else min(b_min2, B)
            b_max2 = B if b_max2 is None else max(b_max2, B)
    return {"checkpoints": {str(n): ck[n] for n in order},
            "A_window": {"min": a_min2, "max": a_max2},
            "B_window_first": {"min": b_min1, "max": b_max1},
            "B_window_second": {"min": b_min2, "max": b_max2}}


def oracle_partial_sums(model, horizon):
    """The four convergence partial sums at N/4, N/2, N, term by term."""
    marks = (horizon // 4, horizon // 2, horizon)
    sums = {"cl": 0.0, "one_minus_a": 0.0, "A1": 0.0, "tilde": 0.0}
    snap = {key: [] for key in sums}
    for n in range(1, horizon + 1):
        law = model.step_law(n)
        a = law.a
        p1 = law.weight_one()
        sums["cl"] += 1.0 - p1
        sums["one_minus_a"] += abs(1.0 - a)
        log1mc = model.c_seq.log_one_minus(n)
        if log1mc is not None:
            sums["A1"] += -(1.0 - a) * log1mc
        else:
            sums["A1"] = math.inf
        sums["tilde"] += 1.0 - p1 / law.pgf(1.0)
        if n in marks:
            for key in sums:
                snap[key].append(sums[key])
    return snap


def scanned(model, up_to):
    return [(cc.n, cc.A, cc.C, cc.log_D, cc.B)
            for cc in constants_iter(model, up_to)]


# -- bit identity -------------------------------------------------------------

# 97 generations a block makes the carries between blocks do the work
@pytest.fixture(params=[None, 97], ids=["default_block", "block97"])
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(analytics, "_BLOCK", request.param)
    return request.param


@pytest.mark.parametrize("sc", SCENARIOS, ids=IDS)
def test_constants_match_oracle_at_every_n(sc, block):
    # repr tells -0.0 from 0.0 and compares NaN equal to itself
    want = list(oracle_constants(sc.model, 10 ** 4))
    assert repr(scanned(sc.model, 10 ** 4)) == repr(want)
    cc = composite_constants(sc.model, 10 ** 4)
    assert repr((cc.n, cc.A, cc.C, cc.log_D, cc.B)) == repr(want[-1])


@pytest.mark.parametrize("sc", SCENARIOS, ids=IDS)
def test_limit_evidence_matches_oracle(sc, block):
    got = limit_constants(sc.model, 10 ** 4).evidence
    assert repr(got) == repr(oracle_evidence(sc.model, 10 ** 4))


@pytest.mark.parametrize("sc", SCENARIOS, ids=IDS)
def test_convergence_sums_match_oracle(sc, block):
    got = convergence_conditions(sc.model, 10 ** 4).partial_sums
    assert repr(got) == repr(oracle_partial_sums(sc.model, 10 ** 4))


def test_log_d_undefined_from_first_nonpositive_gap(block):
    # Ex3 has c_1 = 1 = r, so D_n is undefined from n = 1 on
    model = scenario_model("Ex3")
    assert repr(scanned(model, 300)) == repr(list(oracle_constants(model,
                                                                   300)))
    assert composite_constants(model, 300).log_D is None


def test_overflow_and_nan_match_oracle(block):
    # A_n = 2^n overflows near n = 1024, and B_n = C_n / A_n = inf / inf
    # is NaN: the scan matches the oracle through both, limit_constants
    # names its first overflowed checkpoint instead of reading limits from
    # them, and the window folds keep Python's min/max semantics
    model = validate_model(1.0, 1.0, EnvSequence.constant(2.0),
                           EnvSequence.constant(0.5))
    want = list(oracle_constants(model, 1500))
    assert repr(scanned(model, 1500)) == repr(want)
    with pytest.raises(GwThetaError, match="^composite constants overflow "
                       "at n = 1125: A_n = inf, C_n = inf$"):
        limit_constants(model, 1500)
    for col in (1, 4):                  # A_n and B_n
        x = np.array([row[col] for row in want])
        for lo, hi in ((376, 751), (751, 1501), (1200, 1501)):
            acc = None
            for start in range(lo, hi, 97):
                acc = analytics._fold_min_max(acc, x[start:min(start + 97,
                                                               hi)])
            lo_want = hi_want = x[lo].item()
            for v in x[lo:hi].tolist():
                lo_want, hi_want = min(lo_want, v), max(hi_want, v)
            assert repr(acc) == repr((lo_want, hi_want)), (col, lo, hi)


def test_limit_constants_memory_is_o_block():
    model = scenario_model("Ex1")
    tracemalloc.start()
    try:
        limit_constants(model, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# -- errors at the same index -------------------------------------------------

def _error(fn, *args):
    with pytest.raises((RejectedParameter, DomainError)) as info:
        fn(*args)
    err = info.value
    return (type(err), str(err), getattr(err, "index", None),
            getattr(err, "constraint", None))


CONSUMERS = [
    lambda m, n: limit_constants(m, n),
    lambda m, n: constants_table(m, [n]),
    lambda m, n: convergence_conditions(m, n),
]


@pytest.mark.parametrize("bad_seq,index", [("a", 700), ("c", 20000)])
def test_bad_entry_beyond_check_horizon(bad_seq, index, block):
    # a_700 = -1 or c_20000 = 0.2 < 1 - a_n, both past check_horizon = 100
    a = [0.5] * 30000
    c = [0.6] * 30000
    if bad_seq == "a":
        a[index - 1] = -1.0
    else:
        c[index - 1] = 0.2
    model = validate_model(1.0, 1.0, EnvSequence.from_table(a),
                           EnvSequence.from_table(c))
    want = _error(model.step, index)
    assert want[0] is RejectedParameter and want[2] == index
    for consume in CONSUMERS:
        assert _error(consume, model, 30000) == want


def test_strict_table_ends_with_domain_error(block):
    a = EnvSequence.from_table([0.5] * 300, tail_rule="error")
    model = validate_model(1.0, 1.0, a, EnvSequence.constant(0.6))
    want = _error(model.step, 301)
    assert want[0] is DomainError and "index 301" in want[1]
    for consume in CONSUMERS:
        assert _error(consume, model, 1000) == want
    assert composite_constants(model, 300).n == 300


def test_bad_entry_before_strict_end_is_reported_first(block):
    values = [0.5] * 300
    values[249] = 2.0              # a_250 >= 1 is invalid in case (c)
    a = EnvSequence.from_table(values, tail_rule="error")
    model = validate_model(-0.5, 1.0, a, EnvSequence.constant(0.3))
    want = _error(model.step, 250)
    assert want[0] is RejectedParameter and want[3] == "a_n < 1"
    for consume in CONSUMERS:
        assert _error(consume, model, 1000) == want


def test_eager_validation_reports_the_same_errors():
    values = [0.5] * 50
    values[29] = math.nan
    with pytest.raises(RejectedParameter) as err:
        validate_model(1.0, 1.0, EnvSequence.from_table(values),
                       EnvSequence.constant(0.6))
    assert err.value.index == 30
    assert err.value.constraint == "a_n > 0"
    short = EnvSequence.from_table([0.5] * 50, tail_rule="error")
    with pytest.raises(DomainError, match="index 51"):
        validate_model(1.0, 1.0, short, EnvSequence.constant(0.6))


# -- small n: constants_at and composite_constants below one block -----------

SMALL_NS = range(64)


def _small_models():
    """The registry, plus a model whose D_n stops at n = 21 (r - c_21 < 0)
    and one whose A_n overflows near n = 31 (so B_n = inf / inf is NaN)."""
    models = [(sc.id, sc.model) for sc in SCENARIOS]
    c = [0.6] * 20 + [1.5] + [0.6] * 80
    models.append(("log_D_stops", validate_model(
        1.0, 1.1, EnvSequence.constant(0.5), EnvSequence.from_table(c))))
    models.append(("overflow", validate_model(
        1.0, 1.0, EnvSequence.constant(1e10), EnvSequence.constant(0.5))))
    return models


@pytest.mark.parametrize("name,model", _small_models(),
                         ids=[name for name, _ in _small_models()])
def test_small_n_constants_match_the_scan(name, model):
    # a query of a few small n is the scan's, constant for constant, where
    # log_D stops short too
    want = {cc.n: repr(cc) for cc in constants_iter(model, max(SMALL_NS))}
    got = analytics.constants_at(model, SMALL_NS)
    assert {n: repr(cc) for n, cc in got.items()} == want
    for n in SMALL_NS:
        assert repr(composite_constants(model, n)) == want[n]
    if name == "log_D_stops":
        assert got[20].log_D is not None and got[21].log_D is None
    if name == "overflow":
        assert math.isinf(got[40].A) and math.isnan(got[40].B)


def test_small_n_errors_match_the_scan():
    # a bad entry past check_horizon and the end of a strict table raise
    # at the same index as in the scan
    a = [0.5] * 100
    a[39] = -1.0
    bad = validate_model(1.0, 1.0, EnvSequence.from_table(a),
                         EnvSequence.constant(0.6), check_horizon=10)
    short = validate_model(1.0, 1.0, EnvSequence.from_table(
        [0.5] * 30, tail_rule="error"), EnvSequence.constant(0.6),
        check_horizon=10)
    for model, n in ((bad, 40), (short, 31)):
        want = _error(lambda: list(constants_iter(model, 50)))
        assert want[0] in (RejectedParameter, DomainError)
        assert _error(composite_constants, model, 50) == want
        assert _error(model.step, n) == want


# -- the last one-block walk, reused ------------------------------------------

def _outcome(fn, *args):
    """repr of what fn returns, or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except (RejectedParameter, DomainError) as err:
        return repr((type(err), str(err)))


def _memo_consumers(n):
    return [
        lambda m: limit_constants(m, n),
        lambda m: constants_table(m, [0, 1, n // 3, n]),
        lambda m: convergence_conditions(m, n),
        lambda m: composite_constants(m, n),
    ]


def _kept_walk(model):
    """The walk of model that analytics keeps, or None; it is not marked
    as used."""
    return dict(analytics._walks.items()).get((model, analytics._BLOCK))


@pytest.mark.parametrize("sc", SCENARIOS, ids=IDS)
def test_reused_walk_matches_a_fresh_one(sc, block, swap_memo):
    # the longest walk kept is one block; n leaves room for a longer one
    top = analytics._BLOCK
    n = 90 if block else 10 ** 4
    other = scenario_model("Ex2" if sc.id == "Ex1" else "Ex1")
    for consume in _memo_consumers(n):
        swap_memo(analytics, "_walks")
        want = _outcome(consume, sc.model)
        # after another model's walk, kept beside it or in its place
        composite_constants(other, n)
        assert _outcome(consume, sc.model) == want
        # after a longer walk of the same model it is a prefix of that one
        composite_constants(sc.model, top)
        kept = _kept_walk(sc.model)
        assert kept.a.size == top
        assert _outcome(consume, sc.model) == want
        assert _kept_walk(sc.model) is kept


def test_walk_is_served_beside_another_models_walk(monkeypatch, swap_memo):
    # Ex2's walk is kept beside Ex1's, so Ex1's constants at 500 are a
    # prefix of its walk to 1000, with no step read, bit for bit a fresh
    # walk's
    ex1, ex2 = scenario_model("Ex1"), scenario_model("Ex2")
    composite_constants(ex1, 1000)
    composite_constants(ex2, 1000)
    steps = ThetaModel.steps
    calls = []

    def counting(self, n0, n1):
        calls.append((n0, n1))
        return steps(self, n0, n1)
    monkeypatch.setattr(ThetaModel, "steps", counting)
    got = constants_at(ex1, [500])
    assert calls == []
    swap_memo(analytics, "_walks")
    assert repr(got) == repr(constants_at(ex1, [500]))
    assert calls == [(1, 501)]


def test_cached_walk_does_not_hide_a_later_bad_entry(swap_memo):
    # a_700 = -1 lies past check_horizon = 100 and past the kept walk to 500
    a = [0.5] * 1000
    a[699] = -1.0
    model = validate_model(1.0, 1.0, EnvSequence.from_table(a),
                           EnvSequence.constant(0.6))
    want = _error(model.step, 700)
    assert want[0] is RejectedParameter and want[2] == 700
    for consume in CONSUMERS + [composite_constants]:
        swap_memo(analytics, "_walks")
        composite_constants(model, 500)
        assert _kept_walk(model).a.size == 500
        assert _error(consume, model, 1000) == want
        assert _kept_walk(model).a.size == 500


def test_kept_walk_is_read_only():
    composite_constants(scenario_model("Ex1"), 50)
    for x in _kept_walk(scenario_model("Ex1"))[1:]:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[:1] = 1.0


def test_walk_longer_than_a_block_is_not_kept(swap_memo):
    walks = swap_memo(analytics, "_walks")
    limit_constants(scenario_model("Ex1"), 10 ** 6)
    assert walks.items() == [] and walks.total == 0


# -- generation indices must be integers --------------------------------------

@pytest.mark.parametrize("call", [
    lambda m, n: composite_constants(m, n),
    lambda m, n: constants_table(m, [n]),
    lambda m, n: limit_constants(m, 100 + n),
    lambda m, n: convergence_conditions(m, 10 ** 4 + n),
    lambda m, n: list(constants_iter(m, n)),
], ids=["composite_constants", "constants_table", "limit_constants",
        "convergence_conditions", "constants_iter"])
def test_non_integral_index_is_a_domain_error(call):
    model = scenario_model("Ex1")
    with pytest.raises(DomainError, match="must be an integer"):
        call(model, 2.5)
    # integers and numpy integers are indices
    assert repr(call(model, np.int64(2))) == repr(call(model, 2))


def test_negative_constants_iter_bound_is_a_domain_error():
    # it yielded n = 0 alone before
    with pytest.raises(DomainError, match="^up_to must be >= 0, got -1$"):
        next(constants_iter(scenario_model("Ex1"), -1))
    assert [cc.n for cc in constants_iter(scenario_model("Ex1"), 0)] == [0]
