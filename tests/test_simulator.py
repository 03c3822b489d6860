import cProfile
import json
import math
import pstats
import sys
import threading
import time
import warnings
from itertools import repeat

import numpy as np
import pytest
from scipy import stats as sps

from gwtheta import series, simulator
from gwtheta.analytics import (composed_pgf, composite_constants,
                               composite_law)
from gwtheta.environment import EnvSequence, ThetaLaw, validate_model
from gwtheta.errors import CutoffExceeded, DomainError, GwThetaError
from gwtheta.harness import VerifyConfig, registry, scenario_model
from gwtheta.series import (DEFAULT_MAX_CUTOFF, DEFAULT_TAIL_TOL,
                            RECURRENCE_MAX, Pmf, _build, extend_pmf,
                            pmf_from_theta_pgf, population_pmf, step_pmf)
from gwtheta.simulator import (DELTA, POPULATION_CAP, STEP_BLOCK,
                               Trajectory, _CUTOFF_CODE, _DELTA_CODE,
                               _PmfSampler, _SamplerTable, _replicate_streams,
                               replicate_rng, run_ensemble,
                               sample_heavy_tail_index, sample_heavy_tail_log,
                               sample_offspring, sample_zn, sample_zn_direct,
                               simulate_trajectories, simulate_trajectory)


def test_replicate_rng_deterministic_and_distinct():
    a = replicate_rng(42, 0).random(4)
    b = replicate_rng(42, 0).random(4)
    c = replicate_rng(42, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [20240901, 2 ** 63 + 12345])
def test_replicate_streams_match_replicate_rng(seed):
    # the re-keyed stream is the replicate_rng stream draw for draw from the
    # start of its block b; the second seed needs the full 64-bit key, and
    # the last indices wrap
    indices = list(range(3000)) + [2 ** 63, 2 ** 64 - 1, 2 ** 64 + 7]
    blocks = [i % 7 for i in range(len(indices))]
    streams = _replicate_streams(zip(repeat(seed), indices), blocks)
    for i, b, rng in zip(indices, blocks, streams):
        fresh = replicate_rng(seed, i)
        assert np.array_equal(rng.random(9), fresh.random(4 * b + 9)[4 * b:])
        assert rng.integers(0, 2 ** 62) == fresh.integers(0, 2 ** 62), i


@pytest.mark.parametrize("seed", [20240901, 2 ** 63 + 12345])
def test_replicate_rng_matches_keyed_philox(seed):
    # a Philox built from the key alone gives the reference stream of a
    # (seed, index) key
    for i in (0, 1, 977, 2 ** 63, 2 ** 64 - 1):
        key = np.array([seed & (2 ** 64 - 1), i], dtype=np.uint64)
        keyed = np.random.Generator(np.random.Philox(key=key))
        rng = replicate_rng(seed, i)
        assert np.array_equal(rng.random(9), keyed.random(9)), i
        assert rng.integers(0, 2 ** 62) == keyed.integers(0, 2 ** 62), i


def test_replicate_rng_draws_no_os_entropy():
    profile = cProfile.Profile()
    profile.runcall(lambda: [replicate_rng(5, i) for i in range(1000)])
    entropy_calls = sum(row[1] for (_, _, fn), row
                        in pstats.Stats(profile).stats.items()
                        if "getrandbits" in fn)
    assert entropy_calls == 0


def test_sample_offspring_chi_square():
    # geometric offspring law; inverse-transform draws vs exact pmf
    pmf = pmf_from_theta_pgf(1.0, 1.0, 1.0, 1.0)
    rng = replicate_rng(7, 0)
    n = 20000
    draws = [sample_offspring(pmf, rng) for _ in range(n)]
    counts = np.bincount(draws, minlength=12)[:12]
    probs = np.array([2.0 ** -(j + 1) for j in range(12)])
    obs = np.append(counts, n - counts.sum())
    exp = np.append(probs, 1 - probs.sum()) * n
    chi2 = ((obs - exp) ** 2 / exp).sum()
    assert chi2 < sps.chi2.ppf(0.999, df=12)


def test_defective_draws_hit_delta():
    model = scenario_model("Ex9i")
    from gwtheta.series import step_pmf
    pmf = step_pmf(model, 1)
    rng = replicate_rng(3, 0)
    draws = [sample_offspring(pmf, rng) for _ in range(5000)]
    frac = sum(1 for d in draws if d == DELTA) / len(draws)
    assert frac == pytest.approx(pmf.defect_mass, abs=0.02)
    assert frac > 0.0


class _FixedUniforms:
    """Stands in for a Generator: random(k) returns the next k of u."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, k):
        head, self.u = self.u[:k], self.u[k:]
        return head


def test_pmf_sampler_rounding_sliver_is_delta():
    # the running sum 0.25 + 0.2500000000000001 rounds above 1 - defect
    # = 0.5, so u = 0.5 lands inside the table unless it is clamped
    law = ThetaLaw(1.0, 1.0, 1.0, 1.0, None)
    pmf = Pmf(np.array([0.25, 0.2500000000000001]), 0.0, 0.5, 1, law)
    assert np.cumsum(pmf.weights)[-1] > 0.5
    assert sample_offspring(pmf, _FixedUniforms([0.5])) == DELTA


@pytest.mark.parametrize("sid", ["Ex10ii", "Ex7i"])
def test_pmf_sampler_draws_do_not_depend_on_extension(sid):
    # a sampler extended to its whole budget ahead of time draws what a
    # fresh one draws, tail extensions and budget overruns included
    model, budget = scenario_model(sid), 2 ** 14
    fresh = simulator._sampler(model, 30, budget, True)
    ahead = simulator._sampler(model, 30, budget, True)
    while ahead.pmf.cutoff < budget:
        ahead._set_pmf(extend_pmf(ahead.pmf, 2 * ahead.pmf.cutoff))
    assert fresh.pmf.cutoff < budget

    def draws(sampler, u):
        out = []
        for v in u:
            try:
                out.append(int(sampler.place(np.array([v]))[0]))
            except CutoffExceeded:
                out.append(None)
        return out
    u = np.random.default_rng(2024).random(10 ** 4)
    assert draws(fresh, u) == draws(ahead, u)


# one model of each parameter row (a) .. (f); (e) has the mixture sampler
_CASE_MODELS = {"a": "Ex1", "b": "Ex7i", "c": "Ex10i", "d": "Ex8i",
                "e": "Ex6i", "f": "Ex9i"}


@pytest.mark.parametrize("population", [False, True])
@pytest.mark.parametrize("case", sorted(_CASE_MODELS))
def test_sampler_chi_square_against_pmf(case, population):
    model = scenario_model(_CASE_MODELS[case])
    assert model.case_label == case
    n, budget, size = 5, 2 ** 12, 20000
    build = population_pmf if population else step_pmf
    try:
        pmf = build(model, n, max_cutoff=budget)
    except CutoffExceeded as err:
        pmf = err.partial
    sampler = simulator._sampler(model, n, budget, population)
    rng = replicate_rng(31 + population, 0)
    draws = []
    for _ in range(size):
        try:
            draws.append(int(sampler.place(rng.random(1))[0]))
        except CutoffExceeded:
            draws.append(budget + 1)         # beyond the budget: tail
    draws = np.array(draws)
    # single values with 5 expected draws or more, then the DELTA bucket,
    # then the tail bucket holding every other value
    bins = np.flatnonzero(pmf.weights * size >= 5.0)
    obs = [np.count_nonzero(draws == j) for j in bins]
    exp = list(pmf.weights[bins] * size)
    obs.append(np.count_nonzero(draws == simulator._DELTA_CODE))
    exp.append(pmf.defect_mass * size)
    obs.append(size - sum(obs))
    exp.append(size - sum(exp))
    obs, exp = np.array(obs), np.array(exp)
    empty = exp < 1e-9
    assert not obs[empty].any()
    result = sps.chisquare(obs[~empty], exp[~empty])
    assert result.pvalue >= 1e-6, (obs, exp)


def test_heavy_tail_index_sampler_matches_tail():
    # law with pgf 1 - (1-s)^a: P(Y > j) = Gamma(j+1-a)/(Gamma(j+1)Gamma(1-a))
    a = 0.5
    rng = replicate_rng(11, 0)
    u = rng.random(40000)
    draws = np.array([sample_heavy_tail_index(float(v), a) for v in u])
    for j in (1, 4, 16):
        target = math.exp(math.lgamma(j + 1 - a) - math.lgamma(j + 1)
                          - math.lgamma(1 - a))
        assert (draws > j).mean() == pytest.approx(target, abs=0.01)


def test_heavy_tail_log_sampler_consistent_with_index():
    a = 0.2
    for u in (0.9, 0.5, 0.2, 0.05):
        idx = sample_heavy_tail_index(u, a)
        lg = sample_heavy_tail_log(u, a)
        assert lg == pytest.approx(math.log(idx), abs=1e-6)


def test_heavy_tail_log_sampler_extreme_tail():
    # u close enough to 1 that the draw exceeds any integer range
    a = 1 / 2001
    lg = sample_heavy_tail_log(1.0 - 1e-9, a)
    assert lg > 1e4
    assert math.isfinite(lg)


def test_trajectory_deterministic_and_absorbing():
    model = scenario_model("Ex3")
    t1 = simulate_trajectory(model, 50, seed=123)
    t2 = simulate_trajectory(model, 50, seed=123)
    assert t1.states == t2.states
    if t1.tau0 is not None:
        # zero is absorbing
        assert all(s == 0 for s in t1.states[t1.tau0:])
        assert t1.tau == t1.tau0


def test_trajectory_delta_absorbing():
    model = scenario_model("Ex9i")
    hit = None
    for seed in range(40):
        t = simulate_trajectory(model, 30, seed=seed)
        if t.tau_delta is not None:
            hit = t
            break
    assert hit is not None
    assert all(s == DELTA for s in hit.states[hit.tau_delta:])


def test_direct_sampler_matches_extinction_probability():
    model = scenario_model("Ex3")
    n, reps = 12, 4000
    zero = sample_zn(model, n, range(reps)).count(0)
    assert zero / reps == pytest.approx(composed_pgf(model, n, 0.0),
                                        abs=0.03)


def test_sample_zn_direct_is_the_one_seed_case():
    model = scenario_model("Ex9i")
    seeds = list(range(60))
    draws = sample_zn(model, 7, seeds)
    assert draws == [sample_zn_direct(model, 7, seed=s) for s in seeds]
    assert DELTA in draws and 0 in draws
    with pytest.raises(DomainError):
        sample_zn(model, 0, seeds)


def test_direct_ensemble_of_non_finite_law_raises():
    # composite A_2 = 1e200^2 overflows: the direct ensemble raises at the
    # first cutoff instead of drawing from a table of NaNs; the step laws
    # are finite, so a generational ensemble still runs
    model = validate_model(1.0, 1.0, EnvSequence.from_table([1e200] * 3),
                           EnvSequence.from_table([1.0] * 3))
    t0 = time.perf_counter()
    with pytest.raises(GwThetaError,
                       match="^non-finite pmf coefficient at cutoff 64$"):
        run_ensemble(model, 2, 100, 1, mode="direct")
    assert time.perf_counter() - t0 < 0.1
    assert run_ensemble(model, 2, 100, 1).zero_freq == (1.0, 0.0)
    # the error comes before, and without, any numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: population_pmf(model, 2),
                     lambda: run_ensemble(model, 2, 100, 1, mode="direct")):
            with pytest.raises(GwThetaError, match="^non-finite pmf"):
                call()


def test_run_ensemble_modes_agree():
    model = scenario_model("Ex1")
    n = 6
    direct = run_ensemble(model, n, 4000, base_seed=5, mode="direct")
    gen = run_ensemble(model, n, 4000, base_seed=6, mode="generational")
    exact = composed_pgf(model, n, 0.5)
    for stats in (direct, gen):
        (s, est, se) = stats.empirical_pgf[5]
        assert s == 0.5
        assert est == pytest.approx(exact, abs=5 * max(se, 1e-3))


def test_run_ensemble_reproducible_across_workers():
    model = scenario_model("Ex1")
    a = run_ensemble(model, 5, 9000, base_seed=77, workers=1)
    b = run_ensemble(model, 5, 9000, base_seed=77, workers=3)
    assert a.zero_freq == b.zero_freq
    assert a.empirical_pgf == b.empirical_pgf


def test_run_ensemble_reproducible_across_workers_above_recurrence(
        monkeypatch):
    # small chunks: at one worker every chunk shares one sampler, so each
    # cutoff past RECURRENCE_MAX, into the Cauchy integral blocks, is
    # reached once; at two workers each pool task extends its own
    monkeypatch.setattr(simulator, "CHUNK", 512)
    cutoffs = []

    def recording_extend(pmf, cutoff):
        cutoffs.append(cutoff)
        return extend_pmf(pmf, cutoff)
    model = scenario_model("Ex10ii")
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "extend_pmf", recording_extend)
        one = run_ensemble(model, 30, 3000, 1, workers=1, mode="direct",
                           max_cutoff=2 ** 14)
    assert max(cutoffs) == 2 ** 14
    assert sum(c > RECURRENCE_MAX for c in cutoffs) >= 2
    assert len(set(cutoffs)) == len(cutoffs)
    two = run_ensemble(model, 30, 3000, 1, workers=2, mode="direct",
                       max_cutoff=2 ** 14)
    assert one == two


def test_run_ensemble_generational_reproducible_across_workers(monkeypatch):
    monkeypatch.setattr(simulator, "CHUNK", 512)
    model = scenario_model("Ex7i")
    one = run_ensemble(model, 30, 3000, 2, workers=1)
    two = run_ensemble(model, 30, 3000, 2, workers=2)
    assert one == two


def test_run_ensemble_scaled_samples():
    from gwtheta.analytics import limit_constants, limit_law
    model = scenario_model("Ex1")
    law = limit_law(model, limit_constants(model, 10 ** 4))
    n = 50
    stats = run_ensemble(model, n, 3000, base_seed=9, mode="direct",
                         scaling=law)
    w = stats.scaled_samples
    assert len(w) == 3000
    cc = composite_constants(model, n)
    # scaled value is A_n^{1/theta} Z_n, so entries are multiples of A_n
    nz = w[w > 0]
    assert np.all(np.abs(nz / cc.A - np.round(nz / cc.A)) < 1e-9)


@pytest.mark.parametrize("sid", ["Ex7i", "Ex10i"])
def test_scaled_samples_conditioned_on_survival_drop_zeros(sid):
    # T7i and T10i are laws of Z_n given tau > n: the sample holds exactly
    # the surviving replicates
    from gwtheta.analytics import limit_constants, limit_law
    model = scenario_model(sid)
    law = limit_law(model, limit_constants(model, 10 ** 4))
    assert law.theorem_id == "T" + sid[2:]
    stats = run_ensemble(model, 20, 2000, base_seed=3, mode="direct",
                         scaling=law)
    w = stats.scaled_samples
    assert len(w) == round(stats.survival_freq[0] * 2000) > 0
    assert np.all(w > 0)


def test_run_ensemble_validates_arguments():
    model = scenario_model("Ex1")
    with pytest.raises(DomainError):
        run_ensemble(model, 5, 0, base_seed=1)
    with pytest.raises(DomainError):
        run_ensemble(model, 5, 10, base_seed=1, mode="bogus")
    with pytest.raises(DomainError):
        run_ensemble(model, 5, 10, base_seed=1, workers=0)


@pytest.mark.parametrize("mode", ["generational", "direct"])
@pytest.mark.parametrize("s", [math.nan, -0.1, 1.5, math.inf, -math.inf])
def test_s_grid_outside_the_unit_interval_is_rejected(mode, s):
    with pytest.raises(DomainError, match=r"^s_grid entries must lie in"):
        run_ensemble(scenario_model("Ex1"), 5, 50, 1, mode=mode,
                      s_grid=(0.5, s))


def test_empty_s_grid_is_valid():
    stats = run_ensemble(scenario_model("Ex1"), 5, 50, 1, s_grid=())
    assert stats.empirical_pgf == ()


@pytest.mark.parametrize("workers,replicates,size", [
    (8, 1100, 3), (2, 1100, 2), (64, 600, 2)])
def test_pool_is_no_larger_than_the_work(monkeypatch, workers, replicates,
                                         size):
    # a stand-in for the pool that records its size and maps in this
    # process, so no worker process is started
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)
    monkeypatch.setattr(simulator, "CHUNK", 512)
    monkeypatch.setattr(simulator, "ProcessPoolExecutor", Pool)
    model = scenario_model("Ex9ii")
    got = run_ensemble(model, 10, replicates, 3, workers=workers)
    assert sizes == [size]
    assert got == run_ensemble(model, 10, replicates, 3, workers=1)


def test_ensemble_frequencies_sum_to_one():
    model = scenario_model("Ex9i")
    stats = run_ensemble(model, 15, 2000, base_seed=21)
    total = (stats.zero_freq[0] + stats.delta_freq[0]
             + stats.survival_freq[0])
    assert total == pytest.approx(1.0, abs=1e-12)
    assert stats.delta_freq[0] > 0.0


# ---------------------------------------------------------------------------
# The lockstep reduction against one array draw per replicate: the sums and
# lows that _place_sums gives for a segment of uniforms must be, from the
# same uniforms, the sum of one place over them, DELTA if any draw is
# DELTA, or CutoffExceeded if any draw falls in a tail beyond the budget.
# (The test_scalar_sum_* names date from the scalar path these checks
# first pinned, which the lockstep engine replaced.)  _array_states is the
# generation loop as it was before either, drawing every generation of one
# replicate through place in batches of BATCH.
# ---------------------------------------------------------------------------

def _array_sum(sampler, u):
    try:
        draws = sampler.place(np.asarray(u, dtype=float))
    except CutoffExceeded:
        return "CutoffExceeded"
    return _DELTA_CODE if (draws == _DELTA_CODE).any() else int(draws.sum())


def _lockstep_sums(sampler, uniforms):
    """The outcome of each segment of uniforms from one _place_sums call."""
    sizes = [len(u) for u in uniforms]
    starts = np.cumsum([0] + sizes[:-1])
    sums, lows = simulator._place_sums(
        sampler, np.concatenate([np.asarray(u, dtype=float)
                                 for u in uniforms]), starts)
    return ["CutoffExceeded" if low == _CUTOFF_CODE else
            _DELTA_CODE if low == _DELTA_CODE else total
            for total, low in zip(sums.tolist(), lows.tolist())]


def _scalar_sum(sampler, u):
    return _lockstep_sums(sampler, [u])[0]


def _agree(scalar, array, uniforms):
    return _lockstep_sums(scalar, uniforms) == \
        [_array_sum(array, u) for u in uniforms]


def test_scalar_random_reads_the_array_doubles():
    for seed, index in ((7, 0), (20240901, 3), (2 ** 63 + 5, 2 ** 64 - 1)):
        scalar, array = replicate_rng(seed, index), replicate_rng(seed, index)
        for k in (1, 2, 3, 8, 5, 1):
            got = [scalar.random() for _ in range(k)]
            assert got == array.random(k).tolist()


@pytest.mark.parametrize("population", [False, True])
@pytest.mark.parametrize("case", sorted(set(_CASE_MODELS) - {"e"}))
def test_scalar_sum_matches_array_sum(case, population):
    # row (e) has the mixture sampler, which has no DELTA and no tail
    model = scenario_model(_CASE_MODELS[case])
    assert model.case_label == case
    budget = 2 ** 12
    scalar = simulator._sampler(model, 5, budget, population)
    array = simulator._sampler(model, 5, budget, population)
    assert isinstance(scalar, _PmfSampler)
    rng = np.random.default_rng(11 + population)
    uniforms = [rng.random(k) for k in rng.integers(1, 9, size=3000)]
    # u at and just below the end of the table and of the proper mass
    edges = [scalar._cum[-1], np.nextafter(scalar._cum[-1], 0.0),
             scalar._proper, np.nextafter(scalar._proper, 0.0)]
    uniforms += [[e] for e in edges if e < 1.0]
    uniforms += [[0.3, e, 0.7] for e in edges if e < 1.0]
    assert _agree(scalar, array, uniforms)


def test_scalar_sum_delta():
    model = scenario_model("Ex9i")
    scalar, array = (simulator._sampler(model, 1, 2 ** 12, False)
                     for _ in range(2))
    assert scalar.pmf.defect_mass > 0.0
    near_one = np.nextafter(1.0, 0.0)
    uniforms = [[near_one], [0.1, near_one], [near_one, 0.1, 0.2],
                [0.5] * 7 + [near_one], [scalar._proper]]
    assert all(_scalar_sum(scalar, u) == _DELTA_CODE for u in uniforms)
    assert _agree(scalar, array, uniforms)


def test_scalar_sum_rounding_sliver_is_delta():
    # the sliver of test_pmf_sampler_rounding_sliver_is_delta: the running
    # sum rounds above 1 - defect = 0.5, and u = 0.5 must still be DELTA
    law = ThetaLaw(1.0, 1.0, 1.0, 1.0, None)
    pmf = Pmf(np.array([0.25, 0.2500000000000001]), 0.0, 0.5, 1, law)
    scalar, array = _PmfSampler(pmf, 1), _PmfSampler(pmf, 1)
    uniforms = [[0.5], [0.1, 0.5], [0.5, 0.3], [0.3, 0.4]]
    assert _scalar_sum(scalar, [0.5]) == _DELTA_CODE
    assert _agree(scalar, array, uniforms)


def test_scalar_sum_extends_the_tail_mid_draw():
    # Ex10ii's heavy tail: a uniform past the base table extends it in the
    # middle of a draw, and the uniforms after it search the longer table
    model, budget = scenario_model("Ex10ii"), 2 ** 14
    scalar = simulator._sampler(model, 30, budget, True)
    array = simulator._sampler(model, 30, budget, True)
    ahead = simulator._sampler(model, 30, budget, True)
    while ahead.pmf.cutoff < budget:
        ahead._set_pmf(extend_pmf(ahead.pmf, 2 * ahead.pmf.cutoff))
    base, base_cutoff = scalar._cum[-1], scalar.pmf.cutoff
    assert base < ahead._cum[-1]
    past = float(np.nextafter(base, 1.0))
    last = float(np.nextafter(ahead._cum[-1], 0.0))   # needs the full budget
    u = [0.2 * base, past, 0.4 * base, past, 0.9 * base]
    want = sum(int(np.searchsorted(ahead._cum, v, side="right")) for v in u)
    assert _scalar_sum(scalar, u) == want
    assert scalar.pmf.cutoff > base_cutoff
    assert _agree(scalar, array, [u, [last, past], [past, last, 0.1]])
    assert scalar.pmf.cutoff == array.pmf.cutoff == budget


def test_array_draw_resolves_a_second_tail_uniform_at_the_budget():
    # the first uniform extends the table to the whole budget; the second,
    # also past the base table, lies inside the extended one and resolves
    model, budget = scenario_model("Ex10ii"), 2 ** 14
    array = simulator._sampler(model, 30, budget, True)
    ahead = simulator._sampler(model, 30, budget, True)
    while ahead.pmf.cutoff < budget:
        ahead._set_pmf(extend_pmf(ahead.pmf, 2 * ahead.pmf.cutoff))
    u = [float(np.nextafter(ahead._cum[-1], 0.0)),
         float(np.nextafter(array._cum[-1], 1.0))]
    want = np.searchsorted(ahead._cum, u, side="right")
    assert np.array_equal(array.place(np.array(u)), want)


def test_light_tail_stops_doubling_at_a_zero_tail():
    # Ex3's law of Z_500 has no defect and a geometric tail, yet its running
    # sum stops 1.4e-14 short of 1: no table holds a proper uniform above
    # that, so the cutoff stops doubling at the first table whose tail mass
    # is 0, as _build does, and not at the 2^20 budget
    model, budget = scenario_model("Ex3"), 2 ** 20
    sampler = simulator._sampler(model, 500, budget, True)
    start = time.perf_counter()
    got = sampler.place(np.array([1 - 2 ** -53, 0.3, 0.999]), cutoff_code=-2)
    assert time.perf_counter() - start < 0.5
    assert got.tolist() == [-2, 0, 108]
    J = sampler.pmf.cutoff
    assert sampler.pmf.tail_mass == 0.0 and J < budget
    before = simulator._sampler(model, 500, budget, True).pmf
    assert extend_pmf(before, J // 2).tail_mass > 0.0


def test_scalar_sum_cutoff_exceeded_at_a_capped_budget():
    # budget = cutoff: a proper uniform past the table cannot be resolved,
    # and raises whatever else the draw holds, DELTA included
    law = ThetaLaw(1.0, 1.0, 1.0, 1.0, None)
    pmf = Pmf(np.array([0.25, 0.25]), 0.25, 0.25, 1, law)
    scalar, array = _PmfSampler(pmf, 1), _PmfSampler(pmf, 1)
    uniforms = [[0.6], [0.1, 0.6], [0.8, 0.6], [0.6, 0.8], [0.8, 0.1],
                [0.1, 0.3]]
    assert [_scalar_sum(scalar, u) for u in uniforms] == [
        "CutoffExceeded"] * 4 + [_DELTA_CODE, 1]
    assert _agree(scalar, array, uniforms)
    # a capped heavy tail: Ex10ii, first extended to its 2^10 budget by a
    # uniform just below its proper mass
    model = scenario_model("Ex10ii")
    scalar = simulator._sampler(model, 30, 2 ** 10, True)
    array = simulator._sampler(model, 30, 2 ** 10, True)
    scalar.place(np.array([np.nextafter(scalar._proper, 0.0)]),
                 cutoff_code=_CUTOFF_CODE)
    assert scalar.pmf.cutoff == 2 ** 10
    past = float(np.nextafter(scalar._cum[-1], 1.0))
    uniforms = [[past], [0.5, past], [past, 0.5], [0.5, 0.5]]
    assert [_scalar_sum(scalar, u) for u in uniforms][:3] == [
        "CutoffExceeded"] * 3
    assert _agree(scalar, array, uniforms)


# A population sampler starts at the first cutoff (64) and extends its table
# to the demand of each place call; it must place every uniform as a sampler
# built to DEFAULT_TAIL_TOL does, and extend no further than it needs.
# ---------------------------------------------------------------------------

def _place_outcome(sampler, u, cutoff_code=None):
    """place's output, or the CutoffExceeded it raises with its partial."""
    try:
        return sampler.place(u, cutoff_code=cutoff_code).tolist()
    except CutoffExceeded as err:
        return (str(err), err.partial.cutoff, err.partial.weights.tolist())


def _full_samplers(laws, budget):
    """Samplers of laws whose tables are built to DEFAULT_TAIL_TOL, or to
    the partial table of the build when the budget cannot reach it."""
    out = []
    for law in laws:
        try:
            pmf = _build(law, DEFAULT_TAIL_TOL, budget)
        except CutoffExceeded as err:
            pmf = err.partial
        out.append(_PmfSampler(pmf, budget))
    return out


@pytest.mark.parametrize("budget", [2 ** 10, 2 ** 13, 2 ** 20])
@pytest.mark.parametrize("sid,n", [("Ex1", 100), ("Ex3", 500), ("Ex10i", 50),
                                   ("Ex10ii", 50)])
def test_demand_sized_table_places_as_the_full_build(sid, n, budget):
    model = scenario_model(sid)
    short = simulator._sampler(model, n, budget, True)
    full = _full_samplers([composite_law(model, n)], budget)[0]
    proper = short._proper
    assert short.pmf.cutoff == 64 and full._proper == proper
    edges = [np.nextafter(short._cum[-1], 1.0),
             np.nextafter(full._cum[-1], 1.0), np.nextafter(proper, 0.0),
             proper, 1.0 - 2.0 ** -53]
    u = np.random.default_rng(budget + n).random(4000)
    # one place extends the table to the first doubling that holds the
    # largest proper uniform, or to the budget, and no further
    first = [_place_outcome(s, u, _CUTOFF_CODE) for s in (short, full)]
    assert first[0] == first[1]
    top, cutoff = u[u < proper].max(), short.pmf.cutoff
    assert top < short._cum[-1] or cutoff == budget
    assert cutoff == 64 or top >= short._cum[cutoff // 2]
    # a uniform in the last slice of the 128-weight table needs that table
    last = full._cum[127:128]
    assert short._cum[64] < last[0] < full._cum[128]
    fresh = simulator._sampler(model, n, budget, True)
    assert fresh.place(last).tolist() == [128] == full.place(last).tolist()
    assert fresh.pmf.cutoff == 128
    # the edges among the uniforms: equal draws with a code, and without
    # one the same CutoffExceeded when a uniform lies beyond the budget
    u = np.insert(u, [0, 1000, 2000, 3000, 4000], edges)
    coded = [_place_outcome(s, u, _CUTOFF_CODE) for s in (short, full)]
    bare = [_place_outcome(s, u) for s in (short, full)]
    assert coded[0] == coded[1] and bare[0] == bare[1]
    assert isinstance(bare[0], tuple) == (_CUTOFF_CODE in coded[0])
    if budget == 2 ** 10 and sid.startswith("Ex10"):
        assert isinstance(bare[0], tuple)


@pytest.mark.parametrize("sid,budget", [
    ("Ex3", 2 ** 10), ("Ex5", 2 ** 10), ("Ex5", 2 ** 13), ("Ex10i", 2 ** 10),
    ("Ex10ii", 2 ** 10)])
def test_block_built_step_tables_place_as_the_full_build(sid, budget):
    # step laws whose tables reach past 64 weights at DEFAULT_TAIL_TOL: Ex3
    # at every odd n, Ex5 at n = 4, 8, 16, 32, 64 (128 to 2048 weights),
    # Ex10 at 1024 and beyond; the block-built table starts at 64 weights
    # and places every uniform as the full build does
    model = scenario_model(sid)
    table = _SamplerTable(model, budget, STEP_BLOCK)
    fulls = _full_samplers([model.step_law(n)
                            for n in range(1, STEP_BLOCK + 1)], budget)
    rng = np.random.default_rng(budget)
    reached = set()
    for n, full in enumerate(fulls, 1):
        short = table.get(n)
        assert short.pmf.cutoff == 64, n
        proper = short._proper
        edges = [np.nextafter(short._cum[-1], 1.0),
                 np.nextafter(full._cum[-1], 1.0), np.nextafter(proper, 0.0),
                 proper, 1.0 - 2.0 ** -53]
        u = np.insert(rng.random(400), [0, 200, 400], edges[:3])
        u = np.append(u, edges[3:])
        coded = [_place_outcome(s, u, _CUTOFF_CODE) for s in (short, full)]
        bare = [_place_outcome(s, u) for s in (short, full)]
        assert coded[0] == coded[1] and bare[0] == bare[1], n
        reached.add(short.pmf.cutoff)
    assert max(reached) > 64


def _array_states(samplers, horizon, rng, population_cap, log=None):
    """The generation loop of one replicate: every generation is drawn
    through sampler.place in batches of BATCH, stopping at the first batch
    with a DELTA or whose running total passes the cap; a draw beyond the
    budget raises.  log, when given, gets (n, batch, outcome) at each
    stop."""
    states = [1]
    z = 1
    truncated = False
    for n in range(1, horizon + 1):
        if z == 0 or z == _DELTA_CODE or truncated:
            states.append(states[-1])
            continue
        sampler = samplers.get(n)
        total = 0
        remaining = z
        batch = 0
        while remaining > 0:
            k = min(remaining, simulator.BATCH)
            try:
                draws = sampler.place(rng.random(k))
            except CutoffExceeded:
                if log is not None:
                    log.append((n, batch, "cutoff"))
                raise
            if (draws == _DELTA_CODE).any():
                total = _DELTA_CODE
                if log is not None:
                    log.append((n, batch, "delta"))
                break
            total += int(draws.sum())
            remaining -= k
            if total > population_cap:
                truncated = True
                if log is not None:
                    log.append((n, batch, "truncated"))
                break
            batch += 1
        z = total
        states.append(DELTA if z == _DELTA_CODE else min(z, population_cap))
    return states, truncated


def _oracle_path(samplers, horizon, seed, cap=POPULATION_CAP):
    """The Trajectory of seed from _array_states, or the error it raises."""
    try:
        states, truncated = _array_states(samplers, horizon,
                                          replicate_rng(seed, 0), cap)
    except Exception as err:
        return type(err), str(err)
    tau = next((n for n, s in enumerate(states) if s in (0, DELTA)), None)
    tau0 = tau if tau is not None and states[tau] == 0 else None
    tau_delta = tau if tau is not None and tau0 is None else None
    return Trajectory(tuple(states), tau0, tau_delta, tau, seed, truncated)


def _lockstep_paths(model, horizon, seeds, cap=POPULATION_CAP, **kwargs):
    try:
        return simulate_trajectories(model, horizon, seeds, cap, **kwargs)
    except Exception as err:
        return type(err), str(err)


# Ex9ii stays small, Ex1 and Ex7i grow, a population cap of 5 truncates Ex1,
# Ex1 at n = 100 makes generations of more than BATCH draws over the chunk,
# and Ex9i and Ex3 absorb in DELTA and in 0
@pytest.mark.parametrize("sid,horizon,cap", [
    ("Ex9ii", 200, POPULATION_CAP), ("Ex1", 20, POPULATION_CAP),
    ("Ex7i", 30, POPULATION_CAP), ("Ex1", 20, 5), ("Ex1", 100, POPULATION_CAP),
    ("Ex9i", 30, POPULATION_CAP), ("Ex3", 50, POPULATION_CAP)])
def test_generation_loop_matches_array_loop(sid, horizon, cap):
    model = scenario_model(sid)
    array = _SamplerTable(model, 2 ** 20, horizon)
    seeds = range(300 if horizon == 100 else 200)
    want = [_oracle_path(array, horizon, seed, cap) for seed in seeds]
    got = simulate_trajectories(model, horizon, seeds, cap)
    assert got == want
    outcomes = {"truncated" if tr.truncated else "zero" if tr.tau0 else
                "delta" if tr.tau_delta else "large"
                if max(tr.states) > 8 else "small" for tr in got}
    assert ("truncated" if cap < POPULATION_CAP else
            "delta" if sid == "Ex9i" else "zero" if sid == "Ex3" else
            "small" if sid == "Ex9ii" else "large") in outcomes
    if horizon == 100:
        assert sum(tr.states[-2] for tr in got) > simulator.BATCH


def test_lockstep_gathers_at_most_a_slab(monkeypatch):
    # small BATCH and SLAB: generations span many batches and many steps,
    # and no step places more than SLAB uniforms
    monkeypatch.setattr(simulator, "BATCH", 16)
    monkeypatch.setattr(simulator, "SLAB", 64)
    sizes = []
    place = _PmfSampler.place

    def recording_place(self, u, cutoff_code=None):
        sizes.append(u.size)
        return place(self, u, cutoff_code)
    model, horizon = scenario_model("Ex1"), 30
    array = _SamplerTable(model, 2 ** 20, horizon)
    want = [_oracle_path(array, horizon, seed, 60) for seed in range(60)]
    monkeypatch.setattr(_PmfSampler, "place", recording_place)
    got = simulate_trajectories(model, horizon, range(60), 60)
    assert got == want
    assert max(sizes) == 64
    assert any(tr.truncated for tr in got)


@pytest.mark.parametrize("prefetch,first", [(1, 1), (2 ** 20, 4096)])
def test_refill_budgets_do_not_move_draws(monkeypatch, prefetch, first):
    # a stream can be read at any position, so tiny budgets, which refill
    # at nearly every take, and large ones, which fetch far ahead, leave
    # every path and every ensemble the oracle's; BATCH = 16 and SLAB = 64
    # send Ex1 at a cap of 60 through _large_generation
    cases = [("Ex1", 20, POPULATION_CAP, {}),
             ("Ex9ii", 200, POPULATION_CAP, {}),
             ("Ex7i", 30, POPULATION_CAP, {}),
             ("Ex1", 30, 60, {"BATCH": 16, "SLAB": 64})]
    for sid, horizon, cap, sizes in cases:
        model = scenario_model(sid)
        with monkeypatch.context() as patch:
            for name, value in sizes.items():
                patch.setattr(simulator, name, value)
            array = _SamplerTable(model, 2 ** 20, horizon)
            want = [_oracle_path(array, horizon, seed, cap)
                    for seed in range(100)]
            patch.setattr(simulator, "PREFETCH", prefetch)
            patch.setattr(simulator, "FIRST_SEGMENT", first)
            got = simulate_trajectories(model, horizon, range(100), cap)
        assert got == want, sid
    monkeypatch.setattr(simulator, "CHUNK", 256)
    model = scenario_model("Ex1")
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_run_chunk", _loop_chunk)
        want = run_ensemble(model, 20, 600, 9)
    monkeypatch.setattr(simulator, "PREFETCH", prefetch)
    monkeypatch.setattr(simulator, "FIRST_SEGMENT", first)
    assert run_ensemble(model, 20, 600, 9) == want


def _ex_c_model():
    """Case (c) steps, theta = -1/2 and r = 1, with heavy tails: generation
    1 has no zero (a + c = 1) and gives 3 or more with probability 0.09,
    generation 2 has a defect of c^2 = 0.25; a budget of 8 leaves 6-10% of
    the mass of each beyond it."""
    return validate_model(-0.5, 1.0, EnvSequence.from_table([0.5, 0.3]),
                          EnvSequence.from_table([0.5, 0.5]),
                          check_horizon=2)


def test_batch_with_delta_shadows_a_later_cutoff(monkeypatch):
    # BATCH = 2: a generation of z >= 3 spans two batches or more.  A DELTA
    # in batch 1 absorbs the replicate before batch 2 is drawn, so a draw
    # beyond the budget in batch 2 counts no CutoffExceeded
    monkeypatch.setattr(simulator, "BATCH", 2)
    monkeypatch.setattr(simulator, "CHUNK", 1024)
    model, budget, seed, reps = _ex_c_model(), 8, 13, 3000
    table = _SamplerTable(model, budget, 2)
    first, second = table.get(1), table.get(2)
    shadowed = 0
    for i in range(reps):
        rng = replicate_rng(seed, i)
        z = int(first.place(rng.random(1), _CUTOFF_CODE)[0])
        if z >= 3:
            draws = second.place(rng.random(z), _CUTOFF_CODE)
            one, two = draws[:2].tolist(), draws[2:4].tolist()
            shadowed += (_DELTA_CODE in one and _CUTOFF_CODE not in one
                         and _CUTOFF_CODE in two)
    assert shadowed > 0

    def run(workers):
        return run_ensemble(model, 2, reps, seed, workers=workers,
                            max_cutoff=budget)
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_run_chunk", _loop_chunk)
        want = run(1)
    assert want.error_counts["CutoffExceeded"] > 0
    assert want.delta_freq[0] > 0.0
    for workers in (1, 3):
        assert run(workers) == want, workers


def test_truncation_crosses_a_batch_boundary(monkeypatch):
    # BATCH = 4: the running total passes the cap in a later batch of the
    # generation than the first, and the replicate stops there
    monkeypatch.setattr(simulator, "BATCH", 4)
    monkeypatch.setattr(simulator, "CHUNK", 128)
    model, horizon, cap, seed, reps = scenario_model("Ex1"), 12, 30, 5, 400
    array = _SamplerTable(model, 2 ** 20, horizon)
    log = []
    for i in range(reps):
        _array_states(array, horizon, replicate_rng(seed, i), cap, log)
    assert any(outcome == "truncated" and batch >= 1
               for _, batch, outcome in log)

    def run(workers):
        return run_ensemble(model, horizon, reps, seed, workers=workers,
                            population_cap=cap)
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_run_chunk", _loop_chunk)
        want = run(1)
    assert want.truncated_count > 0
    for workers in (1, 3):
        assert run(workers) == want, workers


def test_cutoff_retires_one_replicate_alone():
    # every replicate's final state is its own oracle path's, next to
    # neighbours whose draws go beyond the budget
    model, horizon, budget, seed = scenario_model("Ex10ii"), 20, 2 ** 10, 3
    table = _SamplerTable(model, budget, horizon)
    array = _SamplerTable(model, budget, horizon)
    reps = 600
    z, truncated, when, _, error = simulator._lockstep(
        table, horizon, simulator._keys([seed] * reps),
        np.arange(reps, dtype=np.uint64), POPULATION_CAP)
    assert error is None
    want = []
    for i in range(reps):
        try:
            states, _ = _array_states(array, horizon, replicate_rng(seed, i),
                                      POPULATION_CAP)
        except CutoffExceeded:
            want.append(_CUTOFF_CODE)
            continue
        want.append(_DELTA_CODE if states[-1] == DELTA else states[-1])
    assert z.tolist() == want
    cut = [i for i, v in enumerate(want) if v == _CUTOFF_CODE]
    assert cut and len(cut) < reps // 2
    assert not truncated.any()


def test_trajectories_raise_the_first_failing_seed():
    # a budget of 4 on critical geometric steps with a_12 < 0: paths fail
    # beyond the budget or at the rejected generation 12, and a call over
    # many seeds raises what the first failing seed raises alone
    model = validate_model(1.0, 1.0,
                           EnvSequence.from_table([1.0] * 11 + [-1.0]),
                           EnvSequence.constant(0.5), check_horizon=5)
    seeds = list(range(120))
    alone = [_lockstep_paths(model, 20, [s], max_cutoff=4) for s in seeds]
    errors = [a for a in alone if not isinstance(a, list)]
    assert {e[0].__name__ for e in errors} == {"CutoffExceeded",
                                              "RejectedParameter"}
    for order in (seeds, seeds[::-1]):
        first = next(alone[s] for s in order
                     if not isinstance(alone[s], list))
        assert _lockstep_paths(model, 20, order, max_cutoff=4) == first
    fine = [s for s in seeds if isinstance(alone[s], list)]
    assert _lockstep_paths(model, 20, fine, max_cutoff=4) == [
        alone[s][0] for s in fine]


@pytest.mark.parametrize("cap", [0, -3, math.nan])
def test_population_cap_below_one_is_rejected(cap):
    model = scenario_model("Ex1")
    with pytest.raises(DomainError, match="population_cap must be >= 1"):
        run_ensemble(model, 10, 200, 5, population_cap=cap)
    with pytest.raises(DomainError, match="population_cap must be >= 1"):
        simulate_trajectories(model, 10, [1, 2], population_cap=cap)


@pytest.mark.parametrize("mode", ["generational", "direct"])
@pytest.mark.parametrize("horizon", [0, -3])
def test_ensemble_horizon_below_one_is_rejected(mode, horizon):
    with pytest.raises(DomainError, match="^horizon must be >= 1$"):
        run_ensemble(scenario_model("Ex1"), horizon, 200, 5, mode=mode)


@pytest.mark.parametrize("name,call", [
    ("horizon", lambda m, x: run_ensemble(m, x, 200, 5)),
    ("replicates", lambda m, x: run_ensemble(m, 10, x, 5)),
    ("workers", lambda m, x: run_ensemble(m, 10, 200, 5, workers=x)),
    ("max_cutoff", lambda m, x: run_ensemble(m, 10, 200, 5, max_cutoff=x)),
    ("max_cutoff", lambda m, x: run_ensemble(m, 10, 200, 5, mode="direct",
                                             max_cutoff=x)),
    ("population_cap",
     lambda m, x: run_ensemble(m, 10, 200, 5, population_cap=x)),
    ("horizon", lambda m, x: simulate_trajectory(m, x, 1)),
    ("population_cap",
     lambda m, x: simulate_trajectory(m, 10, 1, population_cap=x)),
    ("max_cutoff", lambda m, x: simulate_trajectory(m, 10, 1, max_cutoff=x)),
    ("max_cutoff", lambda m, x: sample_zn(m, 10, [1, 2], max_cutoff=x)),
    ("n", lambda m, x: sample_zn(m, x, [1, 2])),
], ids=["ensemble-horizon", "ensemble-replicates", "ensemble-workers",
        "ensemble-max_cutoff", "direct-max_cutoff", "ensemble-population_cap",
        "trajectory-horizon", "trajectory-population_cap",
        "trajectory-max_cutoff", "sample_zn-max_cutoff", "sample_zn-n"])
def test_non_integral_inputs_are_domain_errors(name, call):
    model = scenario_model("Ex1")
    with pytest.raises(DomainError, match=f"^{name} must be an integer, "
                                          "got 2.5$"):
        call(model, 2.5)
    # numpy integers are integers
    assert repr(call(model, np.int64(50))) == repr(call(model, 50))


@pytest.mark.parametrize("call", [
    lambda s: json.dumps(run_ensemble(scenario_model("Ex1"), 5, 10,
                                      s).to_dict()),
    lambda s: json.dumps(run_ensemble(scenario_model("Ex1"), 5, 10, s,
                                      mode="direct").to_dict()),
    lambda s: simulate_trajectory(scenario_model("Ex1"), 5, s),
    lambda s: sample_zn(scenario_model("Ex1"), 5, [s]),
    lambda s: replicate_rng(s, 0).random(4).tolist(),
    lambda s: replicate_rng(0, s).random(4).tolist(),
    lambda s: repr(VerifyConfig(seed=s)),
], ids=["ensemble", "direct", "trajectory", "sample_zn", "replicate_rng",
        "replicate_index", "verify_config"])
def test_numpy_integer_seeds_are_their_int(call):
    assert call(np.int64(2)) == call(2)
    with pytest.raises(DomainError, match="must be an integer, got 2.5$"):
        call(2.5)


def test_simulator_calls_are_exported():
    # the calls README names as the simulator's public ones
    from gwtheta import (run_ensemble, sample_zn, sample_zn_direct,
                         simulate_trajectories, simulate_trajectory)
    assert (run_ensemble, sample_zn, sample_zn_direct, simulate_trajectories,
            simulate_trajectory) == (
        simulator.run_ensemble, simulator.sample_zn,
        simulator.sample_zn_direct, simulator.simulate_trajectories,
        simulator.simulate_trajectory)


@pytest.mark.parametrize("sid", [sc.id for sc in registry()])
def test_block_built_step_samplers_match_per_law(sid):
    model = scenario_model(sid)
    table = _SamplerTable(model, DEFAULT_MAX_CUTOFF, 200)
    # blocks of STEP_BLOCK = 64 laws, the last one capped at the horizon
    blocks = []
    for n in range(1, 201):
        if n not in table.step:
            table.get(n)
            blocks.append((n, max(table.step)))
    assert blocks == [(1, 64), (65, 128), (129, 192), (193, 200)]
    assert STEP_BLOCK == 64
    cutoffs = set()
    for n in range(1, 201):
        got = table.get(n)
        want = simulator._sampler(model, n, DEFAULT_MAX_CUTOFF, False)
        assert type(got) is type(want), n
        if model.theta == 0.0 and model.r == 1.0:      # Ex6: the mixture
            assert (got.a, got.p_zero) == (want.a, want.p_zero), n
            continue
        got, want = got.pmf, want.pmf
        assert np.array_equal(got.weights, want.weights), n
        assert (got.cutoff, got.tail_mass, got.defect_mass) == (
            want.cutoff, want.tail_mass, want.defect_mass), n
        assert got.source == want.source, n
        cutoffs.add(got.cutoff)
    # every step table starts at the first cutoff, heavy tails included
    # (test_block_built_step_tables_place_as_the_full_build)
    assert cutoffs <= {64}


def _per_law(monkeypatch, call):
    """call() with every sampler built law by law, without blocks."""
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_kept", None)
        patch.setattr(_SamplerTable, "_build_block", lambda self, n0: None)
        return call()


def _trajectory_or_error(model, horizon, seed):
    try:
        return simulate_trajectory(model, horizon, seed)
    except Exception as err:
        return type(err), str(err)


@pytest.mark.parametrize("k", [12, STEP_BLOCK + 1, STEP_BLOCK + 12])
def test_block_build_keeps_validation_lazy(monkeypatch, k):
    # critical linear-fractional steps, checked eagerly up to 5 only; a_k < 0
    # fails validation inside the first block, 1 .. 64 (k = 12), at the
    # start of the second, 65 .. 128 capped at the horizon (k = 65), or
    # inside it (k = 76)
    model = validate_model(1.0, 1.0,
                           EnvSequence.from_table([1.0] * (k - 1) + [-1.0]),
                           EnvSequence.constant(0.5), check_horizon=5)
    horizon = k + 8
    got = [_trajectory_or_error(model, horizon, seed) for seed in range(200)]
    want = _per_law(monkeypatch, lambda: [
        _trajectory_or_error(model, horizon, seed) for seed in range(200)])
    assert got == want
    errors = [g for g in got if not isinstance(g, Trajectory)]
    assert errors and len(errors) < len(got)
    assert {g[0].__name__ for g in errors} == {"RejectedParameter"}
    assert all(f"a_{k}" in g[1] for g in errors)


def test_block_build_failure_is_raised_at_its_generation():
    # a bad budget fails the block build; the first generation's own build
    # then raises what it raises without blocks
    with pytest.raises(DomainError, match="max_cutoff must be >= 1"):
        simulate_trajectory(scenario_model("Ex7i"), 10, 1, max_cutoff=0)


def test_block_build_ensembles_match_per_law(monkeypatch):
    # heavy-tailed steps whose partials stop at 2^10; the budget of 2^12
    # keeps the tail extensions of each pool task cheap
    monkeypatch.setattr(simulator, "CHUNK", 512)
    model = scenario_model("Ex10ii")
    want = _per_law(monkeypatch, lambda: run_ensemble(
        model, 30, 1500, 5, workers=1, max_cutoff=2 ** 12))
    assert want.error_counts["CutoffExceeded"] > 0
    for workers in (1, 3):
        got = run_ensemble(model, 30, 1500, 5, workers=workers,
                           max_cutoff=2 ** 12)
        assert got == want, workers


# ---------------------------------------------------------------------------
# Whole-chunk draws against the per-replicate loop they replace: the Philox
# kernel must give each stream's first double, and a chunk drawn and tallied
# as arrays must give the EnsembleStats of the loop over its replicates.
# ---------------------------------------------------------------------------

EDGE_SEEDS = (0, -1, 2 ** 64 - 1, -2 ** 70 + 5, 20240901, 2 ** 63 + 12345)
EDGE_INDICES = (0, 1, 977, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
                2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1)


def test_philox_blocks_are_the_stream_at_any_block():
    # every lane of block b is uniform 4b + lane of the replicate_rng stream
    keys = [(s, i) for s in EDGE_SEEDS[:3] for i in EDGE_INDICES[:4]]
    blocks = [0, 1, 5, 2 ** 20 + 3] * (len(keys) // 4)
    got = simulator._philox_blocks(simulator._keys([k for k, _ in keys]),
                                   simulator._keys([i for _, i in keys]),
                                   np.array(blocks, dtype=np.uint64))
    assert got.shape == (len(keys), 4)
    for (seed, i), b, row in zip(keys, blocks, got):
        rng = next(_replicate_streams([(seed, i)], [b]))
        assert row.tolist() == rng.random(4).tolist(), (seed, i, b)
    for (seed, i), b, row in list(zip(keys, blocks, got))[:3]:
        fresh = replicate_rng(seed, i).random(4 * b + 4)
        assert row.tolist() == fresh[4 * b:].tolist(), (seed, i, b)


def test_philox_kernel_is_the_first_double_of_each_stream():
    for seed in EDGE_SEEDS:
        u = simulator._philox_uniforms(
            simulator._keys([seed] * len(EDGE_INDICES)),
            simulator._keys(EDGE_INDICES))
        assert u.dtype == np.float64
        for j, i in enumerate(EDGE_INDICES):
            assert u[j] == replicate_rng(seed, i).random(), (seed, i)
    # the sample_zn layout: one key word per seed, the index word 0
    k0 = simulator._keys(EDGE_SEEDS)
    u = simulator._philox_uniforms(k0, np.zeros_like(k0))
    assert u.tolist() == [replicate_rng(s, 0).random() for s in EDGE_SEEDS]


def _loop_chunk(job, start, count, samplers=None):
    """_run_chunk as a loop over the replicates: each draws from its own
    replicate_rng stream (one draw in direct mode, _array_states in
    generational mode) and gives its outcome code, one at a time."""
    if samplers is None:
        samplers = _SamplerTable(job.model, job.max_cutoff, job.horizon)
    codes, truncated = [], 0
    direct = (samplers.get(job.horizon, population=True)
              if job.mode == "direct" else None)
    for i in range(start, start + count):
        rng = replicate_rng(job.base_seed, i)
        try:
            if direct is not None:
                z = int(direct.place(rng.random(1))[0])
            else:
                states, cut = _array_states(
                    samplers, job.horizon, rng, job.population_cap)
                truncated += cut
                z = _DELTA_CODE if states[-1] == DELTA else int(states[-1])
        except CutoffExceeded:
            z = _CUTOFF_CODE
        codes.append(z)
    return np.array(codes, dtype=np.int64), truncated


def _loop_reduce(chunks, s_grid, scaling, A):
    """The statistics of the chunks' outcomes by a Python loop over the
    replicates, one chunk at a time, the chunk sums added in chunk order:
    (counts, pgf, scaled samples)."""
    counts = dict.fromkeys(("zero", "delta", "survival", "cutoff",
                            "truncated"), 0)
    pgf_sum, pgf_sq = [0.0] * len(s_grid), [0.0] * len(s_grid)
    scaled = []
    for codes, truncated in chunks:
        counts["truncated"] += truncated
        part_sum, part_sq = [0.0] * len(s_grid), [0.0] * len(s_grid)
        for z in codes.tolist():
            if z == _CUTOFF_CODE:
                counts["cutoff"] += 1
                continue
            counts["delta" if z == _DELTA_CODE
                   else "zero" if z == 0 else "survival"] += 1
            for k, s in enumerate(s_grid):
                x = 0.0 if z == _DELTA_CODE else s ** z
                part_sum[k] += x
                part_sq[k] += x * x
            if scaling is not None and z != _DELTA_CODE:
                val = scaling.scaled_sample(z, A)
                if val is not None:
                    scaled.append(val)
        pgf_sum = [a + b for a, b in zip(pgf_sum, part_sum)]
        pgf_sq = [a + b for a, b in zip(pgf_sq, part_sq)]
    n_ok = counts["zero"] + counts["delta"] + counts["survival"]
    pgf = []
    for s, total, sq in zip(s_grid, pgf_sum, pgf_sq):
        mean = total / n_ok
        var = max(0.0, sq / n_ok - mean * mean)
        pgf.append((s, mean, math.sqrt(var / n_ok)))
    return counts, tuple(pgf), np.array(scaled)


@pytest.mark.parametrize("sid,s_grid", [
    ("Ex1", simulator.DEFAULT_S_GRID), ("Ex6ii", (0.0, 0.3, 0.999, 1.0)),
    ("Ex1", ())])
def test_reduction_matches_the_replicate_loop(monkeypatch, sid, s_grid):
    # synthetic outcome codes: counts from 0 to past 2^40, DELTA, draws
    # beyond the budget and a chunk of nothing else, in chunks of 50
    from gwtheta.analytics import limit_constants, limit_law
    monkeypatch.setattr(simulator, "CHUNK", 50)
    model = scenario_model(sid)
    law = limit_law(model, limit_constants(model, 10 ** 4))
    rng = np.random.default_rng(5)
    reps = 50 * 6 + 17
    codes = np.where(rng.random(reps) < 0.5, rng.integers(0, 6, reps),
                     rng.integers(6, 2 ** 41, reps))
    codes[rng.random(reps) < 0.2] = _DELTA_CODE
    codes[rng.random(reps) < 0.1] = _CUTOFF_CODE
    codes[100:150] = _CUTOFF_CODE
    chunks = [(codes[start:start + 50], start % 7)
              for start in range(0, reps, 50)]

    def fake_chunk(job, start, count, samplers=None):
        return chunks[start // 50]
    monkeypatch.setattr(simulator, "_run_chunk", fake_chunk)
    got = run_ensemble(model, 20, reps, 3, scaling=law, s_grid=s_grid)
    counts, pgf, scaled = _loop_reduce(
        chunks, s_grid, law, composite_constants(model, 20).A)
    n_ok = reps - counts["cutoff"]
    assert n_ok == counts["zero"] + counts["delta"] + counts["survival"]
    for name in ("zero", "delta", "survival"):
        p = counts[name] / n_ok
        assert getattr(got, f"{name}_freq") == (
            p, math.sqrt(p * (1.0 - p) / n_ok)), name
    assert got.empirical_pgf == pgf
    assert got.scaled_samples.dtype == scaled.dtype == np.float64
    assert got.scaled_samples.tobytes() == scaled.tobytes()
    assert got.error_counts == {"CutoffExceeded": counts["cutoff"]}
    assert got.truncated_count == counts["truncated"] > 0
    assert counts["zero"] and counts["delta"] and counts["survival"]


# a proper law with scaling, a defective law that emits DELTA, a capped heavy
# tail with CutoffExceeded counts, the theta = 0, r = 1 mixture sampler, and
# a generational ensemble through the same tally
@pytest.mark.parametrize("sid,n,mode,kwargs", [
    ("Ex1", 50, "direct", {"scaling": True}),
    ("Ex9ii", 50, "direct", {}),
    ("Ex10ii", 50, "direct", {"max_cutoff": 2 ** 13}),
    ("Ex6i", 4, "direct", {}),
    ("Ex7i", 30, "generational", {"scaling": True})])
def test_chunk_path_matches_the_replicate_loop(monkeypatch, sid, n, mode,
                                               kwargs):
    from gwtheta.analytics import limit_constants, limit_law
    model = scenario_model(sid)
    if kwargs.pop("scaling", False):
        kwargs["scaling"] = limit_law(model, limit_constants(model, 10 ** 4))
    reps = 2 * simulator.CHUNK + 700

    def run(workers):
        return run_ensemble(model, n, reps, 11, workers=workers, mode=mode,
                            **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_run_chunk", _loop_chunk)
        want = run(1)
    if sid == "Ex9ii":
        assert want.delta_freq[0] > 0.0
    if sid == "Ex10ii":
        assert want.error_counts["CutoffExceeded"] > 0
    job = simulator._Job(model, n, mode, 11, POPULATION_CAP,
                         kwargs.get("max_cutoff", DEFAULT_MAX_CUTOFF))
    for start in range(0, reps, simulator.CHUNK):
        count = min(simulator.CHUNK, reps - start)
        z, truncated = simulator._run_chunk(job, start, count)
        want_z, want_truncated = _loop_chunk(job, start, count)
        assert z.dtype == np.int64 and np.array_equal(z, want_z), start
        assert truncated == want_truncated, start
    for workers in (1, 3):
        got = run(workers)
        assert got.to_dict() == want.to_dict(), workers
        assert got.empirical_pgf == want.empirical_pgf, workers
        if "scaling" in kwargs:
            assert np.array_equal(got.scaled_samples, want.scaled_samples)
            assert got.scaled_samples.dtype == want.scaled_samples.dtype
        else:
            assert got.scaled_samples is None


def test_large_generations_match_the_replicate_loop(monkeypatch):
    # Ex1 at n = 100 in chunks of 128: a chunk's generations grow past
    # BATCH draws, and the lockstep ensemble is the loop's at any workers
    from gwtheta.analytics import limit_constants, limit_law
    monkeypatch.setattr(simulator, "CHUNK", 128)
    model = scenario_model("Ex1")
    law = limit_law(model, limit_constants(model, 10 ** 4))

    def run(workers):
        return run_ensemble(model, 100, 400, 17, workers=workers,
                            scaling=law)
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_run_chunk", _loop_chunk)
        want = run(1)
    sizes = []
    place = _PmfSampler.place

    def recording_place(self, u, cutoff_code=None):
        sizes.append(u.size)
        return place(self, u, cutoff_code)
    with monkeypatch.context() as patch:
        patch.setattr(_PmfSampler, "place", recording_place)
        got = run(1)
    assert max(sizes) > simulator.BATCH
    for workers in (1, 3):
        if workers > 1:
            got = run(workers)
        assert got.to_dict() == want.to_dict(), workers
        assert np.array_equal(got.scaled_samples, want.scaled_samples)


def test_sample_zn_matches_the_per_seed_draws():
    # sample_zn places one kernel call's uniforms; each draw is the one
    # draw makes from the seed's own stream, including DELTA
    model = scenario_model("Ex9ii")
    seeds = list(EDGE_SEEDS) + list(range(-40, 200))
    sampler = simulator._sampler(model, 30, DEFAULT_MAX_CUTOFF, True)
    want = [int(sampler.place(replicate_rng(s, 0).random(1))[0])
            for s in seeds]
    want = [DELTA if v == _DELTA_CODE else v for v in want]
    assert sample_zn(model, 30, seeds) == want
    assert DELTA in want and 0 in want
    assert sample_zn(model, 30, []) == []


# ---------------------------------------------------------------------------
# The kept sampler table: consecutive in-process calls on an equal model and
# budget share the last call's table, and no draw depends on what it holds.
# ---------------------------------------------------------------------------

def _kept_samplers():
    table = simulator._kept[1]
    return list(table.step.values()) + list(table.population.values())


def test_kept_table_builds_the_step_block_once(monkeypatch):
    monkeypatch.setattr(simulator, "_kept", None)
    calls = []

    def counting(laws, max_cutoff):
        calls.append(len(laws))
        return series._first_pmfs(laws, max_cutoff)
    monkeypatch.setattr(simulator, "_first_pmfs", counting)
    model = scenario_model("Ex2")
    paths = [simulate_trajectory(model, 40, s) for s in range(1001, 1009)]
    assert calls == [40]
    monkeypatch.setattr(simulator, "_kept", None)
    assert [simulate_trajectory(model, 40, s)
            for s in range(1001, 1009)] == paths


def test_kept_table_is_replaced_by_another_model_or_budget(monkeypatch):
    monkeypatch.setattr(simulator, "_kept", None)
    ex2, ex7 = scenario_model("Ex2"), scenario_model("Ex7i")
    simulate_trajectory(ex2, 40, 1)
    first = simulator._kept[1]
    simulate_trajectory(scenario_model("Ex2"), 30, 2)   # equal, not same
    assert simulator._kept[1] is first
    for model, budget in ((ex7, DEFAULT_MAX_CUTOFF), (ex7, 2 ** 12),
                          (ex2, 2 ** 12)):
        simulate_trajectory(model, 40, 3, max_cutoff=budget)
        assert simulator._kept[0] == (model, budget)
        assert simulator._kept[1] is not first
        first = simulator._kept[1]


def test_kept_table_interleaved_calls_equal_fresh_ones(monkeypatch):
    # horizons 40, 100, 20 make the kept table's blocks 1..40 and 41..100,
    # not a fresh table's 1..64 and 65..100; every draw is the same.  A
    # budget of 4 sends some draws of both models beyond it
    monkeypatch.setattr(simulator, "CHUNK", 512)
    ex2, ex9 = scenario_model("Ex2"), scenario_model("Ex9ii")
    calls = [
        lambda: simulate_trajectories(ex2, 40, range(30)),
        lambda: simulate_trajectories(ex2, 100, range(30)),
        lambda: simulate_trajectories(ex2, 20, range(30)),
        lambda: run_ensemble(ex2, 60, 1200, 4),
        lambda: run_ensemble(ex2, 60, 600, 6, max_cutoff=4),
        lambda: sample_zn(ex2, 60, range(200)),
        lambda: simulate_trajectories(ex2, 40, range(30), max_cutoff=2 ** 8),
        lambda: run_ensemble(ex9, 200, 600, 5),
        lambda: sample_zn(ex9, 30, range(200)),
        lambda: run_ensemble(ex9, 150, 600, 6, max_cutoff=4),
        lambda: run_ensemble(ex9, 200, 600, 5),
        lambda: simulate_trajectories(ex2, 100, range(30, 60)),
    ]
    got = [call() for call in calls]
    for call, want in zip(calls, got):
        monkeypatch.setattr(simulator, "_kept", None)
        assert call() == want


def test_kept_table_holds_no_sampler_past_its_first_cutoff(monkeypatch):
    monkeypatch.setattr(simulator, "_kept", None)
    cutoffs = []

    def recording_extend(pmf, cutoff):
        cutoffs.append(cutoff)
        return extend_pmf(pmf, cutoff)
    model = scenario_model("Ex10ii")
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "extend_pmf", recording_extend)
        first = run_ensemble(model, 10, 50, 5)
    assert cutoffs == [128]
    samplers = _kept_samplers()
    assert samplers
    assert all(len(s.pmf.weights) <= 64 + 1 and not s.grown
               for s in samplers)
    assert run_ensemble(model, 10, 50, 5) == first
    # direct draws extend F_n's sampler, which is dropped the same way
    got = sample_zn(model, 20, range(400))
    assert all(len(s.pmf.weights) <= 64 + 1 for s in _kept_samplers())
    monkeypatch.setattr(simulator, "_kept", None)
    assert sample_zn(model, 20, range(400)) == got


def test_kept_table_drops_a_block_that_fails_validation(monkeypatch):
    # a_12 < 0 fails the block 1..20; the kept table holds only the laws
    # built one by one before it, and a repeat raises the same error
    monkeypatch.setattr(simulator, "_kept", None)
    model = validate_model(1.0, 1.0,
                           EnvSequence.from_table([1.0] * 11 + [-1.0]),
                           EnvSequence.constant(0.5), check_horizon=5)
    got = [_trajectory_or_error(model, 20, seed) for seed in range(100)]
    assert set(simulator._kept[1].step) <= set(range(1, 12))
    errors = [g for g in got if not isinstance(g, Trajectory)]
    assert errors and len(errors) < len(got)
    assert [_trajectory_or_error(model, 20, seed)
            for seed in range(100)] == got
    assert got == _per_law(monkeypatch, lambda: [
        _trajectory_or_error(model, 20, seed) for seed in range(100)])


def test_kept_table_warm_ensembles_match_across_workers(monkeypatch):
    monkeypatch.setattr(simulator, "CHUNK", 512)
    model = scenario_model("Ex10ii")
    run_ensemble(model, 30, 600, 4, max_cutoff=2 ** 12)     # warm the table
    assert simulator._kept[0] == (model, 2 ** 12)
    one = run_ensemble(model, 30, 1500, 5, max_cutoff=2 ** 12)
    three = run_ensemble(model, 30, 1500, 5, workers=3, max_cutoff=2 ** 12)
    assert one == three


def test_kept_table_is_not_shared_by_concurrent_calls():
    # a call takes the kept table out while it runs, so a call in another
    # thread builds its own; the short switch interval interleaves calls
    # whose draws grow the heavy-tailed samplers
    model = scenario_model("Ex10ii")
    want = simulate_trajectories(model, 10, range(200))
    results = [None] * 4

    def work(i):
        results[i] = [simulate_trajectories(model, 10, range(200))
                      for _ in range(3)]
    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[want] * 3] * 4
