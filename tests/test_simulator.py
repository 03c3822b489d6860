import cProfile
import math
import pstats

import numpy as np
import pytest
from scipy import stats as sps

from gwtheta import simulator
from gwtheta.analytics import composed_pgf, composite_constants
from gwtheta.environment import ThetaLaw
from gwtheta.errors import CutoffExceeded, DomainError
from gwtheta.harness import scenario_model
from gwtheta.series import (RECURRENCE_MAX, Pmf, extend_pmf,
                            pmf_from_theta_pgf, population_pmf, step_pmf)
from gwtheta.simulator import (DELTA, _replicate_streams, replicate_rng,
                               run_ensemble, sample_heavy_tail_index,
                               sample_heavy_tail_log, sample_offspring,
                               sample_zn_direct, simulate_trajectory)


def test_replicate_rng_deterministic_and_distinct():
    a = replicate_rng(42, 0).random(4)
    b = replicate_rng(42, 0).random(4)
    c = replicate_rng(42, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [20240901, 2 ** 63 + 12345])
def test_replicate_streams_match_replicate_rng(seed):
    # the re-keyed chunk stream is the replicate_rng stream draw for draw;
    # the second seed needs the full 64-bit key, and the last indices wrap
    indices = list(range(3000)) + [2 ** 63, 2 ** 64 - 1, 2 ** 64 + 7]
    for i, rng in zip(indices, _replicate_streams(seed, indices)):
        fresh = replicate_rng(seed, i)
        assert np.array_equal(rng.random(9), fresh.random(9)), i
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
                out.append(int(sampler.draw(_FixedUniforms([v]), 1)[0]))
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
            draws.append(int(sampler.draw(rng, 1)[0]))
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
    zero = sum(1 for k in range(reps)
               if sample_zn_direct(model, n, seed=k) == 0)
    assert zero / reps == pytest.approx(composed_pgf(model, n, 0.0),
                                        abs=0.03)


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


def test_ensemble_frequencies_sum_to_one():
    model = scenario_model("Ex9i")
    stats = run_ensemble(model, 15, 2000, base_seed=21)
    total = (stats.zero_freq[0] + stats.delta_freq[0]
             + stats.survival_freq[0])
    assert total == pytest.approx(1.0, abs=1e-12)
    assert stats.delta_freq[0] > 0.0
