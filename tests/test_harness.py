import dataclasses

import pytest

from gwtheta import harness
from gwtheta.environment import EnvSequence, validate_model
from gwtheta.errors import DomainError, RejectedParameter, ScenarioInfeasible
from gwtheta.harness import (Scenario, VerifyConfig, get_scenario,
                             ks_statistic, registry, scenario_model,
                             scenario_seed, summary_table, verify_theorem)


def test_registry_covers_all_theorems():
    scs = registry()
    assert {sc.theorem_id for sc in scs} == {f"T{i}" for i in range(1, 11)}
    assert len({sc.id for sc in scs}) == len(scs) == 18


def test_get_scenario():
    sc = get_scenario("Ex3")
    assert sc.theorem_id == "T3"
    with pytest.raises(KeyError):
        get_scenario("Ex99")


def test_scenario_model_overrides():
    base = scenario_model("Ex7i")
    assert base.theta == 1.0 and base.r == 2.0
    tweaked = scenario_model("Ex7i", theta=0.5, sigma=0.6, r=3.0)
    assert tweaked.theta == 0.5 and tweaked.r == 3.0
    assert tweaked.c_seq.value(1) == pytest.approx(
        (1 - tweaked.a_seq.value(1)) * 0.6)


def oracle_scenario_model(sid, theta=None, sigma=None, r=None):
    """The registry models written out one scenario at a time, as the
    registry once built them."""
    H, V = EnvSequence.harmonic(), EnvSequence.convergent()
    prop = EnvSequence.proportional_c

    def d(value, default):
        return default if value is None else value

    if sid in ("Ex1", "Ex2"):
        a_seq = H if sid == "Ex1" else V
        return validate_model(d(theta, 1.0), 1.0, a_seq,
                              prop(d(sigma, 1.0), a_seq))
    if sid == "Ex3":
        return validate_model(d(theta, 1.0), 1.0,
                              EnvSequence.alternating_ex3("a"),
                              EnvSequence.alternating_ex3("c"))
    if sid == "Ex4a":
        return validate_model(d(theta, 1.0), 1.0,
                              EnvSequence.superharmonic_ex4("a"),
                              EnvSequence.superharmonic_ex4("c"))
    if sid == "Ex4b":
        a_seq = EnvSequence.superharmonic_ex4("a")
        return validate_model(
            d(theta, 1.0), 1.0, a_seq,
            EnvSequence.negative_proportional_c(d(sigma, 1.0), a_seq))
    if sid == "Ex5":
        return validate_model(d(theta, 1.0), 1.0, EnvSequence.dyadic_ex5("a"),
                              EnvSequence.dyadic_ex5("c"))
    if sid.startswith("Ex6"):
        a_seq = H if sid in ("Ex6i", "Ex6ii") else V
        sig = d(sigma, 1.0 if sid in ("Ex6i", "Ex6iii") else 0.0)
        return validate_model(0.0, 1.0, a_seq, EnvSequence.exp_tail_ex6(sig))
    a_seq = H if sid.endswith("i") and not sid.endswith("ii") else V
    if sid.startswith("Ex7"):
        return validate_model(d(theta, 1.0), d(r, 2.0), a_seq,
                              prop(d(sigma, 0.75), a_seq))
    if sid.startswith("Ex8"):
        return validate_model(d(theta, -0.5), d(r, 2.0), a_seq,
                              prop(d(sigma, 1.2), a_seq))
    if sid.startswith("Ex9"):
        return validate_model(0.0, d(r, 2.0), a_seq,
                              EnvSequence.constant(d(sigma, 0.5)))
    return validate_model(d(theta, -0.5), 1.0, a_seq,
                          prop(d(sigma, 0.5), a_seq))


# the overrides the test suite uses, plus one of each free parameter
_OVERRIDES = [("Ex1", {"theta": 0.5}), ("Ex9ii", {"r": 3.0}),
              ("Ex9ii", {"r": 1.5}), ("Ex7i", {"sigma": 1.0}),
              ("Ex7i", {"theta": 0.5, "sigma": 0.6, "r": 3.0}),
              ("Ex2", {"sigma": 2.0}), ("Ex4b", {"theta": 0.5, "sigma": 2.0}),
              ("Ex6ii", {"sigma": 0.5}), ("Ex8ii", {"r": 1.5}),
              ("Ex10i", {"theta": -0.25, "sigma": 1.0})]


@pytest.mark.parametrize(
    "sid,overrides",
    [(sc.id, {}) for sc in registry()] + _OVERRIDES,
    ids=lambda x: x if isinstance(x, str) else ",".join(x) or "defaults")
def test_scenario_model_matches_oracle(sid, overrides):
    assert (scenario_model(sid, **overrides).to_dict()
            == oracle_scenario_model(sid, **overrides).to_dict())


@pytest.mark.parametrize("sid,name", [("Ex1", "r"), ("Ex3", "sigma"),
                                      ("Ex6i", "theta"), ("Ex9i", "theta"),
                                      ("Ex10ii", "r")])
def test_scenario_model_rejects_a_parameter_it_lacks(sid, name):
    with pytest.raises(RejectedParameter) as err:
        scenario_model(sid, **{name: 0.5})
    assert err.value.constraint == name


def test_get_scenario_builds_only_its_own_model(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return validate_model(*args, **kwargs)
    monkeypatch.setattr(harness, "validate_model", counting)
    assert get_scenario("Ex9i").model.r == 2.0
    assert len(built) == 1


@pytest.mark.parametrize("field", ["replicates", "horizon", "workers"])
def test_verify_config_rejects_counts_below_one(field):
    least = 10 if field == "horizon" else 1
    for value in (0, -1, least - 1):
        with pytest.raises(DomainError,
                           match=f"{field} must be >= {least}, got"):
            VerifyConfig(**{field: value})
    assert getattr(VerifyConfig(**{field: least}), field) == least


def test_scenario_seed_distinct_per_scenario():
    seeds = {scenario_seed(1, sc.id) for sc in registry()}
    assert len(seeds) == 18


def test_ks_statistic_against_uniform():
    # exact small-sample value: single point at 0.5 vs U(0,1)
    assert ks_statistic([0.5], lambda x: x) == pytest.approx(0.5)
    xs = [i / 100 for i in range(1, 100)]
    assert ks_statistic(xs, lambda x: x) < 0.02


def test_verify_analytic_scenario_passes():
    rep = verify_theorem(get_scenario("Ex4a"), VerifyConfig())
    assert rep.passed
    assert rep.theorem_id == "T4"
    names = {c.name for c in rep.checks}
    assert "survival_rate" in names and "conditional_mean" in names
    d = rep.to_dict()
    assert d["pass"] and len(d["checks"]) == len(rep.checks)


def test_verify_t10ii_divergence_witness():
    rep = verify_theorem(get_scenario("Ex10ii"), VerifyConfig())
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["truncated_mean_diverges"].passed
    assert by_name["restricted_mean_is_inf"].passed


def test_verify_t5_claimed_constant_is_red():
    # the claimed (3 k_n)^{-1/theta} rate along 2^m - 1 does not hold (the
    # measured constant is (2 k_n)^{-1/theta}); the harness reports this
    # honestly rather than hiding it
    rep = verify_theorem(get_scenario("Ex5"), VerifyConfig())
    by_name = {c.name: c for c in rep.checks}
    assert not by_name["survival_constant_down"].passed
    assert by_name["survival_constant_down"].statistic == pytest.approx(
        1.5, abs=0.01)
    assert by_name["survival_constant_down_measured"].passed
    assert by_name["survival_constant_up"].passed
    assert by_name["laws_differ_across_subsequences"].passed
    assert not rep.passed


def test_verify_monte_carlo_scenario_low_power():
    cfg = VerifyConfig(replicates=400, seed=3)
    rep = verify_theorem(get_scenario("Ex1"), cfg)
    assert rep.low_power
    assert rep.passed
    # distributional tolerances are widened when power is low
    lap = [c for c in rep.checks if c.name.startswith("laplace")][0]
    assert lap.tolerance > 0.02


def test_verify_deterministic():
    cfg = VerifyConfig(replicates=400, seed=3)
    a = verify_theorem(get_scenario("Ex1"), cfg)
    b = verify_theorem(get_scenario("Ex1"), cfg)
    assert a.to_dict() == b.to_dict()


def test_scenario_infeasible_on_regime_conflict():
    sc = get_scenario("Ex3")
    broken = dataclasses.replace(sc, expected_regime="supercritical")
    with pytest.raises(ScenarioInfeasible):
        verify_theorem(broken, VerifyConfig())


def test_summary_table():
    reps = [verify_theorem(get_scenario(sid), VerifyConfig())
            for sid in ("Ex3", "Ex4a")]
    rows = summary_table(reps)
    assert [r["scenario"] for r in rows] == ["Ex3", "Ex4a"]
    assert all(r["pass"] for r in rows)
    assert all(r["worst_margin"] > 0 for r in rows)


@pytest.mark.parametrize("replicates", [2000, 300])
@pytest.mark.parametrize("sc", registry(), ids=lambda sc: sc.id)
def test_every_suite_passes_but_the_claimed_ex5_constant(sc, replicates):
    # every theorem's suite runs at a full-power and at a low-power size;
    # the one red check is Ex5's claimed (3 k_n)^(-1/theta) constant
    rep = verify_theorem(sc, VerifyConfig(replicates=replicates, seed=7))
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed == (["survival_constant_down"] if sc.id == "Ex5" else [])
    assert rep.low_power == (replicates < 1000)
