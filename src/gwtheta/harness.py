"""Scenario registry and statistical verification of the ten limit theorems.

Three kinds of checks are wired per theorem:
  * analytic-rate checks: exact F_n-based quantities divided by the claimed
    asymptotic expression must land in a ratio band (no sampling);
  * distributional checks: Kolmogorov-Smirnov distance of normalized samples
    against the limit cdf, or Laplace/pgf comparisons on a grid with
    CLT-based tolerances;
  * almost-sure-convergence proxies: trajectory stabilization frequency.
    A.s. convergence is not directly testable; the proxy is a necessary
    condition only and is labelled as such.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import analytics as an
from .analytics import (composite_constants, composite_law, constants_at,
                        convergence_conditions, limit_constants, limit_law)
from .classifier import classify
from .environment import EnvSequence, ThetaModel, validate_model
from .errors import (CutoffExceeded, DomainError, RejectedParameter,
                     ScenarioInfeasible)
from .series import extend_pmf, population_pmf
from .simulator import (DEFAULT_S_GRID, heavy_tail_log_sf, replicate_rng,
                        run_ensemble, sample_heavy_tail_log,
                        simulate_trajectories)


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    id: str
    theorem_id: str
    model: ThetaModel
    free_params: dict
    expected_regime: str
    expected_sub_label: Optional[str] = None
    notes: str = ""


class _Row(NamedTuple):
    """A registry scenario: its free parameters with their defaults, and
    `build`, which maps them to the (theta, r, a_n, c_n) of the model."""

    id: str
    theorem_id: str
    params: dict
    build: Callable
    regime: str
    sub_label: Optional[str]
    notes: str


_H, _V = EnvSequence.harmonic(), EnvSequence.convergent()


def _by_role(family):
    """a_n and c_n from the two roles of one sequence family, at r = 1."""
    return lambda theta: (theta, 1.0, family("a"), family("c"))


def _ex4b(theta, sigma):
    a_seq = EnvSequence.superharmonic_ex4("a")
    return (theta, 1.0, a_seq,
            EnvSequence.negative_proportional_c(sigma, a_seq))


def _ex6(a_seq):
    return lambda sigma: (0.0, 1.0, a_seq, EnvSequence.exp_tail_ex6(sigma))


def _proportional(a_seq):
    """c_n = sigma (1 - a_n); r = 1 unless the scenario frees it."""
    return lambda theta, sigma, r=1.0: (
        theta, r, a_seq, EnvSequence.proportional_c(sigma, a_seq))


def _ex9(a_seq):
    return lambda r, sigma: (0.0, r, a_seq, EnvSequence.constant(sigma))


_SCENARIOS = {row.id: row for row in (
    _Row("Ex1", "T1", {"theta": 1.0, "sigma": 1.0}, _proportional(_H),
         "supercritical", None, "sigma >= 1; theta free in (0, 1]"),
    _Row("Ex2", "T2", {"theta": 1.0, "sigma": 1.0}, _proportional(_V),
         "asymptotically_degenerate", None, "sigma >= 1"),
    _Row("Ex3", "T3", {"theta": 1.0},
         _by_role(EnvSequence.alternating_ex3), "critical", None,
         "alternating environment; lim A_n does not exist"),
    _Row("Ex4a", "T4", {"theta": 1.0},
         _by_role(EnvSequence.superharmonic_ex4), "strictly_subcritical",
         None, "C < inf variant"),
    _Row("Ex4b", "T4", {"theta": 1.0, "sigma": 1.0}, _ex4b,
         "strictly_subcritical", None, "C = inf variant"),
    _Row("Ex5", "T5", {"theta": 1.0}, _by_role(EnvSequence.dyadic_ex5),
         "loosely_subcritical", None,
         "dyadic environment; B_n oscillates"),
    _Row("Ex6i", "T6", {"sigma": 1.0}, _ex6(_H), "infinite_mean", "i",
         "A = 0, D = 0"),
    _Row("Ex6ii", "T6", {"sigma": 0.0}, _ex6(_H), "infinite_mean", "ii",
         "A = 0, D > 0"),
    _Row("Ex6iii", "T6", {"sigma": 1.0}, _ex6(_V), "infinite_mean", "iii",
         "A > 0, D = 0"),
    _Row("Ex6iv", "T6", {"sigma": 0.0}, _ex6(_V), "infinite_mean", "iv",
         "A > 0, D > 0"),
    _Row("Ex7i", "T7", {"theta": 1.0, "r": 2.0, "sigma": 0.75},
         _proportional(_H), "defective", "A=0",
         "sigma in [r^-theta, (r-1)^-theta]"),
    _Row("Ex7ii", "T7", {"theta": 1.0, "r": 2.0, "sigma": 0.75},
         _proportional(_V), "defective", "A>0", ""),
    _Row("Ex8i", "T8", {"theta": -0.5, "r": 2.0, "sigma": 1.2},
         _proportional(_H), "defective", "A=0",
         "sigma in [(r-1)^(1/alpha), r^(1/alpha)]"),
    _Row("Ex8ii", "T8", {"theta": -0.5, "r": 2.0, "sigma": 1.2},
         _proportional(_V), "defective", "A>0", ""),
    _Row("Ex9i", "T9", {"r": 2.0, "sigma": 0.5}, _ex9(_H), "defective",
         "A=0", "c_n constant, 0 <= sigma <= 1"),
    _Row("Ex9ii", "T9", {"r": 2.0, "sigma": 0.5}, _ex9(_V), "defective",
         "A>0", ""),
    _Row("Ex10i", "T10", {"theta": -0.5, "sigma": 0.5}, _proportional(_H),
         "defective", "A=0", "0 < sigma <= 1"),
    _Row("Ex10ii", "T10", {"theta": -0.5, "sigma": 0.5}, _proportional(_V),
         "defective", "A>0", ""),
)}


def _row(scenario_id: str) -> _Row:
    if scenario_id not in _SCENARIOS:
        raise KeyError(f"unknown scenario {scenario_id!r}")
    return _SCENARIOS[scenario_id]


def scenario_model(scenario_id: str, theta: float = None,
                   sigma: float = None, r: float = None) -> ThetaModel:
    """Model for a registry scenario.  An override must name one of the
    scenario's free parameters; any other raises RejectedParameter."""
    row = _row(scenario_id)
    given = {key: val for key, val in
             (("theta", theta), ("sigma", sigma), ("r", r)) if val is not None}
    for key in given:
        if key not in row.params:
            raise RejectedParameter(
                f"scenario {row.id} has no free parameter {key!r} (free: "
                f"{', '.join(row.params)})", constraint=key)
    return validate_model(*row.build(**{**row.params, **given}))


def _scenario(row: _Row) -> Scenario:
    return Scenario(row.id, row.theorem_id, scenario_model(row.id),
                    dict(row.params), row.regime, row.sub_label, row.notes)


def registry() -> list[Scenario]:
    """All registry scenarios with their default free parameters."""
    out = [_scenario(row) for row in _SCENARIOS.values()]
    covered = {s.theorem_id for s in out}
    missing = {f"T{i}" for i in range(1, 11)} - covered
    if missing:
        raise AssertionError(f"coverage gap: {sorted(missing)}")
    return out


def get_scenario(scenario_id: str) -> Scenario:
    return _scenario(_row(scenario_id))


# ---------------------------------------------------------------------------
# Verification plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyConfig:
    replicates: Optional[int] = None    # None = per-check defaults
    horizon: Optional[int] = None
    seed: int = 20240901
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "seed", an._index(self.seed, "seed"))
        for name, least in (("replicates", 1), ("horizon", an.MIN_HORIZON),
                            ("workers", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise DomainError(f"{name} must be >= {least}, got {value}")

    @property
    def tolerance_scale(self) -> float:
        """The factor on Monte Carlo tolerances: sqrt(1000 / replicates)
        below 1000 replicates (a low-power run), else 1."""
        if self.replicates is not None and self.replicates < 1000:
            return math.sqrt(1000.0 / self.replicates)
        return 1.0


@dataclass(frozen=True)
class Check:
    name: str
    statistic: float
    target: float
    tolerance: float
    passed: bool
    kind: str = "analytic"      # analytic | distributional | proxy
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "statistic": self.statistic,
                "target": self.target, "tolerance": self.tolerance,
                "pass": self.passed, "kind": self.kind,
                "detail": self.detail}


@dataclass(frozen=True)
class VerificationReport:
    scenario_id: str
    theorem_id: str
    checks: tuple
    replicates: int
    horizons: tuple
    seed: int
    low_power: bool = False

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"scenario_id": self.scenario_id,
                "theorem_id": self.theorem_id,
                "checks": [c.to_dict() for c in self.checks],
                "replicates": self.replicates,
                "horizons": list(self.horizons),
                "seed": self.seed, "low_power": self.low_power,
                "pass": self.passed}


def scenario_seed(base_seed: int, scenario_id: str) -> int:
    return (base_seed << 32) ^ zlib.crc32(scenario_id.encode())


def ks_statistic(samples: Sequence[float], cdf: Callable[[float], float]) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a continuous cdf."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    f = np.array([cdf(v) for v in x])
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def _approx(name, statistic, target, tol, kind="analytic", detail=""):
    return Check(name, float(statistic), float(target), float(tol),
                 abs(statistic - target) <= tol, kind, detail)


def _ratio(name, statistic, tol, detail=""):
    return _approx(name, statistic, 1.0, tol, detail=detail)


def _sup_check(name, f, law, tol, detail=""):
    """sup over the s grid of |f(s) - the limit law at s|, against 0."""
    sup = max(abs(f(s) - law.evaluate(s)) for s in DEFAULT_S_GRID)
    return _approx(name, sup, 0.0, tol, detail=detail)


def _conditional_mean_limit(theta: float, r: float) -> float:
    """Limit of E(Z_n | tau > n) in the defective A = 0 sub-cases, from the
    exact derivative F_n'(1) ~ A_n (r-1)^(-theta-1) C^(-1/theta-1) divided by
    the survival rate (the displayed constants in the source drop a theta
    factor; the derivative-based value is used and cross-checked numerically
    in the test suite)."""
    if theta == 0.0:
        return (r - 1.0) ** -1.0 / (math.log(r) - math.log(r - 1.0))
    return (theta * (r - 1.0) ** (-theta - 1.0)
            / ((r - 1.0) ** (-theta) - r ** (-theta)))


# ---------------------------------------------------------------------------
# Per-theorem check suites
# ---------------------------------------------------------------------------

_ANALYTIC_N = 10 ** 4
_RATE_TOL = 0.01


def _checks_t1(sc, cfg, limits, law, n_big, cc, F):
    model, theta = sc.model, sc.model.theta
    checks = [
        _ratio("restricted_mean_identity",
               F.restricted_mean() * cc.A ** (1.0 / theta), 1e-9,
               detail="E(Z_n) A_n^(1/theta) = 1 exactly"),
        _approx("extinction_prob_vs_limit", F.pgf(0.0),
                an.absorption_probabilities(model, limits).q, 2e-3),
    ]
    reps = cfg.replicates or 10 ** 5
    n_mc = 100
    stats = run_ensemble(model, n_mc, reps,
                         scenario_seed(cfg.seed, sc.id), cfg.workers,
                         mode="direct", scaling=law)
    w = stats.scaled_samples
    for lam in (0.5, 1.0, 2.0):
        emp = float(np.mean(np.exp(-lam * w)))
        checks.append(_approx(f"laplace_lambda_{lam}", emp,
                              law.evaluate(lam),
                              0.02 * cfg.tolerance_scale,
                              kind="distributional",
                              detail=f"n={n_mc}, reps={reps}"))
    return checks, reps, (n_big, n_mc)


def _checks_t2(sc, cfg, limits, law, n_big, cc, F):
    checks = [
        _ratio("mean_vs_limit",
               F.restricted_mean() / law.law.restricted_mean(), _RATE_TOL),
        _sup_check("pgf_grid_sup_diff", F.pgf, law, _RATE_TOL,
                   detail="F_n(s) vs limit pgf"),
    ]
    rep = convergence_conditions(sc.model, n_big)
    checks.append(Check("church_lindvall_holds", 1.0, 1.0, 0.0,
                        rep.church_lindvall == "holds", kind="analytic",
                        detail=f"verdict={rep.church_lindvall}"))
    reps = min(cfg.replicates or 2000, 20000)
    n_tr = 40
    seed = scenario_seed(cfg.seed, sc.id)
    paths = simulate_trajectories(sc.model, n_tr, range(seed, seed + reps))
    stable = sum(len(set(tr.states[n_tr // 2:])) == 1 for tr in paths)
    checks.append(Check("stabilization_proxy", stable / reps, 1.0, 0.2,
                        stable / reps >= 0.8, kind="proxy",
                        detail="necessary condition only; fraction of "
                               f"paths constant on [{n_tr//2},{n_tr}]"))
    return checks, reps, (n_big, n_tr)


def _t3_style_checks(model, cc, law, tol, tag=""):
    """Survival rate and conditional Laplace transform for the critical-type
    limit (used by T3 and the diverging subsequence of T5)."""
    theta = model.theta
    F = cc.law(theta, model.r)
    checks = [_ratio(f"survival_rate{tag}",
                     F.p_alive() * cc.C ** (1.0 / theta), tol,
                     detail="P(Z_n>0) ~ C_n^(-1/theta)")]
    for lam in (0.5, 1.0, 2.0):
        lam_n = lam * cc.B ** (-1.0 / theta)
        emp = F.conditional_pgf(math.exp(-lam_n))
        checks.append(_approx(f"laplace_cond_lambda_{lam}{tag}", emp,
                              law.evaluate(lam), tol,
                              detail="exact transform at scaled argument"))
    return checks


def _t4_style_checks(model, cc, law, tol, tag=""):
    theta = model.theta
    B = law.param("B")
    F = cc.law(theta, model.r)
    surv = F.p_alive()
    checks = [
        _ratio(f"survival_rate{tag}",
               surv * ((1.0 + B) * cc.A) ** (1.0 / theta), tol,
               detail="P(Z_n>0) ~ ((1+B) A_n)^(-1/theta)"),
        _ratio(f"conditional_mean{tag}",
               F.restricted_mean() / surv / (1.0 + B) ** (1.0 / theta), tol),
        _sup_check(f"conditional_pgf_sup_diff{tag}", F.conditional_pgf,
                   law, tol),
    ]
    return checks


def _checks_t3_t4(sc, cfg, limits, law, n_big, cc, F):
    style = _t3_style_checks if sc.theorem_id == "T3" else _t4_style_checks
    return (style(sc.model, cc, law, _RATE_TOL), 0, (n_big,))


def _checks_t5(sc, cfg, limits, law_unused):
    model = sc.model
    m = 12
    sub_up = [2 ** k for k in range(4, m + 1)]
    sub_down = [2 ** k - 1 for k in range(4, m + 1)]
    law_up = limit_law(model, limits, subsequence=sub_up)
    law_down = limit_law(model, limits, subsequence=sub_down)
    cs = constants_at(model, [sub_up[-1], sub_down[-1]])
    theta = model.theta
    checks = []
    # claimed constants: survival ~ (2 k_n)^(-1/theta) along 2^m and
    # ~ (3 k_n)^(-1/theta) along 2^m - 1
    k_up, k_down = sub_up[-1], sub_down[-1]
    surv_up = cs[k_up].law(theta, model.r).p_alive()
    surv_down = cs[k_down].law(theta, model.r).p_alive()
    checks.append(_ratio("survival_constant_up",
                         surv_up * (2.0 * k_up) ** (1.0 / theta), 0.02,
                         detail=f"k_n = 2^{m}"))
    checks.append(_ratio(
        "survival_constant_down",
        surv_down * (3.0 * k_down) ** (1.0 / theta),
        0.02,
        detail=f"k_n = 2^{m}-1; claimed constant, known not to hold: at "
               "k_n = 2^m-1 the composite sum C only covers dyadic "
               "indices up to 2^(m-1), so C ~ k_n + 1 (not 2 k_n), "
               "A + C ~ 2 k_n, B -> 1, and the measured survival constant "
               "is (2 k_n)^(-1/theta); the ratio here settles at "
               "(3/2)^(1/theta)"))
    checks.append(_ratio("survival_constant_down_measured",
                         surv_down * (2.0 * k_down) ** (1.0 / theta), 0.02,
                         detail=f"k_n = 2^{m}-1, true constant"))
    checks += _t3_style_checks(model, cs[k_up], law_up, 0.02, tag="_up")
    checks += _t4_style_checks(model, cs[k_down], law_down, 0.02,
                               tag="_down")
    checks.append(Check("laws_differ_across_subsequences", 1.0, 1.0, 0.0,
                        law_up.theorem_id != law_down.theorem_id,
                        detail=f"{law_up.theorem_id} vs "
                               f"{law_down.theorem_id}"))
    return checks, 0, (k_up, k_down)


def _checks_t6(sc, cfg, limits, law, n_big, cc, F):
    checks = [
        _approx("survival_equals_D_n", F.p_alive(),
                math.exp(cc.log_D), 1e-12,
                detail="P(Z_n>0) = D_n identity"),
    ]
    tid = law.theorem_id
    if tid == "T6i":
        reps = cfg.replicates or 10 ** 4
        rng = replicate_rng(scenario_seed(cfg.seed, sc.id), 0)
        u = rng.random(reps)
        x = np.array([cc.A * sample_heavy_tail_log(float(v), cc.A)
                      for v in u])
        ks = ks_statistic(x, lambda t: 1.0 - math.exp(-min(t, 700.0)))
        checks.append(Check("ks_exp1", ks, 0.0, 0.05, ks <= 0.05,
                            kind="distributional",
                            detail=f"A_n ln Z_n | survival, n={n_big}, "
                                   f"{reps} conditional samples (survival "
                                   "mass D_n is exact, so the conditional "
                                   "law is sampled directly)"))
        return checks, reps, (n_big,)
    if tid == "T6ii":
        D = law.param("D")
        for x in (0.25, 0.5, 1.0, 2.0):
            # P(A_n ln Z_n <= x) = 1 - D_n P(Y > e^{x/A_n}), Y the
            # conditional heavy-tail law with parameter A_n; its asymptotic
            # tail beyond e^60
            log_z = x / cc.A
            if log_z <= 60.0:
                log_sf = heavy_tail_log_sf(math.floor(math.exp(log_z)), cc.A)
            else:
                log_sf = -cc.A * log_z - math.lgamma(1.0 - cc.A)
            exact = 1.0 - math.exp(cc.log_D + log_sf)
            checks.append(_approx(f"cdf_x_{x}", exact, law.evaluate(x),
                                  _RATE_TOL))
        return checks, 0, (n_big,)
    if tid == "T6iii":
        checks.append(_sup_check("conditional_pgf_sup_diff",
                                 F.conditional_pgf, law, _RATE_TOL))
        return checks, 0, (n_big,)
    # T6iv
    checks.append(_sup_check("pgf_sup_diff", F.pgf, law, _RATE_TOL))
    rep = convergence_conditions(sc.model, max(n_big, 1000))
    checks.append(Check("conditions_a0_A1_hold", 1.0, 1.0, 0.0,
                        rep.condition_a0 == "holds"
                        and rep.condition_A1 == "holds",
                        detail=f"a0={rep.condition_a0}, "
                               f"A1={rep.condition_A1}"))
    return checks, 0, (n_big,)


def _defective_zero_a_checks(F, law, rate_target, mean_limit, tol):
    """Shared T7i/T8i/T9i/T10i structure on the n-step law F: survival rate,
    conditional mean, conditional pgf grid."""
    surv = F.p_alive()
    checks = [
        _ratio("absorption_rate", surv / rate_target, tol,
               detail="P(tau>n) / asymptotic expression"),
        _sup_check("conditional_pgf_sup_diff", F.conditional_pgf, law,
                   tol),
    ]
    if mean_limit is not None:
        checks.append(_ratio("conditional_mean",
                             F.restricted_mean() / surv / mean_limit, tol))
    return checks


def _restricted_law_checks(model, F, law, limits, tol):
    """Shared T7ii/T8ii/T9ii structure on the n-step law F: restricted pgf
    convergence, limit mean, and closed-form absorption probabilities."""
    checks = [
        _sup_check("restricted_pgf_sup_diff", F.pgf, law, tol,
                   detail="E(s^{Z_n}; tau_Delta > n) vs limit"),
    ]
    ab = an.absorption_probabilities(model, limits)
    checks.append(_approx("q_vs_Fn0", ab.q, F.pgf(0.0), tol))
    checks.append(_approx("q_delta_vs_defect", ab.q_delta, 1.0 - F.pgf(1.0),
                          tol))
    return checks


def _mc_absorption_checks(sc, cfg, n_mc, reps):
    """Generational Monte Carlo frequencies of Z_n = 0 and Z_n = Delta at
    n_mc against F_n(0) and 1 - F_n(1), within 4 standard errors."""
    F_mc = composite_law(sc.model, n_mc)
    stats = run_ensemble(sc.model, n_mc, reps,
                         scenario_seed(cfg.seed, sc.id), cfg.workers)
    return [_approx(f"mc_{name}_freq", est, target,
                    4.0 * max(se, 1e-9) * cfg.tolerance_scale,
                    kind="distributional",
                    detail=f"4 SE at n={n_mc}, reps={reps}")
            for name, (est, se), target in (
                ("zero", stats.zero_freq, F_mc.pgf(0.0)),
                ("delta", stats.delta_freq, 1.0 - F_mc.pgf(1.0)))]


def _checks_t7_t8(sc, cfg, limits, law, n_big, cc, F):
    theta, r = sc.model.theta, sc.model.r
    if law.theorem_id in ("T7i", "T8i"):
        C = law.param("C")
        rate = (cc.A * ((r - 1.0) ** (-theta) - r ** (-theta)) / theta
                * C ** (-1.0 / theta - 1.0))
        checks = _defective_zero_a_checks(
            F, law, rate, _conditional_mean_limit(theta, r), _RATE_TOL)
        reps = min(cfg.replicates or 20000, 10 ** 5)
        n_mc = 30
        checks += _mc_absorption_checks(sc, cfg, n_mc, reps)
        return checks, reps, (n_big, n_mc)
    # (ii) variants
    checks = _restricted_law_checks(sc.model, F, law, limits, _RATE_TOL)
    checks.append(_ratio("restricted_mean",
                         F.restricted_mean() / law.law.restricted_mean(),
                         _RATE_TOL))
    return checks, 0, (n_big,)


def _checks_t9(sc, cfg, limits, law, n_big, cc, F):
    model, r = sc.model, sc.model.r
    if law.theorem_id == "T9i":
        rate = ((math.log(r) - math.log(r - 1.0)) * cc.A
                * math.exp(cc.log_D))
        checks = _defective_zero_a_checks(
            F, law, rate, _conditional_mean_limit(0.0, r), _RATE_TOL)
        return checks, 0, (n_big,)
    # T9ii: closed forms q = r - r^A D, q_delta = 1 - r + (r-1)^A D with
    # D = (r - sigma)^(1 - A) for the constant environment
    checks = _restricted_law_checks(model, F, law, limits, _RATE_TOL)
    sigma = sc.free_params.get("sigma", 0.5)
    A_exact = 1.0 / 3.0
    D_exact = (r - sigma) ** (1.0 - A_exact)
    q_exact = r - r ** A_exact * D_exact
    qd_exact = 1.0 - r + (r - 1.0) ** A_exact * D_exact
    ab = an.absorption_probabilities(model, limits)
    checks.append(_approx("q_closed_form", ab.q, q_exact, 1e-3))
    checks.append(_approx("q_delta_closed_form", ab.q_delta, qd_exact,
                          1e-3))
    mean_exact = A_exact * (r - 1.0) ** (A_exact - 1.0) * D_exact
    checks.append(_ratio("restricted_mean", F.restricted_mean() / mean_exact,
                         _RATE_TOL))
    reps = cfg.replicates or 10 ** 5
    n_mc = 200
    checks += _mc_absorption_checks(sc, cfg, n_mc, reps)
    return checks, reps, (n_big, n_mc)


def _checks_t10(sc, cfg, limits, law, n_big, cc, F):
    model = sc.model
    alpha = -1.0 / model.theta
    if law.theorem_id == "T10i":
        C = law.param("C")
        rate = cc.A * alpha * C ** (alpha - 1.0)
        checks = _defective_zero_a_checks(F, law, rate, None, _RATE_TOL)
        ab = an.absorption_probabilities(model, limits)
        checks.append(_approx("q_delta_closed_form", ab.q_delta,
                              C ** alpha, 1e-3))
        return checks, 0, (n_big,)
    # T10ii: E(Z_n; tau_Delta > n) = inf -- divergence witnessed through
    # truncated means at growing cutoffs
    checks = _restricted_law_checks(model, F, law, limits, _RATE_TOL)
    n_small = 6
    try:
        pmf = population_pmf(model, n_small, tail_tol=1e-30,
                             max_cutoff=2 ** 8)
    except CutoffExceeded as err:
        pmf = err.partial
    means = [extend_pmf(pmf, budget).mean_truncated()
             for budget in (2 ** 8, 2 ** 11, 2 ** 14)]
    growing = means[0] < means[1] < means[2]
    checks.append(Check("truncated_mean_diverges", means[-1] / means[0],
                        math.inf, math.inf, growing,
                        detail=f"truncated means {means} at growing "
                               "cutoffs (divergence check; the restricted "
                               "mean is infinite)"))
    checks.append(Check("restricted_mean_is_inf", 1.0, 1.0, 0.0,
                        math.isinf(F.restricted_mean())))
    return checks, 0, (n_big, n_small)


_SUITES = {"T1": _checks_t1, "T2": _checks_t2, "T3": _checks_t3_t4,
           "T4": _checks_t3_t4, "T5": _checks_t5, "T6": _checks_t6,
           "T7": _checks_t7_t8, "T8": _checks_t7_t8, "T9": _checks_t9,
           "T10": _checks_t10}


def verify_theorem(scenario: Scenario,
                   config: VerifyConfig = VerifyConfig()) -> VerificationReport:
    """Run the checks wired to the scenario's theorem."""
    model = scenario.model
    limits = limit_constants(model, 10 ** 4)
    label = classify(model, limits)
    if label.regime != scenario.expected_regime:
        raise ScenarioInfeasible(
            f"scenario {scenario.id} classified as {label.regime}, "
            f"expected {scenario.expected_regime}")
    # every suite but T5's reads the n-step law F at one analytic horizon
    if scenario.theorem_id == "T5":
        law, n_step = None, ()
    else:
        law = limit_law(model, limits)
        n_big = config.horizon or (2000 if scenario.theorem_id == "T6"
                                   else _ANALYTIC_N)
        cc = composite_constants(model, n_big)
        n_step = (n_big, cc, cc.law(model.theta, model.r))
    checks, reps, horizons = _SUITES[scenario.theorem_id](
        scenario, config, limits, law, *n_step)
    checks = list(checks)
    checks.append(Check("regime_label", 1.0, 1.0, 0.0,
                        label.regime == scenario.expected_regime
                        and (scenario.expected_sub_label is None
                             or label.sub_label
                             == scenario.expected_sub_label),
                        detail=f"{label.regime} / {label.sub_label}"))
    return VerificationReport(scenario.id, scenario.theorem_id,
                              tuple(checks), reps, tuple(horizons),
                              config.seed,
                              low_power=config.tolerance_scale > 1.0)


def summary_table(reports: Sequence[VerificationReport]) -> list[dict]:
    rows = []
    for rep in reports:
        worst = None
        for c in rep.checks:
            if c.tolerance > 0 and math.isfinite(c.tolerance):
                margin = c.tolerance - abs(c.statistic - c.target)
                if worst is None or margin < worst:
                    worst = margin
        rows.append({"scenario": rep.scenario_id,
                     "theorem": rep.theorem_id,
                     "pass": rep.passed,
                     "worst_margin": worst})
    return rows
