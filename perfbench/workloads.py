"""The four benchmark workloads: each is one fixed round of operations.

An operation is one call into a public function of the library (or, where a
workload says so, a fixed batch of such calls) with inputs drawn from the
workload seed.  ``call`` is the timed part; ``check`` runs outside the timed
span and returns the list of failed checks, each compared against
``reference`` or against a property the library documents, never against a
stored copy of an earlier output.

Why these workloads: each hot path of the library does most of the work in
one workload and little in another.

* simulate_generational: the per-generation Python loop of the simulator and
  ``_PmfSampler.draw``; step pmfs are small and no constants pass runs.
* simulate_direct: one draw per replicate, so the per-replicate stream
  re-keying and the empirical-pgf loop dominate; series and analytics run
  once per chunk.
* analyze_scan: the O(n) Python constants pass of ``analytics`` with its
  per-index ``environment`` lookups and lazy validation; no simulation or
  series runs.
* pmf_heavy: the O(J^2) coefficient recurrence of ``series``, directly and
  through the tail extensions of a heavy-tailed ensemble.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gwtheta.analytics as analytics
import gwtheta.classifier as classifier
import gwtheta.environment as environment
import gwtheta.harness as harness
import gwtheta.series as series
import gwtheta.simulator as simulator

import reference as ref

WORKLOADS = ("simulate_generational", "simulate_direct", "analyze_scan",
             "pmf_heavy")

# Monte Carlo frequencies must lie within Z_MAX standard errors of the
# reference probability, plus half a count (continuity correction), so that a
# probability of exactly 0 or 1 admits no count on the wrong side.
Z_MAX = 5.0
# composed pgf against the library's closed form; observed gaps are below
# 5e-14 on every registry scenario up to n = 10^4
PGF_TOL = 1e-12
# closed-form pmf weights against the recurrence; the recurrence error floor
# is absolute (about 1e-16), not relative to the smallest weights
PMF_TOL = 1e-13
# absorption limits against F_N(0) and 1 - F_N(1) at the scan horizon; both
# sequences are monotone in N and the gap at N = 10^4 is at most 2.9e-3
# (Ex6iii, where D_N decays slowly)
ABSORPTION_TOL = 1e-2
SUM_TOL = 1e-12

SCAN_HORIZON = 10 ** 4
# independently seeded copies of each simulation operation in one round: the
# cost of an ensemble depends on its draws (population sizes, lifetimes), and
# a round that averages over several seeds costs nearly the same whatever the
# workload seed.  The 90th latency percentile of simulate_generational falls
# among the Ex9ii copies, so those are large enough (R = 480) that one copy's
# cost varies little with its seed.
GENERATIONAL_VARIANTS = 4
DIRECT_VARIANTS = 2
DYADIC_DOWN = tuple(2 ** m - 1 for m in range(10, 14))   # 1023 .. 8191
EX5_SUB_UP = [2 ** k for k in range(4, 13)]
EX5_SUB_DOWN = [2 ** k - 1 for k in range(4, 13)]
_THEOREM = re.compile(r"^(T\d+)(i|ii|iii|iv)?$")


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list]


# ---------------------------------------------------------------------------
# Output digests: equal digests mean bit-identical outputs
# ---------------------------------------------------------------------------

def _feed(h, x) -> None:
    if isinstance(x, np.ndarray):
        h.update(f"nd{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, np.generic):
        _feed(h, x.item())
    elif isinstance(x, float):
        h.update(b"f" + x.hex().encode())
    elif x is None or isinstance(x, (bool, int, str)):
        h.update(repr(x).encode())
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            _feed(h, f.name)
            _feed(h, getattr(x, f.name))
    elif isinstance(x, dict):
        h.update(b"{")
        for key in sorted(x, key=repr):
            _feed(h, key)
            _feed(h, x[key])
        h.update(b"}")
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for v in x:
            _feed(h, v)
        h.update(b"]")
    else:
        raise TypeError(f"cannot digest {type(x).__name__}")


def digest(result) -> str:
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def _within(errors, label, count, total, p) -> None:
    """count/total against probability p, within Z_MAX SE plus half a count."""
    se = math.sqrt(max(p * (1.0 - p), 0.0) / total)
    gap = abs(count / total - p)
    if gap > Z_MAX * se + 0.5 / total:
        errors.append(f"{label}: {count}/{total} vs reference {p:.6g} "
                      f"({gap:.3g} > {Z_MAX} SE {se:.3g} + 0.5/N)")


def _ensemble_checks(stats, model, n, replicates, tail_beyond=None):
    """Properties and reference frequencies of one EnsembleStats."""
    steps = ref.step_values(model, n)
    errors = []
    if stats.replicates != replicates or stats.horizon != n:
        errors.append("replicates or horizon differ from the request")
    zf, df = stats.zero_freq[0], stats.delta_freq[0]
    sf = stats.survival_freq[0]
    if abs(zf + df + sf - 1.0) > SUM_TOL:
        errors.append(f"frequencies sum to {zf + df + sf!r}")
    pgf = {s: est for s, est, _ in stats.empirical_pgf}
    if abs(pgf[0.0] - zf) > SUM_TOL:
        errors.append(f"empirical pgf at 0 is {pgf[0.0]!r}, zero_freq {zf!r}")
    if abs(pgf[1.0] - (1.0 - df)) > SUM_TOL:
        errors.append(f"empirical pgf at 1 is {pgf[1.0]!r}, "
                      f"1 - delta_freq {1.0 - df!r}")
    cut = stats.error_counts.get("CutoffExceeded", 0)
    if set(stats.error_counts) - {"CutoffExceeded"}:
        errors.append(f"unexpected errors {stats.error_counts}")
    if cut and tail_beyond is None:
        errors.append(f"{cut} CutoffExceeded with no tail expected")
    ok = replicates - cut
    f0 = ref.composed_pgf(model.theta, model.r, steps, n, 0.0)
    f1 = ref.composed_pgf(model.theta, model.r, steps, n, 1.0)
    # counts over all replicates: a replicate lost to CutoffExceeded drew
    # beyond the cutoff, so it is neither 0 nor Delta
    _within(errors, "zero", round(zf * ok), replicates, f0)
    _within(errors, "delta", round(df * ok), replicates, max(0.0, 1.0 - f1))
    if tail_beyond is not None:
        _within(errors, "beyond cutoff", cut, replicates, tail_beyond)
    return errors


def _pmf_checks(pmf, expected_weights, cutoff=None):
    errors = []
    w = pmf.weights
    if cutoff is not None and pmf.cutoff != cutoff:
        errors.append(f"cutoff {pmf.cutoff}, expected {cutoff}")
    if len(w) != pmf.cutoff + 1:
        errors.append("weights length differs from cutoff + 1")
    if float(w.min()) < 0.0:
        errors.append(f"negative weight {float(w.min())!r}")
    total = math.fsum(w) + pmf.tail_mass + pmf.defect_mass
    if abs(total - 1.0) > SUM_TOL:
        errors.append(f"weights + tail + defect = {total!r}")
    expected = expected_weights(pmf.cutoff)
    worst = float(np.max(np.abs(w - expected)))
    if worst > PMF_TOL:
        errors.append(f"weights differ from the closed form by {worst:.3g}")
    return errors


# ---------------------------------------------------------------------------
# simulate_generational
# ---------------------------------------------------------------------------

def _ensemble_op(name, model, n, reps, seed, mode="generational", **kwargs):
    def call():
        return simulator.run_ensemble(model, n, reps, seed, workers=1,
                                      mode=mode, **kwargs)

    def check(stats):
        return _ensemble_checks(stats, model, n, reps)
    return Op(name, call, check)


def _trajectory_checks(trajs, seeds, model, n):
    errors = []
    zeros = 0
    for tr, seed in zip(trajs, seeds):
        st = tr.states
        if len(st) != n + 1 or st[0] != 1 or tr.seed != seed:
            errors.append(f"trajectory {seed}: wrong length, start or seed")
            continue
        first = next((k for k, s in enumerate(st)
                      if s == 0 or s == simulator.DELTA), None)
        if first is not None and any(s != st[first] for s in st[first:]):
            errors.append(f"trajectory {seed}: left an absorbing state")
        if tr.tau != first:
            errors.append(f"trajectory {seed}: tau {tr.tau} != {first}")
        zeros += st[-1] == 0
    f0 = ref.composed_pgf(model.theta, model.r, ref.step_values(model, n), n,
                          0.0)
    _within(errors, "Z_n = 0 over the batch", zeros, len(seeds), f0)
    return errors


def _generational(seed: int) -> list:
    rng = random.Random(seed)
    model = harness.scenario_model
    ex2 = model("Ex2")
    ops = []
    for v in range(GENERATIONAL_VARIANTS):
        ops += [
            _ensemble_op(f"run_ensemble[Ex9ii,n=200,R=480]#{v}",
                         model("Ex9ii"), 200, 480, rng.getrandbits(63)),
            _ensemble_op(f"run_ensemble[Ex7i,n=30,R=1200]#{v}",
                         model("Ex7i"), 30, 1200, rng.getrandbits(63)),
            _ensemble_op(f"run_ensemble[Ex8i,n=30,R=1200]#{v}",
                         model("Ex8i"), 30, 1200, rng.getrandbits(63)),
            _ensemble_op(f"run_ensemble[Ex1,n=20,R=400]#{v}", model("Ex1"),
                         20, 400, rng.getrandbits(63)),
        ]
        seeds = [rng.getrandbits(63) for _ in range(8)]
        ops.append(Op(
            f"simulate_trajectory[Ex2,n=40]x8#{v}",
            lambda seeds=seeds: [simulator.simulate_trajectory(ex2, 40, s)
                                 for s in seeds],
            lambda trajs, seeds=seeds: _trajectory_checks(trajs, seeds, ex2,
                                                          40)))
    return ops


# ---------------------------------------------------------------------------
# simulate_direct
# ---------------------------------------------------------------------------

def _laplace_checks(stats, model, n):
    errors = []
    steps = ref.step_values(model, n)
    w = stats.scaled_samples
    expected = stats.replicates - round(stats.delta_freq[0] * stats.replicates)
    if w is None or len(w) != expected:
        return [f"scaled sample count {None if w is None else len(w)} "
                f"!= {expected}"]
    for lam in (0.5, 1.0, 2.0):
        x = np.exp(-lam * w)
        emp, se = float(x.mean()), float(x.std()) / math.sqrt(len(x))
        target = ref.laplace_at(model.theta, steps, n, lam)
        if abs(emp - target) > Z_MAX * se + 0.5 / len(x):
            errors.append(f"Laplace at {lam}: {emp:.6g} vs F_n(e^-lam A_n) "
                          f"{target:.6g} (SE {se:.3g})")
    return errors


def _half_power_tail(model, n, cutoff) -> float:
    """Mass of the theta = -1/2, r = 1 law of Z_n above cutoff."""
    steps = ref.step_values(model, n)
    A, C = ref.product_of_a(steps, n), ref.sum_of_c(steps, n)
    p = ref.half_power_pmf(1.0, A, C, cutoff)
    return (1.0 - C * C) - math.fsum(p)


def _capped_direct_op(name, model, n, reps, seed, cap):
    """Direct ensemble of a heavy-tailed theta = -1/2, r = 1 law with the
    sampler's cutoff budget capped, so tail extensions stop at ``cap`` and
    draws beyond it are counted as CutoffExceeded."""
    def call():
        return simulator.run_ensemble(model, n, reps, seed, workers=1,
                                      mode="direct", max_cutoff=cap)

    def check(stats):
        return _ensemble_checks(stats, model, n, reps,
                                _half_power_tail(model, n, cap))
    return Op(name, call, check)


def _direct(seed: int) -> list:
    rng = random.Random(seed)
    model = harness.scenario_model
    ex1 = model("Ex1")
    law = analytics.limit_law(ex1, analytics.limit_constants(ex1,
                                                             SCAN_HORIZON))

    def check_ex1(stats):
        return (_ensemble_checks(stats, ex1, 100, 8192)
                + _laplace_checks(stats, ex1, 100))
    ops = []
    for v in range(DIRECT_VARIANTS):
        s1 = rng.getrandbits(63)
        ops.append(Op(f"run_ensemble[Ex1,direct,T1,n=100,R=8192]#{v}",
                      lambda s1=s1: simulator.run_ensemble(
                          ex1, 100, 8192, s1, workers=1, mode="direct",
                          scaling=law),
                      check_ex1))
        for sid in ("Ex7i", "Ex8ii", "Ex9ii"):
            ops.append(_ensemble_op(
                f"run_ensemble[{sid},direct,n=50,R=8192]#{v}", model(sid),
                50, 8192, rng.getrandbits(63), mode="direct"))
        # capped at the base cutoff the sampler's build reaches, so no draw
        # extends it: how many draws land in the tail depends on the seed
        ops.append(_capped_direct_op(
            f"run_ensemble[Ex10i,direct,n=50,R=4096,cap=2^10]#{v}",
            model("Ex10i"), 50, 4096, rng.getrandbits(63), 2 ** 10))
    return ops


# ---------------------------------------------------------------------------
# analyze_scan
# ---------------------------------------------------------------------------

def _scan_call(sc, ns):
    def call():
        m = sc.model
        lc = analytics.limit_constants(m, SCAN_HORIZON)
        label = classifier.classify(m, lc)
        if sc.id == "Ex5":
            law = (analytics.limit_law(m, lc, subsequence=EX5_SUB_UP),
                   analytics.limit_law(m, lc, subsequence=EX5_SUB_DOWN))
        else:
            law = (analytics.limit_law(m, lc),)
        ab = analytics.absorption_probabilities(m, lc)
        table = analytics.constants_table(m, ns)
        conv = analytics.convergence_conditions(m, SCAN_HORIZON)
        return lc, label, law, ab, table, conv
    return call


def _scan_checks(out, sc, ns):
    lc, label, law, ab, table, conv = out
    m, N = sc.model, SCAN_HORIZON
    st = ref.step_values(m, N)
    errors = []
    if (label.regime, label.sub_label) != (sc.expected_regime,
                                           sc.expected_sub_label):
        errors.append(f"regime {label.regime}/{label.sub_label}, registry "
                      f"{sc.expected_regime}/{sc.expected_sub_label}")
    for d in law:
        match = _THEOREM.match(d.theorem_id)
        if match is None or match.group(1) != sc.theorem_id:
            errors.append(f"limit law {d.theorem_id} for {sc.theorem_id}")
    if sc.id == "Ex5" and law[0].theorem_id == law[1].theorem_id:
        errors.append("Ex5 laws agree across the dyadic subsequences")
    rows = {row["n"]: row for row in table}
    if sorted(rows) != sorted(set(ns)):
        errors.append("constants_table rows differ from the request")
    for n, row in rows.items():
        for s, key in ((0.0, "F_n(0)"), (1.0, "F_n(1)")):
            want = ref.composed_pgf(m.theta, m.r, st, n, s)
            if abs(row[key] - want) > PGF_TOL:
                errors.append(f"{key} at n={n}: {row[key]!r} vs composed "
                              f"{want!r}")
    if sc.id == "Ex5":
        for k, (A, C) in ref.dyadic_exact(DYADIC_DOWN).items():
            for key, exact in (("A_n", A), ("C_n", C)):
                if abs(rows[k][key] / float(exact) - 1.0) > 1e-12:
                    errors.append(f"Ex5 {key} at k={k}: {rows[k][key]!r} vs "
                                  f"exact {float(exact)!r}")
    top = lc.evidence["checkpoints"][str(N)]
    if (lc.horizon_used != N or top["A"] != rows[N]["A_n"]
            or top["C"] != rows[N]["C_n"]):
        errors.append("limit_constants checkpoint differs from the table")
    f0, f1 = rows[N]["F_n(0)"], rows[N]["F_n(1)"]
    if not (0.0 <= ab.q <= 1.0 and 0.0 <= ab.q_delta <= 1.0
            and ab.Q <= 1.0 + SUM_TOL):
        errors.append(f"absorption out of range {ab.to_dict()}")
    if (abs(ab.q - f0) > ABSORPTION_TOL
            or abs(ab.q_delta - (1.0 - f1)) > ABSORPTION_TOL):
        errors.append(f"absorption {ab.to_dict()} far from F_N(0) {f0!r}, "
                      f"1 - F_N(1) {1.0 - f1!r}")
    if conv.horizon != N:
        errors.append("convergence_conditions horizon differs")
    # terms of these sums are >= 0 (the A1 terms are not when a_n > 1)
    for key in ("cl", "one_minus_a", "tilde"):
        sums = conv.partial_sums[key]
        if any(b < a for a, b in zip(sums, sums[1:])):
            errors.append(f"partial sums of {key} decrease: {sums}")
    want = [math.fsum(abs(1.0 - a) for a, _, _ in st[:k])
            for k in (N // 4, N // 2, N)]
    got = conv.partial_sums["one_minus_a"]
    if any(abs(g - w) > 1e-9 * max(1.0, w) for g, w in zip(got, want)):
        errors.append(f"sum(1 - a_n) partial sums {got} vs {want}")
    return errors


def _scan(seed: int) -> list:
    rng = random.Random(seed)
    scenarios = harness.registry()
    rng.shuffle(scenarios)
    ops = []
    for sc in scenarios:
        ns = [10, 100, 1000, SCAN_HORIZON] + rng.sample(
            range(11, SCAN_HORIZON), 3)
        if sc.id == "Ex5":
            ns += list(DYADIC_DOWN)
        ops.append(Op(f"analyze[{sc.id}]", _scan_call(sc, ns),
                      lambda out, sc=sc, ns=ns: _scan_checks(out, sc, ns)))
    return ops


# ---------------------------------------------------------------------------
# pmf_heavy
# ---------------------------------------------------------------------------

def _tail_tol_for(pmf_weights, g1: float, cutoff: int) -> float:
    """A tail tolerance the series doubling first meets at ``cutoff``: the
    reference tail mass at 3/4 of it (tails here fall strictly with J)."""
    return g1 - math.fsum(pmf_weights(3 * cutoff // 4))


def _pmf_heavy(seed: int) -> list:
    rng = random.Random(seed)
    model = harness.scenario_model
    ops = []
    shared = {}

    # theta = 1 linear fractional population law of Ex1: a geometric tail
    # that the doubling resolves at J = 2^12 for 90 <= n <= 140
    ex1 = model("Ex1")
    n1 = rng.randint(90, 140)
    st1 = ref.step_values(ex1, n1)
    lf = (lambda J: ref.linear_fractional_pmf(
        1.0, ref.product_of_a(st1, n1), ref.sum_of_c(st1, n1), J))

    def pop_ex1():
        shared["ex1"] = series.population_pmf(ex1, n1)
        return shared["ex1"]
    ops.append(Op(f"population_pmf[Ex1,n={n1}]", pop_ex1,
                  lambda p: _pmf_checks(p, lf, 2 ** 12)))

    def check_extend(p):
        errors = _pmf_checks(p, lf, 2 ** 14)
        base = shared["ex1"].weights
        if not np.array_equal(p.weights[:len(base)], base):
            errors.append("extend_pmf changed the prefix weights")
        return errors
    ops.append(Op("extend_pmf[Ex1,2^12->2^14]",
                  lambda: series.extend_pmf(shared["ex1"], 2 ** 14),
                  check_extend))

    # theta = -1/2, r = 1 one-step law from a generated table: heavy tail
    # p_j ~ j^(-3/2), tolerance chosen so the doubling stops at 2^13
    a = rng.uniform(0.3, 0.6)
    c = (1.0 - a) * rng.uniform(0.3, 0.7)
    table = environment.validate_model(
        -0.5, 1.0, environment.EnvSequence.from_table([a]),
        environment.EnvSequence.from_table([c]))
    hp1 = (lambda J: ref.half_power_pmf(1.0, a, c, J))
    tol1 = _tail_tol_for(hp1, 1.0 - c * c, 2 ** 13)
    ops.append(Op(f"step_pmf[theta=-1/2,a={a:.4f},c={c:.4f}]",
                  lambda: series.step_pmf(table, 1, tail_tol=tol1,
                                          max_cutoff=2 ** 15),
                  lambda p: _pmf_checks(p, hp1, 2 ** 13)))

    # theta = -1/2 population law of Ex10ii, doubling to 2^14
    ex10 = model("Ex10ii")
    n2 = rng.randint(20, 60)
    st2 = ref.step_values(ex10, n2)
    A2, C2 = ref.product_of_a(st2, n2), ref.sum_of_c(st2, n2)
    hp2 = (lambda J: ref.half_power_pmf(1.0, A2, C2, J))
    tol2 = _tail_tol_for(hp2, 1.0 - C2 * C2, 2 ** 14)
    ops.append(Op(f"population_pmf[Ex10ii,n={n2}]",
                  lambda: series.population_pmf(ex10, n2, tail_tol=tol2,
                                                max_cutoff=2 ** 15),
                  lambda p: _pmf_checks(p, hp2, 2 ** 14)))

    # two-chunk direct ensemble of Ex10ii: every chunk extends its sampler's
    # pmf from the base cutoff to the 2^13 cap on its own
    ops.append(_capped_direct_op(
        "run_ensemble[Ex10ii,direct,R=8192,cap=2^13]", ex10,
        rng.randint(20, 60), 8192, rng.getrandbits(63), 2 ** 13))

    # small theta = 1 and theta = -1/2 laws with r = 2 (defective), whose
    # tails fall geometrically: the doubling stops near J = 64
    for sid, pmf_of in (("Ex7i", ref.linear_fractional_pmf),
                        ("Ex7ii", ref.linear_fractional_pmf),
                        ("Ex8i", ref.half_power_pmf),
                        ("Ex8ii", ref.half_power_pmf)):
        m = model(sid)
        n = rng.randint(20, 60)
        st = ref.step_values(m, n)
        want = (lambda J, st=st, n=n, f=pmf_of: f(
            2.0, ref.product_of_a(st, n), ref.sum_of_c(st, n), J))
        ops.append(Op(f"population_pmf[{sid},n={n}]",
                      lambda m=m, n=n: series.population_pmf(m, n),
                      lambda p, want=want: _pmf_checks(p, want)))
    return ops


_BUILDERS = {"simulate_generational": _generational,
             "simulate_direct": _direct,
             "analyze_scan": _scan,
             "pmf_heavy": _pmf_heavy}


def build(workload: str, seed: int) -> list:
    """One round of operations for the workload, with inputs from seed."""
    return _BUILDERS[workload](seed)
