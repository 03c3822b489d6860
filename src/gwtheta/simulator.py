"""Seeded Monte Carlo for theta-processes: trajectories, direct sampling of
Z_n from its composite law, and parallel ensemble statistics.

Reproducibility contract: every replicate owns a counter-based RNG stream
keyed by (base_seed, replicate_index), so results are bit-identical for any
worker count and for reruns with the same seed.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytics import (CompositeConstants, LimitLawDescriptor,
                        composite_constants, composite_law)
from .environment import ThetaLaw, ThetaModel
from .errors import CutoffExceeded, DomainError
from .series import (DEFAULT_MAX_CUTOFF, Pmf, extend_pmf, population_pmf,
                     step_pmf)

DELTA = "delta"                  # absorbing symbol
_DELTA_CODE = -1                 # internal integer encoding
POPULATION_CAP = 10 ** 9
BATCH = 10 ** 4                  # max i.i.d. offspring draws per rng call
CHUNK = 4096                     # replicates per reduction chunk
DEFAULT_S_GRID = tuple(j / 10.0 for j in range(11))
_SAMPLING_TAIL_TOL = 1e-12

_MASK64 = (1 << 64) - 1


def replicate_rng(base_seed: int, replicate_index: int) -> np.random.Generator:
    """Counter-based stream keyed by (base_seed, replicate_index).  The
    Philox is seeded with 0 and then re-keyed: built with a key alone it
    would first draw OS entropy for a seed that the key overrides."""
    bitgen = np.random.Philox(0)
    state = bitgen.state
    state["state"]["key"] = (base_seed & _MASK64, replicate_index & _MASK64)
    bitgen.state = state
    return np.random.Generator(bitgen)


def _replicate_streams(base_seed: int, indices):
    """Yield, for each i in indices, a generator positioned at the start of
    the replicate_rng(base_seed, i) stream.  One Philox is re-keyed in place
    (counter zero, empty buffer) instead of constructing a generator per
    replicate; each one is valid only until the next is drawn."""
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    seed = base_seed & _MASK64
    zero = (0, 0, 0, 0)
    for i in indices:
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": zero, "key": (seed, i & _MASK64)},
                        "buffer": zero, "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
        yield rng


# ---------------------------------------------------------------------------
# Law samplers
# ---------------------------------------------------------------------------

def heavy_tail_log_sf(j: float, a: float) -> float:
    """ln P(Y > j) for the law with pgf 1 - (1-s)^a (heavy tail, a in (0,1)):
    P(Y > j) = Gamma(j+1-a) / (Gamma(j+1) Gamma(1-a))."""
    return (math.lgamma(j + 1.0 - a) - math.lgamma(j + 1.0)
            - math.lgamma(1.0 - a))


def _heavy_tail_search(u: float, a: float):
    """Inverse transform of the pgf 1 - (1-s)^a at uniform u: the smallest
    j >= 1 with P(Y > j) <= 1 - u, by binary search in log space, as
    (j, None); beyond 2^40 as (None, ln j) from the asymptotic tail
    P(Y > j) ~ j^(-a) / Gamma(1-a)."""
    log_target = math.log1p(-u) if u < 1.0 else -math.inf
    if heavy_tail_log_sf(1.0, a) <= log_target:
        return 1, None
    hi = 2
    while hi <= 2 ** 40 and heavy_tail_log_sf(float(hi), a) > log_target:
        hi *= 2
    if hi > 2 ** 40:
        # asymptotic inversion: -a ln j - lgamma(1-a) = log_target
        return None, -(log_target + math.lgamma(1.0 - a)) / a
    lo = hi // 2           # tail(lo) > target >= tail(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if heavy_tail_log_sf(float(mid), a) > log_target:
            lo = mid
        else:
            hi = mid
    return hi, None


def sample_heavy_tail_index(u: float, a: float) -> int:
    """Inverse-transform draw from the pgf 1 - (1-s)^a given uniform u."""
    j, log_j = _heavy_tail_search(u, a)
    if j is None:
        return int(math.ceil(math.exp(min(log_j, 700.0))))
    return j


def sample_heavy_tail_log(u: float, a: float) -> float:
    """ln of a draw from the pgf 1 - (1-s)^a; exact up to 2^40 and via the
    asymptotic tail inversion beyond (relative tail error O(1/j)).  Returns a
    float so draws far beyond any integer range stay usable in log scale."""
    j, log_j = _heavy_tail_search(u, a)
    return log_j if j is None else math.log(j)


class _MixtureHeavySampler:
    """Exact sampler for a law g(s) = 1 - d (1-s)^a (theta = 0, r = 1):
    0 with probability 1-d, else a heavy-tail index draw with parameter a."""

    emits_delta = False

    def __init__(self, law: ThetaLaw):
        self.a = law.a
        self.p_zero = law.pgf(0.0)

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        u = rng.random(k)
        out = np.zeros(k, dtype=np.int64)
        alive = u >= self.p_zero
        for i in np.nonzero(alive)[0]:
            # rescale u into the conditional uniform for the positive part
            v = (u[i] - self.p_zero) / (1.0 - self.p_zero)
            # clip astronomically large draws to fit int64; anything this
            # big is far beyond the population cap and only its positivity
            # matters downstream
            out[i] = min(sample_heavy_tail_index(float(v), self.a), 2 ** 62)
        return out


class _PmfSampler:
    """Inverse-transform sampler over (weights, tail, defect); a draw landing
    in the tail region extends the cutoff until resolved (prefix weights are
    stable, so no probability is reassigned)."""

    def __init__(self, pmf: Pmf, max_cutoff: int):
        self.pmf = pmf
        self.max_cutoff = max_cutoff
        self._cum = np.cumsum(pmf.weights)
        self._proper = 1.0 - pmf.defect_mass
        # with no defect mass _proper is 1 > u, so no draw can be DELTA
        self.emits_delta = pmf.defect_mass > 0.0

    def _resolve_tail(self, u: float) -> int:
        while True:
            if self.pmf.cutoff >= self.max_cutoff:
                raise CutoffExceeded(
                    f"draw fell in unresolved tail mass beyond cutoff "
                    f"{self.pmf.cutoff} (budget {self.max_cutoff})",
                    partial=self.pmf)
            self.pmf = extend_pmf(self.pmf,
                                  min(2 * self.pmf.cutoff, self.max_cutoff))
            self._cum = np.cumsum(self.pmf.weights)
            if u < self._cum[-1]:
                return int(np.searchsorted(self._cum, u, side="right"))

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        u = rng.random(k)
        out = self._cum.searchsorted(u, side="right").astype(np.int64)
        if out.max() > self.pmf.cutoff:
            for i in np.nonzero(out > self.pmf.cutoff)[0]:
                if u[i] >= self._proper:
                    out[i] = _DELTA_CODE
                else:
                    out[i] = self._resolve_tail(float(u[i]))
        return out


def _build_sampling_pmf(builder, *args, tail_tol=_SAMPLING_TAIL_TOL,
                        max_cutoff=DEFAULT_MAX_CUTOFF):
    """Best-effort pmf for sampling: an unreachable tail tolerance is fine,
    the sampler extends (or raises) only when a draw actually lands there."""
    try:
        return builder(*args, tail_tol=tail_tol, max_cutoff=max_cutoff)
    except CutoffExceeded as err:
        return err.partial


def _sampler(model: ThetaModel, n: int, max_cutoff: int, population: bool):
    """Sampler of the one-step law f_n, or of the law F_n of Z_n when
    population is set."""
    if model.theta == 0.0 and model.r == 1.0:
        law = composite_law(model, n) if population else model.step_law(n)
        return _MixtureHeavySampler(law)
    build_pmf = population_pmf if population else step_pmf
    pmf = _build_sampling_pmf(build_pmf, model, n, max_cutoff=max_cutoff)
    return _PmfSampler(pmf, max_cutoff)


def sample_offspring(pmf: Pmf, rng: np.random.Generator,
                     max_cutoff: int = DEFAULT_MAX_CUTOFF):
    """One inverse-transform draw from a Pmf: count, or DELTA."""
    value = int(_PmfSampler(pmf, max_cutoff).draw(rng, 1)[0])
    return DELTA if value == _DELTA_CODE else value


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Single path of the process; states[n] is the population at
    generation n (or DELTA).  truncated marks a population-cap hit."""

    states: tuple
    tau0: Optional[int]
    tau_delta: Optional[int]
    tau: Optional[int]
    seed: int
    truncated: bool = False


def _simulate_states(model: ThetaModel, horizon: int,
                     rng: np.random.Generator, samplers: dict,
                     population_cap: int, max_cutoff: int):
    states = [1]
    z = 1
    truncated = False
    for n in range(1, horizon + 1):
        if z == 0 or z == _DELTA_CODE or truncated:
            states.append(states[-1])
            continue
        sampler = samplers.get(n)
        if sampler is None:
            sampler = _sampler(model, n, max_cutoff, False)
            samplers[n] = sampler
        total = 0
        remaining = z
        hit_delta = False
        while remaining > 0:
            k = min(remaining, BATCH)
            draws = sampler.draw(rng, k)
            if sampler.emits_delta and (draws == _DELTA_CODE).any():
                hit_delta = True
                break                 # one defective draw absorbs everything
            total += int(draws.sum())
            remaining -= k
            if total > population_cap:
                truncated = True
                break
        if hit_delta:
            z = _DELTA_CODE
            states.append(DELTA)
        else:
            z = total
            states.append(min(total, population_cap))
    return states, truncated


def simulate_trajectory(model: ThetaModel, horizon: int, seed: int,
                        population_cap: int = POPULATION_CAP,
                        max_cutoff: int = DEFAULT_MAX_CUTOFF,
                        _samplers: dict = None) -> Trajectory:
    """Generation-by-generation path; deterministic in (model, horizon, seed)."""
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    rng = replicate_rng(seed, 0)
    samplers = _samplers if _samplers is not None else {}
    states, truncated = _simulate_states(model, horizon, rng, samplers,
                                         population_cap, max_cutoff)
    tau0 = tau_delta = None
    for n, s in enumerate(states):
        if s == DELTA:
            tau_delta = n
            break
        if s == 0:
            tau0 = n
            break
    tau = tau0 if tau0 is not None else tau_delta
    return Trajectory(tuple(states), tau0, tau_delta, tau, seed, truncated)


def sample_zn_direct(model: ThetaModel, n: int, seed: int,
                     max_cutoff: int = DEFAULT_MAX_CUTOFF):
    """One draw of Z_n straight from the composite law (the family is closed
    under composition, so Z_n's law needs no generation loop)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    sampler = _sampler(model, n, max_cutoff, True)
    value = int(sampler.draw(replicate_rng(seed, 0), 1)[0])
    return DELTA if value == _DELTA_CODE else value


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    fh.write("generation,state\n")
    for n, s in enumerate(traj.states):
        fh.write(f"{n},{s}\n")


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleStats:
    replicates: int
    horizon: int
    mode: str
    base_seed: int
    zero_freq: tuple            # (estimate, standard error)
    delta_freq: tuple
    survival_freq: tuple
    empirical_pgf: tuple        # ((s, estimate, standard error), ...)
    scaled_samples: Optional[np.ndarray]
    error_counts: dict
    truncated_count: int

    def to_dict(self) -> dict:
        return {
            "replicates": self.replicates,
            "horizon": self.horizon,
            "mode": self.mode,
            "base_seed": self.base_seed,
            "zero_freq": {"estimate": self.zero_freq[0],
                          "se": self.zero_freq[1]},
            "delta_freq": {"estimate": self.delta_freq[0],
                           "se": self.delta_freq[1]},
            "survival_freq": {"estimate": self.survival_freq[0],
                              "se": self.survival_freq[1]},
            "empirical_pgf": [{"s": s, "estimate": m, "se": e}
                              for s, m, e in self.empirical_pgf],
            "scaled_samples_count": (len(self.scaled_samples)
                                     if self.scaled_samples is not None
                                     else None),
            "error_counts": dict(self.error_counts),
            "truncated_count": self.truncated_count,
        }


def _scaled_value(descriptor: LimitLawDescriptor, cc: CompositeConstants,
                  theta: float, z: int):
    """Normalized sample per the descriptor's scaling recipe; None when the
    replicate does not enter the conditioned/scaled collection."""
    tid = descriptor.theorem_id
    if z == _DELTA_CODE:
        return None
    if tid == "T1":
        return cc.A ** (1.0 / theta) * z
    if tid in ("T6i", "T6ii"):
        return cc.A * math.log(z) if z > 0 else None
    if tid in ("T3", "T4", "T5i", "T5ii"):
        return float(z) if z > 0 else None
    return float(z)


def _run_chunk(model: ThetaModel, horizon: int, mode: str, base_seed: int,
               start: int, count: int, s_grid, descriptor, theta: float,
               cc, population_cap: int, max_cutoff: int) -> dict:
    n_zero = n_delta = n_surv = n_trunc = 0
    pgf_sum = [0.0] * len(s_grid)
    pgf_sq = [0.0] * len(s_grid)
    scaled = []
    errors = {}
    samplers = {}
    direct_sampler = None
    if mode == "direct":
        direct_sampler = _sampler(model, horizon, max_cutoff, True)
    for rng in _replicate_streams(base_seed, range(start, start + count)):
        try:
            if mode == "direct":
                z = int(direct_sampler.draw(rng, 1)[0])
            else:
                states, truncated = _simulate_states(
                    model, horizon, rng, samplers, population_cap,
                    max_cutoff)
                if truncated:
                    n_trunc += 1
                last = states[-1]
                z = _DELTA_CODE if last == DELTA else int(last)
        except CutoffExceeded:
            errors["CutoffExceeded"] = errors.get("CutoffExceeded", 0) + 1
            continue
        if z == _DELTA_CODE:
            n_delta += 1
        elif z == 0:
            n_zero += 1
        else:
            n_surv += 1
        for i, s in enumerate(s_grid):
            x = 0.0 if z == _DELTA_CODE else s ** z
            pgf_sum[i] += x
            pgf_sq[i] += x * x
        if descriptor is not None:
            val = _scaled_value(descriptor, cc, theta, z)
            if val is not None:
                scaled.append(val)
    return {"zero": n_zero, "delta": n_delta, "surv": n_surv,
            "trunc": n_trunc, "pgf_sum": pgf_sum, "pgf_sq": pgf_sq,
            "scaled": scaled, "errors": errors}


def run_ensemble(model: ThetaModel, horizon: int, replicates: int,
                 base_seed: int, workers: int = 1,
                 mode: str = "generational",
                 scaling: Optional[LimitLawDescriptor] = None,
                 s_grid: Sequence[float] = DEFAULT_S_GRID,
                 population_cap: int = POPULATION_CAP,
                 max_cutoff: int = DEFAULT_MAX_CUTOFF) -> EnsembleStats:
    """Ensemble statistics over independent replicates.

    Replicates are split into fixed-size chunks by index; chunk results are
    reduced in index order, so the result is bit-identical for any number of
    workers."""
    if replicates < 1:
        raise DomainError("replicates must be >= 1")
    if mode not in ("generational", "direct"):
        raise DomainError(f"unknown mode {mode!r}")
    cc = composite_constants(model, horizon) if scaling is not None else None
    chunks = [(start, min(CHUNK, replicates - start))
              for start in range(0, replicates, CHUNK)]
    args = [(model, horizon, mode, base_seed, start, count, tuple(s_grid),
             scaling, model.theta, cc, population_cap, max_cutoff)
            for start, count in chunks]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk_star, args))
    else:
        results = [_run_chunk(*a) for a in args]

    n_zero = n_delta = n_surv = n_trunc = 0
    pgf_sum = [0.0] * len(s_grid)
    pgf_sq = [0.0] * len(s_grid)
    scaled = []
    errors = {}
    for res in results:            # fixed chunk order: deterministic reduce
        n_zero += res["zero"]
        n_delta += res["delta"]
        n_surv += res["surv"]
        n_trunc += res["trunc"]
        for i in range(len(s_grid)):
            pgf_sum[i] += res["pgf_sum"][i]
            pgf_sq[i] += res["pgf_sq"][i]
        scaled.extend(res["scaled"])
        for key, val in res["errors"].items():
            errors[key] = errors.get(key, 0) + val
    n_ok = n_zero + n_delta + n_surv

    def freq(count):
        p = count / n_ok if n_ok else 0.0
        se = math.sqrt(p * (1.0 - p) / n_ok) if n_ok else 0.0
        return (p, se)

    pgf = []
    for i, s in enumerate(s_grid):
        if n_ok:
            mean = pgf_sum[i] / n_ok
            var = max(0.0, pgf_sq[i] / n_ok - mean * mean)
            pgf.append((s, mean, math.sqrt(var / n_ok)))
        else:
            pgf.append((s, 0.0, 0.0))
    return EnsembleStats(
        replicates=replicates, horizon=horizon, mode=mode,
        base_seed=base_seed, zero_freq=freq(n_zero),
        delta_freq=freq(n_delta), survival_freq=freq(n_surv),
        empirical_pgf=tuple(pgf),
        scaled_samples=(np.array(scaled) if scaling is not None else None),
        error_counts=errors, truncated_count=n_trunc)


def _run_chunk_star(args):
    return _run_chunk(*args)
