"""Seeded Monte Carlo for theta-processes: trajectories, direct sampling of
Z_n from its composite law, and parallel ensemble statistics.

Reproducibility contract: every replicate owns a counter-based RNG stream
keyed by (base_seed, replicate_index), so results are bit-identical for any
worker count and for reruns with the same seed.  A draw depends on the law,
the cutoff budget and the uniform alone, so a call shares its samplers.
replicate_rng defines the stream.  Where a replicate needs only its first
uniform, _philox_uniforms computes it for a whole array of keys: the same
Philox4x64-10 block numpy's Philox computes, bit for bit (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).

Direct draws of Z_n take one uniform each, so a direct-mode chunk and a
sample_zn call draw all their replicates at once: one kernel call, one
search of the cumulative table, and one vectorized tally.  Entries past the
table follow the rules of the scalar path, in replicate order.

Small generations take a scalar path: up to SCALAR_DRAWS offspring are read
one ``rng.random()`` at a time and located by ``bisect`` in a memoryview of
the cumulative table, skipping the per-call cost of numpy on arrays of one
or two elements.  Scalar ``random()`` calls read the same doubles from the
stream as one ``random(k)``, and the scalar search applies the same table,
DELTA rule and tail extension as the array search, so every result is the
one the array path gives.

Step samplers of a theta != 0 model are built a block of STEP_BLOCK
generations at a time, on the first miss, from one batched power
recurrence per cutoff doubling.  Each is the sampler its law gives alone,
so this changes no draw, and a law that fails lazy validation still raises
only when a path reaches it.  Each simulate_trajectory call builds its own
table: many paths are cheaper from one simulate_trajectories call.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional, Sequence

import numpy as np

from .analytics import LimitLawDescriptor, composite_constants, composite_law
from .environment import ThetaLaw, ThetaModel
from .errors import CutoffExceeded, DomainError, GwThetaError
from .series import (DEFAULT_MAX_CUTOFF, DEFAULT_TAIL_TOL, Pmf, _build_all,
                     extend_pmf, population_pmf, step_pmf)

DELTA = "delta"                  # absorbing symbol
_DELTA_CODE = -1                 # internal integer encoding
_CUTOFF_CODE = -2                # a draw that raised CutoffExceeded
POPULATION_CAP = 10 ** 9
BATCH = 10 ** 4                  # max i.i.d. offspring draws per rng call
CHUNK = 4096                     # replicates per reduction chunk
SCALAR_DRAWS = 8                 # max offspring drawn by the scalar path
STEP_BLOCK = 64                  # step samplers built in one batched pass
DEFAULT_S_GRID = tuple(j / 10.0 for j in range(11))

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


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)   # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)   # key bumps
_LO32 = np.uint64(0xFFFFFFFF)
_S32, _S11 = np.uint64(32), np.uint64(11)


def _mulhilo(m: int, x: np.ndarray):
    """The high and low words of the 128-bit products m * x, built from
    32-bit halves so that no partial product leaves uint64."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _S32
    lh, hl = m_lo * x_hi, m_hi * x_lo
    mid = ((m_lo * x_lo) >> _S32) + (lh & _LO32) + (hl & _LO32)
    hi = m_hi * x_hi + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)
    return hi, np.uint64(m) * x


def _philox_uniforms(k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """replicate_rng(k0[j], k1[j]).random() for uint64 key arrays k0, k1:
    the first word of the Philox4x64-10 block at counter (1, 0, 0, 0), as
    numpy bumps the counter before its first block, read as a double."""
    k0, k1 = k0.copy(), k1.copy()
    c0 = np.ones_like(k0)
    c1 = c2 = c3 = np.zeros_like(k0)
    for rnd in range(10):
        if rnd:
            k0 += np.uint64(_PHILOX_W[0])
            k1 += np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return (c0 >> _S11) * 2.0 ** -53


def _keys(values) -> np.ndarray:
    """Integers as the uint64 words of Philox keys (two's complement)."""
    return np.array([v & _MASK64 for v in values], dtype=np.uint64)


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
        return self.place(rng.random(k))

    def place(self, u: np.ndarray, cutoff_code=None) -> np.ndarray:
        """The draws at the uniforms u; the law has no tail to resolve."""
        out = np.zeros(u.size, dtype=np.int64)
        alive = u >= self.p_zero
        for i in np.nonzero(alive)[0]:
            # rescale u into the conditional uniform for the positive part
            v = (u[i] - self.p_zero) / (1.0 - self.p_zero)
            # clip astronomically large draws to fit int64; anything this
            # big is far beyond the population cap and only its positivity
            # matters downstream
            out[i] = min(sample_heavy_tail_index(float(v), self.a), 2 ** 62)
        return out

    def draw_sum(self, rng: np.random.Generator, k: int) -> int:
        """The sum of draw(rng, k): the array path, as the law has no DELTA."""
        return int(self.draw(rng, k).sum())


class _PmfSampler:
    """Inverse-transform sampler over (weights, tail, defect); a draw landing
    in the tail region extends the cutoff until resolved (prefix weights are
    stable, so no probability is reassigned).  A draw depends on the law and
    the cutoff budget alone, not on how far earlier draws extended it."""

    def __init__(self, pmf: Pmf, max_cutoff: int):
        self.max_cutoff = max_cutoff
        self._proper = 1.0 - pmf.defect_mass
        # with no defect mass _proper is 1 > u, so no draw can be DELTA
        self.emits_delta = pmf.defect_mass > 0.0
        self._set_pmf(pmf)

    def _set_pmf(self, pmf: Pmf) -> None:
        # the running sum can round above 1 - defect; clamped there, every
        # u >= 1 - defect falls past the table, and so is DELTA, at any cutoff
        self.pmf = pmf
        self._cum = np.minimum(np.cumsum(pmf.weights), self._proper)
        # the scalar path bisects this view: its items are Python floats,
        # and it costs no copy of the table
        self._cum_view = memoryview(self._cum)

    def _resolve_tail(self, u: float) -> int:
        """Index of a proper u past the table: extend the cutoff until the
        table holds u, or raise CutoffExceeded at the budget."""
        while u >= self._cum[-1]:
            if self.pmf.cutoff >= self.max_cutoff:
                raise CutoffExceeded(
                    f"draw fell in unresolved tail mass beyond cutoff "
                    f"{self.pmf.cutoff} (budget {self.max_cutoff})",
                    partial=self.pmf)
            self._set_pmf(extend_pmf(self.pmf, min(2 * self.pmf.cutoff,
                                                   self.max_cutoff)))
        return int(np.searchsorted(self._cum, u, side="right"))

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return self.place(rng.random(k))

    def place(self, u: np.ndarray, cutoff_code=None) -> np.ndarray:
        """The draws at the uniforms u, resolved in order: an index, or
        _DELTA_CODE.  A tail beyond the budget raises CutoffExceeded, or
        gives cutoff_code in that entry alone when one is given."""
        out = self._cum.searchsorted(u, side="right").astype(np.int64)
        if out.size and out.max() > self.pmf.cutoff:
            for i in np.nonzero(out > self.pmf.cutoff)[0]:
                if u[i] >= self._proper:
                    out[i] = _DELTA_CODE
                else:
                    try:
                        out[i] = self._resolve_tail(float(u[i]))
                    except CutoffExceeded:
                        if cutoff_code is None:
                            raise
                        out[i] = cutoff_code
        return out

    def draw_sum(self, rng: np.random.Generator, k: int) -> int:
        """The sum of draw(rng, k), or _DELTA_CODE if any draw is DELTA, from
        k scalar uniforms.  Like draw, it resolves every uniform, so a tail
        beyond the budget raises even next to a DELTA."""
        cum = self._cum_view
        total, delta = 0, False
        for _ in range(k):
            u = rng.random()
            if u < cum[-1]:
                total += bisect_right(cum, u)
            elif u >= self._proper:
                delta = True
            else:
                total += self._resolve_tail(u)
                cum = self._cum_view
        return _DELTA_CODE if delta else total


def _sampler(model: ThetaModel, n: int, max_cutoff: int, population: bool):
    """Sampler of the one-step law f_n, or of the law F_n of Z_n when
    population is set."""
    if model.theta == 0.0 and model.r == 1.0:
        law = composite_law(model, n) if population else model.step_law(n)
        return _MixtureHeavySampler(law)
    build_pmf = population_pmf if population else step_pmf
    try:
        pmf = build_pmf(model, n, max_cutoff=max_cutoff)
    except CutoffExceeded as err:
        # an unreachable tail tolerance is fine: the sampler extends (or
        # raises) only when a draw actually lands in the tail
        pmf = err.partial
    return _PmfSampler(pmf, max_cutoff)


class _SamplerTable:
    """The samplers of one simulation call, each built on first use and kept
    for the whole call: f_n's in ``step`` and F_n's in ``population``, both
    keyed by n.  Draws do not depend on a sampler's history, so every chunk
    and every path of the call can share them.

    The first miss of a theta != 0 step sampler builds the samplers of
    generations n .. n + STEP_BLOCK - 1, up to the horizon, in one batched
    pass (series._build_all); each is the sampler _sampler would build.  A
    generation whose law fails validation is left out, and a build that
    fails leaves the whole block out, so _sampler builds those laws one by
    one and an error is raised only when a path reaches its generation."""

    def __init__(self, model: ThetaModel, max_cutoff: int, horizon: int):
        self.model, self.max_cutoff, self.horizon = model, max_cutoff, horizon
        self.step, self.population = {}, {}
        self._blocked = 0          # last generation a block has covered

    def get(self, n: int, population: bool = False):
        built = self.population if population else self.step
        if n not in built:
            if not population and n > self._blocked:
                self._build_block(n)
            if n not in built:
                built[n] = _sampler(self.model, n, self.max_cutoff,
                                    population)
        return built[n]

    def _build_block(self, n0: int) -> None:
        n1 = min(n0 + STEP_BLOCK, self.horizon + 1)
        self._blocked = n1 - 1
        if self.model.theta == 0.0:
            return
        ns, laws = [], []
        for n in range(n0, n1):
            try:
                laws.append(self.model.step_law(n))
            except GwThetaError:
                continue
            ns.append(n)
        try:
            built = _build_all(laws, DEFAULT_TAIL_TOL, self.max_cutoff)
        except GwThetaError:
            return
        for n, pmf in zip(ns, built):
            if isinstance(pmf, CutoffExceeded):
                pmf = pmf.partial              # as in _sampler
            self.step[n] = _PmfSampler(pmf, self.max_cutoff)


def sample_offspring(pmf: Pmf, rng: np.random.Generator,
                     max_cutoff: int = DEFAULT_MAX_CUTOFF):
    """One inverse-transform draw from a Pmf: count, or DELTA."""
    value = _PmfSampler(pmf, max_cutoff).draw_sum(rng, 1)
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


def _simulate_states(samplers: _SamplerTable, horizon: int,
                     rng: np.random.Generator, population_cap: int):
    step = samplers.step
    states = [1]
    z = 1
    truncated = False
    for n in range(1, horizon + 1):
        if z == 0 or z == _DELTA_CODE or truncated:   # absorbed: it stays
            states.extend([states[-1]] * (horizon + 1 - n))
            break
        sampler = step.get(n)
        if sampler is None:
            sampler = samplers.get(n)
        if z <= SCALAR_DRAWS:
            total = sampler.draw_sum(rng, z)
            truncated = total > population_cap
        else:
            total = 0
            remaining = z
            while remaining > 0:
                k = min(remaining, BATCH)
                draws = sampler.draw(rng, k)
                if sampler.emits_delta and (draws == _DELTA_CODE).any():
                    total = _DELTA_CODE   # one defective draw absorbs all
                    break
                total += int(draws.sum())
                remaining -= k
                if total > population_cap:
                    truncated = True
                    break
        z = total
        states.append(DELTA if z == _DELTA_CODE else min(z, population_cap))
    return states, truncated


def simulate_trajectories(model: ThetaModel, horizon: int,
                          seeds: Iterable[int],
                          population_cap: int = POPULATION_CAP,
                          max_cutoff: int = DEFAULT_MAX_CUTOFF) -> list:
    """Generation-by-generation paths, one per seed, sharing one sampler
    table; each path is deterministic in (model, horizon, seed)."""
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    samplers = _SamplerTable(model, max_cutoff, horizon)
    paths = []
    for seed in seeds:
        states, truncated = _simulate_states(
            samplers, horizon, replicate_rng(seed, 0), population_cap)
        tau = next((n for n, s in enumerate(states)
                    if s == 0 or s == DELTA), None)
        tau0 = tau if tau is not None and states[tau] == 0 else None
        tau_delta = tau if tau is not None and tau0 is None else None
        paths.append(Trajectory(tuple(states), tau0, tau_delta, tau, seed,
                                truncated))
    return paths


def simulate_trajectory(model: ThetaModel, horizon: int, seed: int,
                        population_cap: int = POPULATION_CAP,
                        max_cutoff: int = DEFAULT_MAX_CUTOFF) -> Trajectory:
    """Generation-by-generation path; deterministic in (model, horizon, seed)."""
    return simulate_trajectories(model, horizon, (seed,), population_cap,
                                 max_cutoff)[0]


def sample_zn(model: ThetaModel, n: int, seeds: Iterable[int],
              max_cutoff: int = DEFAULT_MAX_CUTOFF) -> list:
    """Draws of Z_n straight from the composite law (the family is closed
    under composition, so Z_n's law needs no generation loop), one per seed,
    all from one sampler and one kernel call over the keys (seed, 0); each
    is deterministic in (model, n, seed)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    sampler = _SamplerTable(model, max_cutoff, n).get(n, population=True)
    k0 = _keys(seeds)
    values = sampler.place(_philox_uniforms(k0, np.zeros_like(k0))).tolist()
    return [DELTA if v == _DELTA_CODE else v for v in values]


def sample_zn_direct(model: ThetaModel, n: int, seed: int,
                     max_cutoff: int = DEFAULT_MAX_CUTOFF):
    """One draw of Z_n straight from the composite law."""
    return sample_zn(model, n, (seed,), max_cutoff)[0]


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


# what every chunk of one run_ensemble call shares
_Job = namedtuple("_Job", "model horizon mode base_seed s_grid scaling cc "
                          "population_cap max_cutoff")


class _Tally:
    """Outcome counts and empirical-pgf sums over replicates.  Chunks and the
    run total start from the same zeros, and the total merges the chunks in
    chunk order, so its sums do not depend on the worker count."""

    def __init__(self, grid_size: int):
        self.counts = Counter()     # zero, delta, survival, truncated
        self.errors = Counter()     # by exception name
        self.pgf_sum = [0.0] * grid_size
        self.pgf_sq = [0.0] * grid_size
        self.scaled = []

    def add(self, z: np.ndarray, job: _Job) -> None:
        """Tally the outcomes z (a count or _DELTA_CODE each), in replicate
        order.  Each distinct z is mapped once, s ** int(z) by Python's pow
        and the scaled sample by the descriptor, and the sums accumulate left
        to right (cumsum, not the pairwise np.sum), so every sum is the one
        a loop over the replicates gives."""
        delta = z == _DELTA_CODE
        zero = z == 0
        counts = self.counts
        counts["delta"] += int(np.count_nonzero(delta))
        counts["zero"] += int(np.count_nonzero(zero))
        counts["survival"] += int(z.size - np.count_nonzero(delta | zero))
        if not z.size:
            return
        values, inverse = np.unique(z, return_inverse=True)
        values = values.tolist()
        for k, s in enumerate(job.s_grid):
            x = np.array([0.0 if v == _DELTA_CODE else s ** v
                          for v in values])[inverse]
            self.pgf_sum[k] = float(np.cumsum(np.append(self.pgf_sum[k],
                                                        x))[-1])
            self.pgf_sq[k] = float(np.cumsum(np.append(self.pgf_sq[k],
                                                       x * x))[-1])
        if job.scaling is not None:
            scaled = [None if v == _DELTA_CODE
                      else job.scaling.scaled_sample(v, job.cc.A)
                      for v in values]
            self.scaled.extend(w for w in map(scaled.__getitem__,
                                              inverse.tolist())
                               if w is not None)

    def merge(self, other: "_Tally") -> None:
        self.counts.update(other.counts)
        self.errors.update(other.errors)
        self.pgf_sum = [a + b for a, b in zip(self.pgf_sum, other.pgf_sum)]
        self.pgf_sq = [a + b for a, b in zip(self.pgf_sq, other.pgf_sq)]
        self.scaled.extend(other.scaled)


def _run_chunk(job: _Job, start: int, count: int,
               samplers: Optional[_SamplerTable] = None) -> _Tally:
    if samplers is None:           # a pool task builds its own table
        samplers = _SamplerTable(job.model, job.max_cutoff, job.horizon)
    tally = _Tally(len(job.s_grid))
    if job.mode == "direct":
        u = _philox_uniforms(np.full(count, job.base_seed & _MASK64,
                                     dtype=np.uint64),
                             np.arange(start, start + count, dtype=np.uint64))
        z = samplers.get(job.horizon, population=True).place(
            u, cutoff_code=_CUTOFF_CODE)
    else:
        z = np.empty(count, dtype=np.int64)
        streams = _replicate_streams(job.base_seed,
                                     range(start, start + count))
        for j, rng in enumerate(streams):
            try:
                states, truncated = _simulate_states(
                    samplers, job.horizon, rng, job.population_cap)
            except CutoffExceeded:
                z[j] = _CUTOFF_CODE
                continue
            tally.counts["truncated"] += truncated
            last = states[-1]
            z[j] = _DELTA_CODE if last == DELTA else last
    failed = z == _CUTOFF_CODE
    if failed.any():
        tally.errors["CutoffExceeded"] += int(np.count_nonzero(failed))
        z = z[~failed]
    tally.add(z, job)
    return tally


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
    workers.  The chunks run in this process share one sampler table; each
    pool task builds its own."""
    if replicates < 1:
        raise DomainError("replicates must be >= 1")
    if workers < 1:
        raise DomainError("workers must be >= 1")
    if mode not in ("generational", "direct"):
        raise DomainError(f"unknown mode {mode!r}")
    cc = composite_constants(model, horizon) if scaling is not None else None
    job = _Job(model, horizon, mode, base_seed, tuple(s_grid), scaling, cc,
               population_cap, max_cutoff)
    starts = range(0, replicates, CHUNK)
    sizes = [min(CHUNK, replicates - start) for start in starts]
    if workers > 1 and len(starts) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, repeat(job), starts, sizes))
    else:
        samplers = _SamplerTable(model, max_cutoff, horizon)
        results = [_run_chunk(job, start, size, samplers)
                   for start, size in zip(starts, sizes)]
    total = _Tally(len(job.s_grid))
    for res in results:            # fixed chunk order: deterministic reduce
        total.merge(res)
    counts = total.counts
    n_ok = counts["zero"] + counts["delta"] + counts["survival"]

    def freq(count):
        p = count / n_ok if n_ok else 0.0
        se = math.sqrt(p * (1.0 - p) / n_ok) if n_ok else 0.0
        return (p, se)

    pgf = []
    for i, s in enumerate(job.s_grid):
        if n_ok:
            mean = total.pgf_sum[i] / n_ok
            var = max(0.0, total.pgf_sq[i] / n_ok - mean * mean)
            pgf.append((s, mean, math.sqrt(var / n_ok)))
        else:
            pgf.append((s, 0.0, 0.0))
    return EnsembleStats(
        replicates=replicates, horizon=horizon, mode=mode,
        base_seed=base_seed, zero_freq=freq(counts["zero"]),
        delta_freq=freq(counts["delta"]),
        survival_freq=freq(counts["survival"]), empirical_pgf=tuple(pgf),
        scaled_samples=(np.array(total.scaled) if scaling is not None
                        else None),
        error_counts=dict(total.errors), truncated_count=counts["truncated"])
