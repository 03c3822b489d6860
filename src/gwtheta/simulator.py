"""Seeded Monte Carlo for theta-processes: trajectories, direct sampling of
Z_n from its composite law, and parallel ensemble statistics.

Reproducibility contract: every replicate owns a counter-based RNG stream
keyed by (base_seed, replicate_index), so results are bit-identical for any
worker count and for reruns with the same seed.  A draw depends on the law,
the cutoff budget and the uniform alone, so calls share their samplers.
replicate_rng defines the stream.  _philox_blocks computes any block of it
for a whole array of keys, the Philox4x64-10 block numpy's Philox computes,
bit for bit (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11), so a stream can be read at any position without replaying it.

Direct draws of Z_n take one uniform each, so a direct-mode chunk and a
sample_zn call draw all their replicates at once: one kernel call and one
search of the cumulative table.  A chunk of either mode returns only its
replicates' outcome codes (a count, DELTA or a draw beyond the cutoff
budget each), and run_ensemble reduces those of all chunks in one place,
in chunk order.  Every sampler's table, of F_n as of f_n, starts at the
first cutoff and grows only as far as the uniforms reach.

Generational replicates run in lockstep (_lockstep): the replicates of a
chunk, or the paths of a simulate_trajectories call, advance one
generation at a time.  Each keeps its stream offset and a prefetched
segment of its stream (_Streams); a generation, one draw per replicate
included, makes one gather, one place on its step sampler and one
np.add.reduceat, in batches of BATCH draws per replicate and steps of at
most SLAB uniforms.  DELTA, zero, truncation and draws beyond the cutoff
budget retire a replicate, each with the outcome a loop over its batches
gives.  Refills are sized by the demand the step law predicts (_Streams),
within PREFETCH uniforms ahead over all streams; as any position of a
stream can be read, no refill schedule moves a draw.

Step samplers are built STEP_BLOCK generations at a time, capped at the
horizon, on the first miss.  A block reads its (a_n, c_n) in one
model.steps call and is finished as arrays: series._first_pmfs builds
its laws as one 2-d array to the first cutoff, and only that far, and
their cumulative tables come from one cumsum over their rows, so a block
of 64 laws costs about twice one of 8, heavy tails included.  Each is the
sampler its law gives alone, so this changes no draw, and a law that
fails lazy validation, or has a non-finite weight, still raises only when
a path reaches it.  A table is kept for each model and budget
(_kept_table) in a memo.Memo, counting 65 weights a sampler, so calls
that interleave a few models build each one's samplers once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .analytics import (LimitLawDescriptor, _index, composite_constants,
                        composite_law)
from .environment import ThetaLaw, ThetaModel
from .errors import CutoffExceeded, DomainError, GwThetaError
from .memo import Memo
# step_pmf is re-exported from here
from .series import (DEFAULT_MAX_CUTOFF, Pmf, _first_pmfs,  # noqa: F401
                     extend_pmf, step_pmf)

DELTA = "delta"                  # absorbing symbol
_DELTA_CODE = -1                 # internal integer encoding
_CUTOFF_CODE = -2                # a draw that raised CutoffExceeded
_FAILED_CODE = -3                # a step sampler that could not be built
POPULATION_CAP = 10 ** 9
BATCH = 10 ** 4                  # a replicate's draws between cap checks
SLAB = 2 ** 17                   # max uniforms gathered in a step, >= BATCH
FIRST_SEGMENT = 4                # uniforms first fetched per stream
PREFETCH = 2 ** 17               # most uniforms fetched ahead, all streams
CHUNK = 4096                     # replicates per reduction chunk
STEP_BLOCK = 64                  # step samplers in one batched pass
DEFAULT_S_GRID = tuple(j / 10.0 for j in range(11))

_MASK64 = (1 << 64) - 1


def replicate_rng(base_seed: int, replicate_index: int) -> np.random.Generator:
    """Counter-based stream keyed by (base_seed, replicate_index): block 0
    of _replicate_streams, the one writer of the Philox state."""
    key = (_index(base_seed, "base_seed"),
           _index(replicate_index, "replicate_index"))
    return next(_replicate_streams([key], [0]))


def _replicate_streams(keys, blocks):
    """Yield, for each key (k0, k1) and block b, a generator positioned at
    block b of the replicate_rng(k0, k1) stream: its next double is uniform
    4b of the stream.  One Philox is re-keyed in place (numpy bumps the
    counter before each block, so the counter is set to b) instead of
    constructing a generator per stream; each one is valid only until the
    next is drawn.  The Philox is seeded with 0 before it is re-keyed: built
    with a key alone it would first draw OS entropy for a seed that the key
    overrides."""
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    zero = (0, 0, 0, 0)
    for (k0, k1), b in zip(keys, blocks):
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": (b, 0, 0, 0),
                                  "key": (k0 & _MASK64, k1 & _MASK64)},
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
    lh, hl = x_hi * m_lo, x_lo * m_hi
    mid = x_lo
    mid *= m_lo
    mid >>= _S32
    mid += lh & _LO32
    mid += hl & _LO32
    hi = x_hi
    hi *= m_hi
    for part in (lh, hl, mid):
        part >>= _S32
        hi += part
    return hi, x * np.uint64(m)


def _philox_blocks(k0: np.ndarray, k1: np.ndarray,
                   blocks: np.ndarray) -> np.ndarray:
    """Block blocks[j] of each stream replicate_rng(k0[j], k1[j]) for uint64
    arrays: row j holds its uniforms 4b .. 4b + 3.  This is Philox4x64-10 at
    counter (b + 1, 0, 0, 0), as numpy bumps the counter before each block,
    with each word read as a double."""
    k0, k1 = k0.copy(), k1.copy()
    c0 = blocks + np.uint64(1)
    c1 = c2 = c3 = np.zeros_like(k0)
    for rnd in range(10):
        if rnd:
            k0 += np.uint64(_PHILOX_W[0])
            k1 += np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    out = np.empty((k0.size, 4))
    for lane, c in enumerate((c0, c1, c2, c3)):
        c >>= _S11
        out[:, lane] = c
    out *= 2.0 ** -53
    return out


def _philox_uniforms(k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """replicate_rng(k0[j], k1[j]).random() for uint64 key arrays k0, k1."""
    return _philox_blocks(k0, k1, np.zeros_like(k0))[:, 0]


def _keys(values) -> np.ndarray:
    """Integers as the uint64 words of Philox keys (two's complement)."""
    return np.array([_index(v, "seed") & _MASK64 for v in values],
                    dtype=np.uint64)


class _Streams:
    """Prefetched segments of the streams replicate_rng(k0[i], k1[i]) of
    the live replicates ids.

    Live replicate j (the one at ids[j]) has read pos[j] uniforms of its
    stream, and uniform p, for p < hi[j] and p at least the block that held
    pos[j] when it was last fetched, sits at buf[off[j] + p].  Every stream
    is first fetched by FIRST_SEGMENT uniforms, all in one wave.  A take
    past hi[j] starts a wave of refills, sized by demand: a replicate is
    predicted to want k·later more uniforms after its k now, and those wants
    are scaled down together when they add up to more than PREFETCH.  The
    wave refetches, from the block that holds pos[j], every live replicate
    that holds less than half its want, short or not, so that a replicate
    that keeps to its prediction refills O(1) times and the waves are few.
    A wave is one call of the array kernel when it is many short segments,
    else one re-keyed Philox per segment: the kernel costs about 0.3 ms a
    call and 0.2 us a block, a re-keyed Philox about 2.5 us a segment.
    Segments go at the top of one flat buffer; when it is full, the unread
    uniforms of the live replicates are moved to its front, into a buffer
    twice as large when that leaves less than half of it free.  Nothing is
    concatenated, and the pages of a new buffer past its top are not
    touched until used."""

    def __init__(self, k0: np.ndarray, k1: np.ndarray):
        self.k0, self.k1 = k0, k1
        self.ids = np.arange(k0.size)
        self.pos, self.hi, self.off = (np.zeros(k0.size, dtype=np.int64)
                                       for _ in range(3))
        first = (FIRST_SEGMENT + 3) // 4
        self.buf = np.empty(4 * first * k0.size)
        self.top = 0
        if k0.size:
            self._fetch(self.ids, self.pos, np.full(k0.size, first))

    def take(self, k: np.ndarray, ends: np.ndarray,
             later: Callable[[], float]) -> np.ndarray:
        """The next k[j] uniforms of each live replicate j, one replicate
        after the other; ends is k.cumsum().  later() predicts how many
        draws one draw now begets in all the generations after this one."""
        end = self.pos + k
        if np.count_nonzero(end > self.hi):
            self._refill(k, end, later())
        first = self.off + self.pos
        self.pos = end
        return self.buf[np.repeat(first - ends + k, k) + np.arange(ends[-1])]

    def keep(self, mask: np.ndarray) -> None:
        """Keep the live replicates in mask; the others retire."""
        self.ids, self.pos, self.hi, self.off = (
            self.ids[mask], self.pos[mask], self.hi[mask], self.off[mask])

    def _refill(self, k: np.ndarray, end: np.ndarray, later: float) -> None:
        # capped first: a take may ask nothing of a replicate (k = 0)
        want = np.minimum(k * float(min(later, PREFETCH)), PREFETCH)
        total = float(want.sum())
        if total > PREFETCH:
            want *= PREFETCH / total
        want = want.astype(np.int64)
        rows = np.flatnonzero(end + want // 2 > self.hi)
        lo = self.pos[rows] // 4 * 4
        self._fetch(rows, lo, (end[rows] + want[rows] - lo + 3) // 4)

    def _fetch(self, rows: np.ndarray, lo: np.ndarray,
               blocks: np.ndarray) -> None:
        """Fetch blocks[i] blocks of the stream of live replicate rows[i],
        from its uniform lo[i], a multiple of 4."""
        self.hi[rows] = self.pos[rows]     # fetched again, so not kept
        size = 4 * int(blocks.sum())
        if self.top + size > self.buf.size:
            self._compact(size)
        at = self.top + 4 * (np.cumsum(blocks) - blocks)
        self.top += size
        ids = self.ids[rows]
        k0, k1 = self.k0[ids], self.k1[ids]
        if blocks.size > 128 and size < 64 * (blocks.size - 128):
            counters = (np.repeat(lo // 4 - (at - at[0]) // 4, blocks)
                        + np.arange(size // 4)).astype(np.uint64)
            self.buf[at[0]:self.top] = _philox_blocks(
                np.repeat(k0, blocks), np.repeat(k1, blocks),
                counters).ravel()
        else:
            streams = _replicate_streams(zip(k0.tolist(), k1.tolist()),
                                         (lo // 4).tolist())
            for rng, a, m in zip(streams, at.tolist(), blocks.tolist()):
                rng.random(out=self.buf[a:a + 4 * m])
        self.off[rows], self.hi[rows] = at - lo, lo + 4 * blocks

    def _compact(self, size: int) -> None:
        n = self.hi - self.pos
        ends = np.cumsum(n)
        top = int(ends[-1])
        unread = np.repeat(self.off + self.pos - ends + n, n) + np.arange(top)
        buf = self.buf
        if top + size > buf.size // 2:
            buf = np.empty(2 * (top + size))
        buf[:top] = self.buf[unread]
        self.buf, self.top, self.off = buf, top, ends - n - self.pos


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

    growth = math.inf            # the mean draw
    grown = False                # no table to grow

    def __init__(self, law: ThetaLaw):
        self.a = law.a
        self.p_zero = law.pgf(0.0)

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


class _PmfSampler:
    """Inverse-transform sampler over (weights, tail, defect).  Its table (64
    weights at first) doubles toward the budget, in one step a place call,
    when proper uniforms land past it.  A weight depends only on the
    law and its index, so a draw depends on the law and the budget alone."""

    def __init__(self, pmf: Pmf, max_cutoff: int,
                 cum: Optional[np.ndarray] = None):
        self.max_cutoff = max_cutoff
        self.grown = False       # past the first cutoff
        self._proper = 1.0 - pmf.defect_mass
        self._set_pmf(pmf, cum)

    def _set_pmf(self, pmf: Pmf, cum: Optional[np.ndarray] = None) -> None:
        # the running sum can round above 1 - defect; clamped there, every
        # u >= 1 - defect falls past the table, and so is DELTA, at any
        # cutoff.  cum, when given, is that table, computed with others
        self.pmf = pmf
        self._cum = (np.minimum(np.cumsum(pmf.weights), self._proper)
                     if cum is None else cum)

    @property
    def growth(self) -> float:
        """The mean draw within the table."""
        return self.pmf.mean_truncated()

    def beyond_budget(self) -> CutoffExceeded:
        """The error of a draw that the cutoff budget cannot resolve."""
        return CutoffExceeded(
            f"draw fell in unresolved tail mass beyond cutoff "
            f"{self.pmf.cutoff} (budget {self.max_cutoff})", partial=self.pmf)

    def place(self, u: np.ndarray, cutoff_code=None) -> np.ndarray:
        """The draws at the uniforms u: an index, or _DELTA_CODE for a u at
        or above the proper mass.  The proper u past the table are placed in
        one search, once the cutoff has doubled until the table holds the
        largest, its tail mass is 0 (where _build stops too) or the budget
        is met; each u still past it is cutoff_code, or CutoffExceeded."""
        out = self._cum.searchsorted(u, side="right").astype(np.int64,
                                                             copy=False)
        past = out > self.pmf.cutoff
        if past.any():
            v = u[past]
            proper = v < self._proper
            top = v.max(initial=-1.0, where=proper)
            while (top >= self._cum[-1] and self.pmf.tail_mass > 0.0
                   and self.pmf.cutoff < self.max_cutoff):
                self._set_pmf(extend_pmf(self.pmf, min(2 * self.pmf.cutoff,
                                                       self.max_cutoff)))
                self.grown = True
            found = np.where(proper, self._cum.searchsorted(v, side="right"),
                             _DELTA_CODE)
            beyond = found > self.pmf.cutoff
            if beyond.any():
                if cutoff_code is None:
                    raise self.beyond_budget()
                found[beyond] = cutoff_code
            out[past] = found
        return out


def _samplers(laws: list, max_cutoff: int) -> list:
    """The samplers of laws that share theta and r: the mixture sampler for
    theta = 0 and r = 1, else one _PmfSampler each from one batch build to
    the first cutoff (series._first_pmfs), where every table starts.  A
    sampler extends only when a draw lands in the tail, one law at a time,
    and places every uniform as one built to any tail_tol would."""
    if laws[0].theta == 0.0 and laws[0].r == 1.0:
        return [_MixtureHeavySampler(law) for law in laws]
    pmfs = _first_pmfs(laws, max_cutoff)
    # the cumulative tables in one cumsum over the rows: a row's running
    # sum is its own, element by element
    cum = np.cumsum([pmf.weights for pmf in pmfs], axis=1)
    proper = 1.0 - np.array([pmf.defect_mass for pmf in pmfs])
    np.minimum(cum, proper[:, None], out=cum)
    return [_PmfSampler(pmf, max_cutoff, row) for pmf, row in zip(pmfs, cum)]


def _sampler(model: ThetaModel, n: int, max_cutoff: int, population: bool):
    """Sampler of the one-step law f_n, or of the law F_n of Z_n when
    population is set."""
    law = composite_law(model, n) if population else model.step_law(n)
    return _samplers([law], max_cutoff)[0]


class _SamplerTable:
    """The samplers of a model and budget, each built on first use: f_n's
    in ``step`` and F_n's in ``population``, both keyed by n, each with 64
    weights at first, extended by the draws.  Draws do not depend on a
    sampler's history, so every chunk, path and call can share them.

    The first miss of a step sampler builds the samplers of the STEP_BLOCK
    generations from n on, capped at the horizon, in one _samplers call.
    Each is the sampler _sampler would build.  Generations are reached in
    order, so the layout is the same whichever paths reach them.  A block
    with a law that fails validation or a build that fails is left out
    whole, so _sampler builds its laws one by one, and a path, which cannot
    get past the failing generation, raises its error there."""

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
        model = self.model
        try:
            a, c = model.steps(n0, n1)
            log_d = (((1.0 - a) * model.log_r_minus_values(n0, c)).tolist()
                     if model.theta == 0.0 else repeat(None))
            laws = [ThetaLaw(model.theta, model.r, x, y, z)
                    for x, y, z in zip(a.tolist(), c.tolist(), log_d)]
            built = _samplers(laws, self.max_cutoff)
        except GwThetaError:
            return
        self.step.update(zip(range(n0, n1), built))


# (model, max_cutoff) -> its table, taken out while a call uses it
_kept = Memo()


@contextmanager
def _kept_table(model: ThetaModel, max_cutoff: int, horizon: int):
    """The sampler table of a call: the kept one of its model and budget, or
    a new one, set to the call's horizon and taken out while the call runs,
    so a concurrent call builds its own.  On return it keeps no sampler past
    its first cutoff (get rebuilds the dropped ones) and goes back, counting
    65 weights a sampler, unless it has none."""
    key = (model, max_cutoff)
    table = _kept.take(key) or _SamplerTable(model, max_cutoff, horizon)
    table.horizon = horizon
    try:
        yield table
    finally:
        for built in (table.step, table.population):
            for n in [n for n, s in built.items() if s.grown]:
                del built[n]
        samplers = len(table.step) + len(table.population)
        if samplers:
            _kept.put(key, table, 65 * samplers)


def sample_offspring(pmf: Pmf, rng: np.random.Generator,
                     max_cutoff: int = DEFAULT_MAX_CUTOFF):
    """One inverse-transform draw from a Pmf: count, or DELTA."""
    value = int(_PmfSampler(pmf, max_cutoff).place(rng.random(1))[0])
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


def _later(m: float, left: int) -> float:
    """m + m^2 + ... + m^left: the draws that one draw predicts over the
    next left generations when each draw is m on average."""
    if m == 1.0 or left == 0:
        return float(left)
    if m > 1.0 and left * math.log(m) > 700.0:
        return math.inf
    return m * (m ** left - 1.0) / (m - 1.0)


def _lockstep(samplers: _SamplerTable, horizon: int, k0: np.ndarray,
              k1: np.ndarray, population_cap: int, history: bool = False):
    """Run the replicates keyed (k0[j], k1[j]) from Z_0 = 1, all live ones
    one generation at a time.

    A generation that fits one step, one draw per replicate included, reads
    each live replicate's next z uniforms from its prefetched stream
    segment, places them all in one call on the step sampler and sums them
    per replicate with np.add.reduceat (_place_sums); larger generations go
    by _large_generation.  Within the batch it draws, a replicate's outcome
    is a draw beyond the cutoff budget (_CUTOFF_CODE), else a DELTA, else a
    total past the cap (truncated, at the cap).  Zero, DELTA, truncation
    and a cutoff retire a replicate; so does a step sampler that cannot be
    built, with _FAILED_CODE for the live ones.

    Returns (z, truncated, when, rows, error): the final states, the
    truncation mask, the generation at which each replicate retired (0 if
    it did not), the states after generations 0, 1, ... as arrays when
    history is set, and the error of the failed build or None."""
    cap = min(population_cap, np.iinfo(np.int64).max)
    ucap = np.uint64(cap)
    streams = _Streams(k0, k1)
    z = np.ones(k0.size, dtype=np.int64)
    truncated = np.zeros(k0.size, dtype=bool)
    when = np.zeros(k0.size, dtype=np.int64)
    rows = [z.copy()] if history else None
    live = z.copy()                    # the states of streams.ids
    for n in range(1, horizon + 1):
        if not live.size:
            break
        try:
            sampler = samplers.get(n)
        except GwThetaError as err:
            z[streams.ids], when[streams.ids] = _FAILED_CODE, n
            return z, truncated, when, rows, err
        ends = live.cumsum()
        draws = int(ends[-1])

        def later(sampler=sampler, left=horizon - n):
            # a line that survives draws at least once a generation
            return _later(max(sampler.growth, 1.0), left)
        if draws > SLAB or draws > BATCH and int(live.max()) > BATCH:
            total, lows = _large_generation(sampler, streams, live, cap,
                                            later)
        else:
            total, lows = _place_sums(sampler,
                                      streams.take(live, ends, later),
                                      ends - live)
        # out: zero or past the cap (as uint64, a negative code too), or a
        # negative code in the draws
        out = ((total - 1).view(np.uint64) >= ucap) | (lows < 0)
        if np.count_nonzero(out):
            ids, low, tot = streams.ids[out], lows[out], total[out]
            cut = (low >= 0) & (tot > cap)
            z[ids] = np.where(low < 0, low, np.where(cut, cap, tot))
            truncated[ids], when[ids] = cut, n
            streams.keep(~out)
            total = total[~out]
        live = total
        if history:
            z[streams.ids] = live
            rows.append(z.copy())
    z[streams.ids] = live
    return z, truncated, when, rows, None


def _place_sums(sampler, u: np.ndarray, starts: np.ndarray):
    """Place the uniforms u and reduce the draws of each segment u[starts[i]
    : starts[i + 1]]: (sums, lows), where lows[i] < 0 is _CUTOFF_CODE if a
    draw of the segment lies beyond the cutoff budget, else _DELTA_CODE if
    one is DELTA, as one draw of the whole segment would raise or absorb."""
    draws = sampler.place(u, cutoff_code=_CUTOFF_CODE)
    return np.add.reduceat(draws, starts), np.minimum.reduceat(draws, starts)


def _large_generation(sampler, streams: _Streams, live: np.ndarray,
                      cap: int, later: Callable[[], float]):
    """One generation that does not fit one step: (total, lows) per live
    replicate, as one step gives them, but each step gathers at most SLAB
    uniforms (or one batch) and a replicate's draws go in batches of BATCH.
    A replicate stops at the first batch that holds a negative code or
    takes its running total past the cap: total is its running total there
    and lows the lowest draw of that batch."""
    left = live.copy()
    total = np.zeros_like(live)
    lows = np.zeros_like(live)
    while np.count_nonzero(left):
        # whole batches while they fit; the first replicate left gets at
        # least one, as SLAB >= BATCH
        room = SLAB - (np.cumsum(left) - left)
        k = np.where(left <= room, left, np.maximum(room, 0) // BATCH * BATCH)
        go = np.flatnonzero(k)
        kg = k[go]
        # each replicate's batches are segments of the gathered uniforms,
        # first[i] the first of go[i]'s
        nb = (kg - 1) // BATCH + 1
        first = np.cumsum(nb) - nb
        starts = (np.repeat(np.cumsum(kg) - kg - BATCH * first, nb)
                  + BATCH * np.arange(int(nb.sum())))
        sums, mins = _place_sums(sampler,
                                 streams.take(k, np.cumsum(k), later),
                                 starts)
        run = np.cumsum(sums)
        run -= np.repeat(run[first] - sums[first] - total[go], nb)
        halt = (mins < 0) | (run > cap)
        seg = np.arange(halt.size)
        stop = np.minimum.reduceat(np.where(halt, seg, halt.size), first)
        hit = stop < halt.size
        at = np.where(hit, stop, first + nb - 1)
        total[go], lows[go] = run[at], mins[at]
        left[go] = np.where(hit, 0, left[go] - kg)
    return total, lows


def _count(x, name: str) -> int:
    """x as a Python int; DomainError unless it is an integer >= 1."""
    if not x >= 1:
        raise DomainError(f"{name} must be >= 1")
    return _index(x, name)


def simulate_trajectories(model: ThetaModel, horizon: int,
                          seeds: Iterable[int],
                          population_cap: int = POPULATION_CAP,
                          max_cutoff: int = DEFAULT_MAX_CUTOFF) -> list:
    """Generation-by-generation paths, one per seed, run in lockstep a chunk
    of seeds at a time over the kept sampler table; each path is
    deterministic in (model, horizon, seed), reading the stream keyed
    (seed, 0).  The first path to fail, in seed order, raises its error."""
    horizon = _count(horizon, "horizon")
    population_cap = _count(population_cap, "population_cap")
    max_cutoff = _index(max_cutoff, "max_cutoff")
    seeds = list(seeds)
    paths = []
    with _kept_table(model, max_cutoff, horizon) as samplers:
        for start in range(0, len(seeds), CHUNK):
            chunk = seeds[start:start + CHUNK]
            k0 = _keys(chunk)
            z, truncated, when, rows, error = _lockstep(
                samplers, horizon, k0, np.zeros_like(k0), population_cap,
                history=True)
            failed = np.flatnonzero(z < _DELTA_CODE)
            if failed.size:
                j = failed[0]
                if z[j] == _FAILED_CODE:
                    raise error
                raise samplers.get(int(when[j])).beyond_budget()
            pad = horizon + 1 - len(rows)
            for seed, states, last, cut, n in zip(
                    chunk, np.array(rows).T.tolist(), z.tolist(),
                    truncated.tolist(), when.tolist()):
                states += [last] * pad
                tau = n if last <= 0 else None
                if last == _DELTA_CODE:
                    states = [DELTA if s == _DELTA_CODE else s
                              for s in states]
                paths.append(Trajectory(
                    tuple(states), tau if last == 0 else None,
                    tau if last == _DELTA_CODE else None, tau, seed, cut))
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
    n, max_cutoff = _count(n, "n"), _index(max_cutoff, "max_cutoff")
    k0 = _keys(seeds)
    with _kept_table(model, max_cutoff, n) as samplers:
        values = samplers.get(n, population=True).place(
            _philox_uniforms(k0, np.zeros_like(k0))).tolist()
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
_Job = namedtuple("_Job", "model horizon mode base_seed population_cap "
                          "max_cutoff")


def _run_chunk(job: _Job, start: int, count: int,
               samplers: Optional[_SamplerTable] = None):
    """What replicates start .. start + count - 1 did: their outcome codes
    in replicate order (a count, _DELTA_CODE or _CUTOFF_CODE each) and how
    many were truncated at the population cap."""
    if samplers is None:           # a pool task builds its own table
        samplers = _SamplerTable(job.model, job.max_cutoff, job.horizon)
    k0 = np.full(count, job.base_seed & _MASK64, dtype=np.uint64)
    k1 = np.arange(start, start + count, dtype=np.uint64)
    if job.mode == "direct":
        return samplers.get(job.horizon, population=True).place(
            _philox_uniforms(k0, k1), cutoff_code=_CUTOFF_CODE), 0
    z, truncated, _, _, error = _lockstep(samplers, job.horizon, k0, k1,
                                          job.population_cap)
    if error is not None:
        raise error
    return z, int(np.count_nonzero(truncated))


def run_ensemble(model: ThetaModel, horizon: int, replicates: int,
                 base_seed: int, workers: int = 1,
                 mode: str = "generational",
                 scaling: Optional[LimitLawDescriptor] = None,
                 s_grid: Sequence[float] = DEFAULT_S_GRID,
                 population_cap: int = POPULATION_CAP,
                 max_cutoff: int = DEFAULT_MAX_CUTOFF) -> EnsembleStats:
    """Ensemble statistics over independent replicates.

    Replicates are split into fixed-size chunks by index.  A chunk returns
    its replicates' outcome codes, and all the statistics are one reduction
    over them, chunk by chunk in index order, so the result is bit-identical
    for any number of workers.  The chunks run in this process share the
    kept sampler table (_kept_table); each pool task builds its own."""
    base_seed = _index(base_seed, "base_seed")
    replicates = _count(replicates, "replicates")
    horizon = _count(horizon, "horizon")
    workers = _count(workers, "workers")
    population_cap = _count(population_cap, "population_cap")
    max_cutoff = _index(max_cutoff, "max_cutoff")
    if mode not in ("generational", "direct"):
        raise DomainError(f"unknown mode {mode!r}")
    s_grid = tuple(s_grid)
    for s in s_grid:
        if not 0.0 <= s <= 1.0:
            raise DomainError(f"s_grid entries must lie in [0, 1], got {s}")
    A = composite_constants(model, horizon).A if scaling is not None else None
    job = _Job(model, horizon, mode, base_seed, population_cap, max_cutoff)
    starts = range(0, replicates, CHUNK)
    sizes = [min(CHUNK, replicates - start) for start in starts]
    if workers > 1 and len(starts) > 1:
        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(workers,
                                                 len(starts))) as pool:
            results = list(pool.map(_run_chunk, repeat(job), starts, sizes))
    else:
        # run lazily: each chunk's codes are reduced before the next runs
        def here():
            with _kept_table(model, max_cutoff, horizon) as samplers:
                for start, size in zip(starts, sizes):
                    yield _run_chunk(job, start, size, samplers)
        results = here()
    # each distinct code of a chunk is mapped once, s ** v by Python's pow
    # and the scaled sample by the descriptor; a chunk's sums run left to
    # right (cumsum, not the pairwise np.sum), a code below 0 adding 0.0,
    # and the chunk sums add in chunk order, so every sum is the one a loop
    # over the replicates gives
    counts = dict.fromkeys((0, _DELTA_CODE, _CUTOFF_CODE), 0)
    truncated = 0
    pgf_sum, pgf_sq = [0.0] * len(s_grid), [0.0] * len(s_grid)
    scaled = []
    for z, cut in results:
        truncated += cut
        for v in counts:
            counts[v] += int(np.count_nonzero(z == v))
        values, inverse = np.unique(z, return_inverse=True)
        values = values.tolist()
        for k, s in enumerate(s_grid):
            x = np.array([s ** v if v >= 0 else 0.0 for v in values])[inverse]
            pgf_sum[k] += float(np.cumsum(x)[-1])
            pgf_sq[k] += float(np.cumsum(x * x)[-1])
        if scaling is not None:
            table = [scaling.scaled_sample(v, A) if v >= 0 else None
                     for v in values]
            scaled += [w for w in map(table.__getitem__, inverse.tolist())
                       if w is not None]
    n_ok = replicates - counts[_CUTOFF_CODE]

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
        base_seed=base_seed, zero_freq=freq(counts[0]),
        delta_freq=freq(counts[_DELTA_CODE]),
        survival_freq=freq(n_ok - counts[0] - counts[_DELTA_CODE]),
        empirical_pgf=tuple(pgf),
        scaled_samples=np.array(scaled) if scaling is not None else None,
        error_counts=({"CutoffExceeded": counts[_CUTOFF_CODE]}
                      if counts[_CUTOFF_CODE] else {}),
        truncated_count=truncated)
