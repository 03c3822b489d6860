"""Closed-form quantities for the composed process: composite constants,
composed generating functions, moments, absorption probabilities, numeric
limit estimation, convergence-condition diagnostics, and the limit-law
descriptors."""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .environment import ThetaLaw, ThetaModel
from .errors import (DomainError, GwThetaError, NoLimitLaw,
                     UndeterminedLimit)


# ---------------------------------------------------------------------------
# Composite constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositeConstants:
    """(A_n, C_n, D_n, B_n) at generation n.  D_n is carried in log-domain;
    log_D is None when some r - c_i <= 0, which validation admits only for
    theta != 0 (D is then not used).  B_n is +inf when A_n has underflowed
    to zero."""

    n: int
    A: float
    C: float
    log_D: Optional[float]
    B: float

    @property
    def D(self) -> Optional[float]:
        if self.log_D is None:
            return None
        return math.exp(self.log_D)

    def law(self, theta: float, r: float) -> ThetaLaw:
        """The n-step law F_n with these constants."""
        if theta == 0.0 and self.log_D is None:
            raise DomainError(f"log D_{self.n} undefined: r - c_k <= 0 for "
                              f"some k <= {self.n}")
        return ThetaLaw(theta, r, self.A, self.C, self.log_D)


_ORIGIN = CompositeConstants(0, 1.0, 0.0, 0.0, 0.0)

# generations per block of the constants scan: memory is O(_BLOCK) at any n
_BLOCK = 2 ** 14


class _Block(NamedTuple):
    """Generations n0 <= n < n0 + len(a) of the constants scan: the step
    parameters, ln(r - c_n) (NaN where r - c_n <= 0) and the composite
    constants.  log_D stops short at the first NaN of lg: D_n is undefined
    from there on."""

    n0: int
    a: np.ndarray
    c: np.ndarray
    lg: np.ndarray
    A: np.ndarray
    C: np.ndarray
    log_D: np.ndarray
    B: np.ndarray

    def at(self, n: int) -> CompositeConstants:
        i = n - self.n0
        log_D = float(self.log_D[i]) if i < self.log_D.size else None
        return CompositeConstants(n, float(self.A[i]), float(self.C[i]),
                                  log_D, float(self.B[i]))

    def picks(self, ns: Sequence[int]) -> Sequence[int]:
        """The generations of the sorted ns that fall in this block."""
        return ns[bisect_left(ns, self.n0):bisect_left(ns,
                                                       self.n0 + self.a.size)]

    def window(self, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The entries of x for lo <= n < hi that fall in this block."""
        return x[max(lo - self.n0, 0):max(hi - self.n0, 0)]


# the last walk that fit in one block, ((model, _BLOCK), block) or None
_last = None


def _blocks(model: ThetaModel, up_to: int):
    """Yield the constants for n = 1..up_to in blocks of _BLOCK generations.

    A_n = A_{n-1} a_n, C_n = C_{n-1} + A_{n-1} c_n and
    ln D_n = ln D_{n-1} + (A_{n-1} - A_n) ln(r - c_n) are prefix products and
    sums.  Each block prepends the running values of the last one, and
    cumprod/cumsum accumulate left to right, so every entry equals the
    one-generation-at-a-time recursion bit for bit.

    A walk that fits in one block is kept, read-only, in place of the last
    one: a later walk of an equal model to no greater up_to yields a prefix
    of it, which is the block that walk would compute."""
    global _last
    last = _last
    if (last is not None and 1 <= up_to <= last[1].a.size
            and last[0] == (model, _BLOCK)):
        yield _Block(1, *(x[:up_to] for x in last[1][1:]))
        return
    A_end, C_end, log_D_end = 1.0, 0.0, 0.0
    for n0 in range(1, up_to + 1, _BLOCK):
        a, c = model.steps(n0, min(n0 + _BLOCK, up_to + 1))
        lg = model.log_r_minus_values(n0, c)
        # overflow to inf and inf - inf = NaN behave as in float arithmetic
        with np.errstate(all="ignore"):
            A = np.cumprod(np.concatenate(([A_end], a)))
            C = np.cumsum(np.concatenate(([C_end], A[:-1] * c)))[1:]
            if log_D_end is None:
                log_D = lg[:0]
            else:
                dead = np.flatnonzero(np.isnan(lg))
                cut = dead[0] if dead.size else lg.size
                log_D = np.cumsum(np.concatenate((
                    [log_D_end], (A[:-1] - A[1:])[:cut] * lg[:cut])))[1:]
            A = A[1:]
            B = np.divide(C, A, out=np.full(A.size, math.inf), where=A > 0.0)
        A_end, C_end = A[-1], C[-1]
        log_D_end = log_D[-1] if log_D.size == a.size else None
        blk = _Block(n0, a, c, lg, A, C, log_D, B)
        if up_to <= _BLOCK:
            for x in blk[1:]:
                x.flags.writeable = False
            _last = ((model, _BLOCK), blk)
        yield blk


def _index(n, name: str = "generation index") -> int:
    """n as a Python int; DomainError unless it is an integer."""
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {n!r}") from None


def constants_iter(model: ThetaModel, up_to: int):
    """Yield CompositeConstants for n = 0, 1, ..., up_to in one O(n) pass.
    An invalid index raises before the entries of its block are yielded."""
    if _index(up_to) < 0:
        raise DomainError(f"up_to must be >= 0, got {up_to}")
    yield _ORIGIN
    for blk in _blocks(model, up_to):
        for n in range(blk.n0, blk.n0 + blk.a.size):
            yield blk.at(n)


def composite_constants(model: ThetaModel, n: int) -> CompositeConstants:
    """Exact recursion values at generation n >= 0."""
    n = _index(n)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    return constants_at(model, [n])[n]


def composite_law(model: ThetaModel, n: int) -> ThetaLaw:
    """The law of Z_n, F_n = f_1 o ... o f_n, at generation n >= 0."""
    return composite_constants(model, n).law(model.theta, model.r)


def constants_at(model: ThetaModel, ns: Iterable[int]) -> dict:
    """Constants at several indices in a single pass."""
    wanted = sorted(set(_index(n) for n in ns))
    if wanted and wanted[0] < 0:
        raise DomainError("indices must be >= 0")
    out = {0: _ORIGIN} if wanted and wanted[0] == 0 else {}
    for blk in _blocks(model, wanted[-1] if wanted else 0):
        for n in blk.picks(wanted):
            out[n] = blk.at(n)
    return out


# ---------------------------------------------------------------------------
# Composed generating function and derived probabilities
# ---------------------------------------------------------------------------

def pgf_from_constants(theta: float, r: float, cc: CompositeConstants,
                       s: float) -> float:
    """F_n(s) from composite constants."""
    return cc.law(theta, r).pgf(s)


def composed_pgf(model: ThetaModel, n: int, s: float) -> float:
    """F_n(s) = f_1 o ... o f_n (s) via the closed form."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return composite_law(model, n).pgf(s)


@dataclass(frozen=True)
class SurvivalMoments:
    p_alive: float
    p_zero: float
    p_delta: float
    mean_restricted: float      # E(Z_n; tau_Delta > n) = F_n'(1), +inf allowed
    mean_conditional: float     # E(Z_n | tau > n)


def survival_and_moments(model: ThetaModel, n: int) -> SurvivalMoments:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    law = composite_law(model, n)
    p_zero = law.pgf(0.0)
    p_one = law.pgf(1.0)
    p_delta = max(0.0, 1.0 - p_one)
    p_alive = max(0.0, p_one - p_zero)
    mean = law.restricted_mean()
    if math.isinf(mean):
        mean_cond = math.inf
    elif p_alive > 0.0:
        mean_cond = mean / p_alive
    else:
        mean_cond = math.inf
    return SurvivalMoments(p_alive, p_zero, p_delta, mean, mean_cond)


def conditional_pgf(model: ThetaModel, n: int, s: float) -> float:
    """E(s^{Z_n} | tau > n) = (F_n(s) - F_n(0)) / (F_n(1) - F_n(0))."""
    return composite_law(model, n).conditional_pgf(s)


# ---------------------------------------------------------------------------
# Limit constants (numeric detection with evidence)
# ---------------------------------------------------------------------------

DETERMINED = "determined"
INFINITE = "infinite"
OSCILLATING = "oscillating"
UNDETERMINED = "undetermined"
# the fewest generations the tail diagnostics and convergence sums accept
MIN_HORIZON = 10


@dataclass(frozen=True)
class LimitEstimate:
    status: str
    value: Optional[float]
    rule: str

    @property
    def is_determined(self) -> bool:
        return self.status == DETERMINED

    @property
    def is_infinite(self) -> bool:
        return self.status == INFINITE

    def finite_value(self, name: str) -> float:
        if self.status != DETERMINED:
            raise UndeterminedLimit(
                f"limit {name} is {self.status} (rule: {self.rule})")
        return self.value

    def to_dict(self) -> dict:
        return {"status": self.status, "value": self.value, "rule": self.rule}


@dataclass(frozen=True)
class LimitConstants:
    A: LimitEstimate
    C: LimitEstimate
    D: LimitEstimate
    B: LimitEstimate
    horizon_used: int
    evidence: dict

    def to_dict(self) -> dict:
        return {"A": self.A.to_dict(), "C": self.C.to_dict(),
                "D": self.D.to_dict(), "B": self.B.to_dict(),
                "horizon_used": self.horizon_used, "evidence": self.evidence}

    def law(self, theta: float, r: float) -> ThetaLaw:
        """The theta-family law at the limit constants: (A, C) for
        theta != 0, (A, ln D) for theta = 0.  Only the limits that law uses
        are read, A first; an undetermined one raises UndeterminedLimit."""
        A = self.A.finite_value("A")
        if theta != 0.0:
            return ThetaLaw(theta, r, A, self.C.finite_value("C"), None)
        D = self.D.finite_value("D")
        log_d = math.log(D) if D > 0.0 else -math.inf
        return ThetaLaw(theta, r, A, 0.0, log_d)


def _log_doubling_diffs(cks: Sequence[float]):
    """Doubling-window log increments; None if any value is nonpositive."""
    if any(x <= 0.0 for x in cks):
        return None
    logs = [math.log(x) for x in cks]
    return [logs[i + 1] - logs[i] for i in range(len(logs) - 1)]


def _extrapolate(x_half: float, x_3q: float, x_full: float):
    """Geometric extrapolation of quarter-window increments; None if the
    increments are not decaying consistently."""
    d2 = x_3q - x_half
    d3 = x_full - x_3q
    if d2 == 0.0 and d3 == 0.0:
        return x_full
    if d2 == 0.0 or (d3 > 0) != (d2 > 0):
        return None
    rho = abs(d3) / abs(d2)
    if rho > 0.95:
        return None
    return x_full + d3 * rho / (1.0 - rho)


def _detect_positive_limit(cks: Sequence[float], tol: float,
                           win_gap: float) -> LimitEstimate:
    """Limit detection for a positive sequence from checkpoint values at
    N/8, N/4, N/2, 3N/4, N and the max-min gap over (N/2, N]."""
    x8, x4, x2, x3q, xN = cks
    # stabilization: tail increments below tol and no window spread,
    # relative to xN, so that a slow decay to 0 does not pass for a limit
    scale = max(abs(xN), tol ** 2)
    if (abs(xN - x2) <= tol * scale and abs(xN - x3q) <= tol * scale
            and win_gap <= 10.0 * tol * scale):
        return LimitEstimate(DETERMINED, xN, "stabilized")
    if xN > 1.0 / tol and xN >= x2 >= x4:
        return LimitEstimate(INFINITE, None, "exceeded 1/tol while growing")
    dbl = _log_doubling_diffs([x8, x4, x2, xN])
    if dbl is not None:
        d_a, d_b = dbl[-2], dbl[-1]
        if d_b > 0.05 and d_a > 0.05 and d_b >= 0.8 * d_a:
            return LimitEstimate(INFINITE, None,
                                 "log increments not decaying (growth)")
        if d_b < -0.05 and d_a < -0.05 and d_b <= 0.8 * d_a and xN < 0.1:
            return LimitEstimate(DETERMINED, 0.0,
                                 "log increments not decaying (decay to 0)")
    # trend-dominated convergence: window spread explained by the trend
    if win_gap <= 3.0 * abs(xN - x2) + 10.0 * tol:
        est = _extrapolate(x2, x3q, xN)
        if est is not None:
            return LimitEstimate(DETERMINED, max(est, 0.0),
                                 "geometric extrapolation of increments")
    return LimitEstimate(UNDETERMINED, None, "no rule fired")


def _fold_min_max(acc, x: np.ndarray):
    """acc = (min, max) extended by x in np.fmin and np.fmax folds, which
    pass over NaN; acc is None before the first value."""
    lo, hi = acc or (math.nan, math.nan)
    return (np.fmin.reduce(x, initial=lo).item(),
            np.fmax.reduce(x, initial=hi).item())


def _detect_log_limit(cks: Sequence[float], tol: float) -> LimitEstimate:
    """Limit detection for a sequence carried in log domain (used for D).
    Returns the limit of exp(x)."""
    x8, x4, x2, x3q, xN = cks
    if abs(xN - x2) <= tol and abs(xN - x3q) <= tol:
        return LimitEstimate(DETERMINED, math.exp(xN), "stabilized (log)")
    d_a, d_b = x2 - x4, xN - x2
    if d_b < -0.05 and d_a < -0.05 and d_b <= 0.8 * d_a:
        return LimitEstimate(DETERMINED, 0.0,
                             "log diverging to -inf (decay to 0)")
    if d_b > 0.05 and d_a > 0.05 and d_b >= 0.8 * d_a:
        return LimitEstimate(INFINITE, None, "log diverging to +inf")
    est = _extrapolate(x2, x3q, xN)
    if est is not None:
        return LimitEstimate(DETERMINED, math.exp(est),
                             "geometric extrapolation (log)")
    return LimitEstimate(UNDETERMINED, None, "no rule fired")


def _detect_B_limit(cks: Sequence[float], tol: float, win1: tuple,
                    win2: tuple) -> LimitEstimate:
    """B_n = C_n / A_n with an oscillation marker.  win1/win2 are (min, max)
    over (N/4, N/2] and (N/2, N]."""
    x8, x4, x2, x3q, xN = cks
    min1, max1 = win1
    min2, max2 = win2
    if min2 > max(100.0, 1.8 * min1) or min2 > 1.0 / tol:
        return LimitEstimate(INFINITE, None, "window liminf diverging")
    gap2 = max2 - min2
    if (abs(xN - x2) <= tol and abs(xN - x3q) <= tol
            and gap2 <= 10.0 * tol):
        return LimitEstimate(DETERMINED, xN, "stabilized")
    if gap2 <= max(10.0 * tol, 1e-3 * max(1.0, abs(xN))):
        est = _extrapolate(x2, x3q, xN)
        return LimitEstimate(DETERMINED,
                             max(est if est is not None else xN, 0.0),
                             "near-constant window")
    if max2 > 5.0 * min2 + 10.0 * tol:
        return LimitEstimate(
            OSCILLATING, None,
            f"window liminf/limsup gap [{min2:.6g}, {max2:.6g}]")
    if gap2 <= 3.0 * abs(xN - x2) + 10.0 * tol:
        est = _extrapolate(x2, x3q, xN)
        if est is not None:
            return LimitEstimate(DETERMINED, max(est, 0.0),
                                 "geometric extrapolation of increments")
    return LimitEstimate(UNDETERMINED, None, "no rule fired")


def _check_finite(cc: CompositeConstants) -> None:
    """GwThetaError if A_n or C_n of cc has overflowed."""
    if not (math.isfinite(cc.A) and math.isfinite(cc.C)):
        raise GwThetaError(f"composite constants overflow at n = {cc.n}: "
                           f"A_n = {cc.A}, C_n = {cc.C}")


def limit_constants(model: ThetaModel, horizon: int,
                    tol: float = 1e-6) -> LimitConstants:
    """Estimate the limits of A_n, C_n, D_n, B_n by tail diagnostics over a
    finite horizon.  Never guesses: returns 'undetermined' (or 'oscillating'
    for B) with evidence attached when no rule fires.  GwThetaError names
    the first checkpoint whose A_n or C_n has overflowed."""
    horizon = _index(horizon)
    if horizon < MIN_HORIZON:
        raise DomainError(f"horizon must be >= {MIN_HORIZON}")
    if not tol > 0.0:
        raise DomainError("tol must be > 0")
    half, quarter = horizon // 2, horizon // 4
    order = [horizon // 8, quarter, half, 3 * horizon // 4, horizon]
    ck = {}
    a_win = b_win1 = b_win2 = None
    for blk in _blocks(model, horizon):
        for n in blk.picks(order):
            ck[n] = blk.at(n)
        b_win1 = _fold_min_max(b_win1, blk.window(blk.B, quarter + 1,
                                                  half + 1))
        a_win = _fold_min_max(a_win, blk.window(blk.A, half + 1, horizon + 1))
        b_win2 = _fold_min_max(b_win2, blk.window(blk.B, half + 1,
                                                  horizon + 1))
    a_min2, a_max2 = a_win
    b_min1, b_max1 = b_win1
    b_min2, b_max2 = b_win2
    ccs = [ck[n] for n in order]
    for cc in ccs:
        _check_finite(cc)

    A_est = _detect_positive_limit([c.A for c in ccs], tol, a_max2 - a_min2)
    # C_n is nondecreasing: its limit can never be oscillating
    C_est = _detect_positive_limit([c.C for c in ccs], tol,
                                   ccs[-1].C - ck[half].C)
    if all(c.log_D is not None for c in ccs):
        D_est = _detect_log_limit([c.log_D for c in ccs], tol)
    else:
        D_est = LimitEstimate(UNDETERMINED, None, "log D not defined")
    B_est = _detect_B_limit([c.B for c in ccs], tol,
                            (b_min1, b_max1), (b_min2, b_max2))

    evidence = {
        "checkpoints": {str(c.n): {"A": c.A, "C": c.C, "B": c.B,
                                   "log_D": c.log_D} for c in ccs},
        "A_window": {"min": a_min2, "max": a_max2},
        "B_window_first": {"min": b_min1, "max": b_max1},
        "B_window_second": {"min": b_min2, "max": b_max2},
    }
    return LimitConstants(A_est, C_est, D_est, B_est, horizon, evidence)


def subsequence_b_values(model: ThetaModel,
                         indices: Sequence[int]) -> list[float]:
    """B_{k_n} along an explicit subsequence (for the oscillating regime)."""
    cs = constants_at(model, indices)
    return [cs[int(k)].B for k in indices]


# ---------------------------------------------------------------------------
# Absorption probabilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsorptionProbabilities:
    q: float
    q_delta: float

    @property
    def Q(self) -> float:
        return self.q + self.q_delta

    def to_dict(self) -> dict:
        return {"q": self.q, "q_delta": self.q_delta, "Q": self.Q}


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def absorption_probabilities(model: ThetaModel,
                             limits: LimitConstants) -> AbsorptionProbabilities:
    """(q, q_Delta, Q) = (g(0), 1 - g(1), g(0) + 1 - g(1)) of the law g at
    the limit constants."""
    theta, r, case = model.theta, model.r, model.case_label
    if case == "a":
        # extinction is certain when C or A is infinite; C is read first
        if limits.C.is_infinite:
            return AbsorptionProbabilities(1.0, 0.0)
        limits.C.finite_value("C")
        if limits.A.is_infinite:
            return AbsorptionProbabilities(1.0, 0.0)
    if case == "e":
        # D may be 0, and the A -> 0 limit law is degenerate at s = 1
        D = limits.D.finite_value("D")
        return AbsorptionProbabilities(_clamp01(1.0 - D), 0.0)
    law = limits.law(theta, r)
    return AbsorptionProbabilities(_clamp01(law.pgf(0.0)),
                                   _clamp01(1.0 - law.pgf(1.0)))


# ---------------------------------------------------------------------------
# Regimes
# ---------------------------------------------------------------------------

SUPERCRITICAL = "supercritical"
ASYMPTOTICALLY_DEGENERATE = "asymptotically_degenerate"
CRITICAL = "critical"
STRICTLY_SUBCRITICAL = "strictly_subcritical"
LOOSELY_SUBCRITICAL = "loosely_subcritical"
INFINITE_MEAN = "infinite_mean"
DEFECTIVE = "defective"
UNDETERMINED_REGIME = "undetermined"

_ZERO_LIMIT = 1e-9  # determined limit values at or below this count as zero


def _is_zero(est: LimitEstimate) -> bool:
    return est.is_determined and est.value <= _ZERO_LIMIT


def regime(case: str, limits: LimitConstants) -> tuple:
    """(regime, basis, sub_label) of the limits in parameter row `case`: the
    quinary regime in row (a), the infinite-mean sub-labels i-iv in row (e)
    and the defective sub-labels A=0 and A>0 in the other rows.  Never
    guesses: a limit the row needs that is not determined gives the
    undetermined regime, and the basis names it."""
    A, C, D, B = limits.A, limits.C, limits.D, limits.B
    if case == "a":
        if C.is_determined:
            if _is_zero(A):
                return SUPERCRITICAL, "C < inf and A_n -> 0", None
            if A.is_determined:
                return (ASYMPTOTICALLY_DEGENERATE,
                        "C < inf and A_n -> A in (0, inf)", None)
            if A.is_infinite:
                return STRICTLY_SUBCRITICAL, "C < inf and A_n -> inf", None
            return (UNDETERMINED_REGIME, "C < inf but limit A undetermined",
                    None)
        if C.is_infinite:
            if B.is_infinite:
                return CRITICAL, "C = inf and B_n -> inf", None
            if B.is_determined:
                return STRICTLY_SUBCRITICAL, "C = inf and B_n -> B < inf", None
            if B.status == OSCILLATING:
                return (LOOSELY_SUBCRITICAL, "C = inf and lim B_n does not "
                        f"exist ({B.rule})", None)
            return (UNDETERMINED_REGIME, "C = inf but limit B undetermined",
                    None)
        return UNDETERMINED_REGIME, "limit C undetermined", None
    if case == "e":
        if not (A.is_determined and D.is_determined):
            return UNDETERMINED_REGIME, "limit A or D undetermined", None
        a_zero, d_zero = _is_zero(A), _is_zero(D)
        sub = {(True, True): "i", (True, False): "ii",
               (False, True): "iii", (False, False): "iv"}[(a_zero, d_zero)]
        return (INFINITE_MEAN, f"A {'= 0' if a_zero else '> 0'} and "
                f"D {'= 0' if d_zero else '> 0'}", sub)
    # defective rows (b), (c), (d), (f); row (f) has theta = 0, so D for C
    if not (A.is_determined and (D if case == "f" else C).is_determined):
        return (UNDETERMINED_REGIME,
                "required defective-case limits undetermined", None)
    sub = "A=0" if _is_zero(A) else "A>0"
    return DEFECTIVE, f"case ({case}) defective with {sub}", sub


# ---------------------------------------------------------------------------
# Limit-law descriptors
# ---------------------------------------------------------------------------

LAPLACE = "laplace_transform"
PGF = "pgf"
CDF = "cdf"

_TIMES_A_POWER = "multiply Z_n by A_n^(1/theta)"
_LN_TIMES_A = "multiply ln Z_n by A_n"


@dataclass(frozen=True)
class LimitLawDescriptor:
    """A limit law: its transform kind, parameters, and the normalization
    applied to Z_n before comparing against it.  A law that is a plain pgf
    of the theta family carries it as `law`."""

    theorem_id: str
    kind: str
    parameters: tuple
    scaling: str
    law: Optional[ThetaLaw] = None

    def param(self, name: str) -> float:
        for key, val in self.parameters:
            if key == name:
                return val
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"theorem_id": self.theorem_id, "kind": self.kind,
                "parameters": dict(self.parameters), "scaling": self.scaling}

    def scaled_sample(self, z: int, A_n: float) -> Optional[float]:
        """The count Z_n = z normalized as `scaling` says, with A_n the
        composite constant at n; None when z = 0 is left out, under a
        logarithm or when the law is conditioned on survival."""
        if self.scaling.startswith(_LN_TIMES_A):
            return A_n * math.log(z) if z > 0 else None
        if z == 0 and "conditioned on" in self.scaling:
            return None
        if self.scaling == _TIMES_A_POWER:
            return A_n ** (1.0 / self.param("theta")) * z
        return float(z)

    def evaluate(self, x: float) -> float:
        """The transform at x: the pgf of `law` when there is one; else, by
        kind, the Laplace transform 1 - (x^(-theta) + C)^(-1/theta) in
        lambda >= 0 (T1; T3 and T5i have no C and take C = 1), the cdf
        1 - e^(-x) D (T6ii; T6i takes D = 1) or the A -> 0 conditional pgf
        (h(r) - h(r-x)) / (h(r) - h(r-1)) with h increasing: -w^(-theta)
        for T7i, w^(1/alpha) for T8i and ln w for T9i."""
        if self.law is not None:
            return self.law.pgf(x)
        p = dict(self.parameters)
        if self.kind == LAPLACE:
            if x == 0.0:
                return 1.0
            theta = p["theta"]
            return 1.0 - (x ** (-theta) + p.get("C", 1.0)) ** (-1.0 / theta)
        if self.kind == CDF:
            return 1.0 - math.exp(-x) * p.get("D", 1.0)

        def h(w):
            if "theta" in p:
                return -w ** (-p["theta"])
            if "alpha" in p:
                return w ** (1.0 / p["alpha"])
            return math.log(w)

        r = p["r"]
        return (h(r) - h(r - x)) / (h(r) - h(r - 1.0))


def _conditional_law(v: dict, limits: LimitConstants) -> ThetaLaw:
    """The T4/T5ii limit of Z_n given Z_n > 0: 1 - ((w + B)/(1 + B))^(-1/theta)
    with w = (1-s)^(-theta), which vanishes at s = 0 and has mean
    (1+B)^(1/theta)."""
    B = v["B"]
    return ThetaLaw(v["theta"], 1.0, 1.0 / (1.0 + B), B / (1.0 + B), None)


def _at_limits(v: dict, limits: LimitConstants) -> ThetaLaw:
    return limits.law(v["theta"], v["r"])


_POSITIVE = "pgf of Z_n conditioned on Z_n > 0"
_SURVIVING = "pgf of Z_n conditioned on tau > n"
_AS_LIMIT = "pgf of Z_n (no scaling; almost-sure limit)"
_RESTRICTED = "restricted pgf E(s^{Z_n}; tau_Delta > n) (no scaling)"

# theorem id -> (kind, parameter names, scaling, law); the law, if any, is
# built from the parameter values v and the limits
_DESCRIPTORS = {
    "T1": (LAPLACE, ("theta", "C"), _TIMES_A_POWER, None),
    "T2": (PGF, ("theta", "A", "C"), _AS_LIMIT, _at_limits),
    "T3": (LAPLACE, ("theta",),
           "Laplace argument lambda_n = lambda * B_n^(-1/theta), "
           "conditioned on Z_n > 0", None),
    "T4": (PGF, ("theta", "B"), _POSITIVE, _conditional_law),
    "T5i": (LAPLACE, ("theta",),
            "Laplace argument lambda_n = lambda * B_kn^(-1/theta), "
            "conditioned on Z_kn > 0", None),
    "T5ii": (PGF, ("theta", "B"), "pgf of Z_kn conditioned on Z_kn > 0",
             _conditional_law),
    "T6i": (CDF, (), _LN_TIMES_A + ", conditioned on Z_n > 0", None),
    "T6ii": (CDF, ("D",), _LN_TIMES_A, None),
    "T6iii": (PGF, ("A",), _POSITIVE,
              lambda v, limits: ThetaLaw(0.0, 1.0, v["A"], 0.0, 0.0)),
    "T6iv": (PGF, ("A", "D"), _AS_LIMIT, _at_limits),
    "T7i": (PGF, ("theta", "r", "C"), _SURVIVING, None),
    "T7ii": (PGF, ("theta", "r", "A", "C"), _RESTRICTED, _at_limits),
    "T8i": (PGF, ("alpha", "r", "C"), _SURVIVING, None),
    "T8ii": (PGF, ("alpha", "r", "A", "C"), _RESTRICTED, _at_limits),
    "T9i": (PGF, ("r",), _SURVIVING, None),
    "T9ii": (PGF, ("r", "A", "D"), _RESTRICTED, _at_limits),
    # 1 - (1-s)^(1/alpha), a theta = 0 law with a = -theta
    "T10i": (PGF, ("alpha", "C"), _SURVIVING,
             lambda v, limits: ThetaLaw(0.0, 1.0, -v["theta"], 0.0, 0.0)),
    "T10ii": (PGF, ("alpha", "A", "C"),
              "restricted pgf E(s^{Z_n}; tau > n) (no scaling)", _at_limits),
}

_PROPER_THEOREM = {SUPERCRITICAL: "T1", ASYMPTOTICALLY_DEGENERATE: "T2",
                   CRITICAL: "T3", STRICTLY_SUBCRITICAL: "T4"}
_DEFECTIVE_THEOREM = {"b": "T7", "d": "T8", "f": "T9", "c": "T10"}


def limit_law(model: ThetaModel, limits: LimitConstants,
              subsequence: Optional[Sequence[int]] = None) -> LimitLawDescriptor:
    """The limit law of the regime of the limits.  In the oscillating regime
    a law exists only along an explicit subsequence, which the caller
    supplies as the index sequence itself."""
    theta, r, case = model.theta, model.r, model.case_label
    # T4's B: 0 when C < inf (so A_n -> inf), else lim B_n
    B = 0.0 if limits.C.is_determined else limits.B.value
    if case == "a" and subsequence is not None:
        bs = subsequence_b_values(model, subsequence)
        tail = bs[len(bs) // 2:]
        lo, hi = min(tail), max(tail)
        if lo > max(100.0, 2.0 * min(bs[:max(1, len(bs) // 2)])):
            tid = "T5i"
        elif hi - lo <= 0.05 * max(1.0, abs(hi)):
            tid, B = "T5ii", tail[-1]
        else:
            raise NoLimitLaw(
                "B does not settle along the supplied subsequence")
    else:
        name, basis, sub = regime(case, limits)
        if name == UNDETERMINED_REGIME:
            raise UndeterminedLimit(basis)
        if name == LOOSELY_SUBCRITICAL:
            raise NoLimitLaw(
                "loosely subcritical regime: supply an explicit subsequence")
        if name == INFINITE_MEAN:
            tid = "T6" + sub
        elif name == DEFECTIVE:
            tid = _DEFECTIVE_THEOREM[case] + ("i" if sub == "A=0" else "ii")
        else:
            tid = _PROPER_THEOREM[name]
    kind, names, scaling, law = _DESCRIPTORS[tid]
    v = {"theta": theta, "r": r, "A": limits.A.value, "C": limits.C.value,
         "D": limits.D.value, "alpha": -1.0 / theta if theta else None,
         "B": B}
    return LimitLawDescriptor(tid, kind, tuple((k, v[k]) for k in names),
                              scaling, law(v, limits) if law else None)


# ---------------------------------------------------------------------------
# Convergence-condition diagnostics
# ---------------------------------------------------------------------------

HOLDS = "holds"
FAILS = "fails"


@dataclass(frozen=True)
class ConvergenceReport:
    church_lindvall: str
    sum_one_minus_a: float
    condition_a0: str
    condition_A1: str
    tilde_cl: str
    horizon: int
    partial_sums: dict

    def to_dict(self) -> dict:
        return {"church_lindvall": self.church_lindvall,
                "sum_one_minus_a": self.sum_one_minus_a,
                "condition_a0": self.condition_a0,
                "condition_A1": self.condition_A1,
                "tilde_cl": self.tilde_cl,
                "horizon": self.horizon,
                "partial_sums": self.partial_sums}


def _series_verdict(s_quarter: float, s_half: float, s_full: float) -> str:
    """Summability verdict for a nonnegative-term series from partial sums at
    N/4, N/2, N: doubling-window increments that do not decay signal
    divergence; geometrically decaying increments signal convergence."""
    if math.isinf(s_full):
        return FAILS
    d1 = s_half - s_quarter
    d2 = s_full - s_half
    if d2 <= 1e-10:
        return HOLDS
    if d1 <= 0.0:
        return UNDETERMINED
    ratio = d2 / d1
    if ratio <= 0.8:
        return HOLDS
    if ratio >= 0.95:
        return FAILS
    return UNDETERMINED


def convergence_conditions(model: ThetaModel, horizon: int) -> ConvergenceReport:
    """Partial-sum diagnostics for the almost-sure-convergence conditions:
    sum(1 - p_n(1)) (Church-Lindvall), sum(1 - a_n), the defective variant
    with the normalized one-step laws, and sum (1-a_n) ln 1/(1-c_n)."""
    horizon = _index(horizon)
    if horizon < MIN_HORIZON:
        raise DomainError(f"horizon must be >= {MIN_HORIZON}")
    theta, r = model.theta, model.r
    marks = (horizon // 4, horizon // 2, horizon)
    sums = {"cl": 0.0, "one_minus_a": 0.0, "A1": 0.0, "tilde": 0.0}
    snap = {key: [] for key in sums}
    for blk in _blocks(model, horizon):
        a, lg = blk.a, blk.lg
        law = ThetaLaw(theta, r, a, blk.c,
                       (1.0 - a) * lg if theta == 0.0 else None)
        p1 = law.weight_one()
        log1mc = (lg if r == 1.0
                  else model.c_seq.log_one_minus_values(blk.n0, blk.c))
        g1 = 1.0 if r == 1.0 and theta >= 0.0 else law.pgf(1.0)  # proper
        terms = {"cl": 1.0 - p1,
                 "one_minus_a": np.abs(1.0 - a),
                 "A1": np.where(np.isnan(log1mc), math.inf,
                                -(1.0 - a) * log1mc),
                 "tilde": 1.0 - p1 / g1}
        at = [m - blk.n0 for m in blk.picks(marks)]
        for key, term in terms.items():
            partial = np.cumsum(np.concatenate(([sums[key]], term)))[1:]
            sums[key] = partial[-1]
            snap[key] += [partial[i].item() for i in at]
    verdicts = {key: _series_verdict(*snap[key]) for key in sums}
    if verdicts["one_minus_a"] == HOLDS:
        d2 = snap["one_minus_a"][2] - snap["one_minus_a"][1]
        d1 = snap["one_minus_a"][1] - snap["one_minus_a"][0]
        rho = min(0.9, d2 / d1) if d1 > 0 else 0.0
        sum_a = snap["one_minus_a"][2] + (d2 * rho / (1.0 - rho) if rho else 0)
    else:
        sum_a = math.inf
    return ConvergenceReport(
        church_lindvall=verdicts["cl"],
        sum_one_minus_a=sum_a,
        condition_a0=verdicts["one_minus_a"],
        condition_A1=verdicts["A1"],
        tilde_cl=verdicts["tilde"],
        horizon=horizon,
        partial_sums={key: snap[key] for key in sums})


# ---------------------------------------------------------------------------
# Tabular export
# ---------------------------------------------------------------------------

def constants_table(model: ThetaModel, ns: Sequence[int]) -> list[dict]:
    """Rows (n, A_n, C_n, D_n, B_n, F_n(0), F_n(1), means) for export;
    GwThetaError if A_n or C_n overflows at a requested n."""
    cs = constants_at(model, ns)
    rows = []
    for n in sorted(cs):
        cc = cs[n]
        _check_finite(cc)
        row = {"n": n, "A_n": cc.A, "C_n": cc.C,
               "D_n": cc.D, "B_n": cc.B}
        if n >= 1:
            law = cc.law(model.theta, model.r)
            row["F_n(0)"] = law.pgf(0.0)
            row["F_n(1)"] = law.pgf(1.0)
            row["mean_restricted"] = law.restricted_mean()
        rows.append(row)
    return rows
