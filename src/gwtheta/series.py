"""Truncated pmf extraction from the parametric generating functions.

Every generating function in the family has the shape
    g(s) = r - (a (r-s)^(-theta) + c)^(-1/theta)        (theta != 0)
    g(s) = r - d (r-s)^a                                (theta == 0)
(a ThetaLaw), so one coefficient engine serves both the one-step laws and
the composed population laws.  It has two parts.  theta = 0 has an O(J)
binomial closed form.  For theta != 0, weights p_0..p_{2^12} come from the
O(J^2) power recurrence for h = u^gamma given the series u, and each dyadic
block p_{2^k+1}..p_{2^(k+1)} above 2^12 from one trapezoidal Cauchy integral
on |s| = rho with N = 8 2^(k+1) nodes and rho = r 10^(-16/N) (Bornemann,
"Accuracy and stability of computing high-order derivatives of analytic
functions by Cauchy integrals", Found. Comput. Math. 2011).  A block is
computed whole and then cut at the cutoff, so a weight depends only on the
law and its index; extending a pmf computes only the new weights.

The recurrence runs over a batch of laws that share theta and r, as the
one-step laws of a model do: it keeps v reversed, so that the window of
each step is a contiguous slice and its inner products are one ddot per
law, and every row is bit-identical to the law's own.  It resumes from
the weights a law already has, so a cutoff doubling or a pmf extension
runs only the new steps: _build_all doubles the cutoffs of a batch in
step, one recurrence call per doubling, and a build that stops at 2^12
runs 2^12 steps in all.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .analytics import composite_law
from .environment import ThetaLaw, ThetaModel
from .errors import CutoffExceeded, DomainError, GwThetaError

log = logging.getLogger(__name__)

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_MAX_CUTOFF = 2 ** 20
NEGATIVE_CLIP = 1e-14
RECURRENCE_MAX = 2 ** 12         # highest index from the power recurrence
_NO_WEIGHTS = np.empty(0)


@dataclass(frozen=True, eq=False)
class Pmf:
    """Truncated probability mass function with explicit tail and defect mass.

    weights[j] = P(j) for j = 0..cutoff; tail_mass is the proper mass above
    the cutoff; defect_mass = 1 - g(1) is the mass on the absorbing symbol.
    source is the law itself, so it can be re-expanded to a larger cutoff
    without external context.
    """

    weights: np.ndarray
    tail_mass: float
    defect_mass: float
    cutoff: int
    source: ThetaLaw

    def __post_init__(self):
        self.weights.setflags(write=False)

    @property
    def total(self) -> float:
        return float(math.fsum(self.weights) + self.tail_mass
                     + self.defect_mass)

    def weight(self, j: int) -> float:
        return float(self.weights[j])

    def mean_truncated(self) -> float:
        j = np.arange(len(self.weights))
        return float(np.dot(j, self.weights))


def _coeffs_theta(theta: float, r: float, a, c, known, J: int) -> np.ndarray:
    """Taylor weights p_0..p_J of r - (a(r-s)^(-theta) + c)^(-1/theta).

    a and c may be arrays of one length, a batch of laws that share theta
    and r; the result then holds one row of weights per law, each equal bit
    for bit to that law's own.  u(s) = a(r-s)^(-theta) + c has coefficients
    from the generalized binomial expansion, whose ratios all the laws
    share; v = u^(-1/theta) follows the power recurrence
        m u_0 v_m = sum_{j=1..m} ((gamma+1) j - m) u_j v_{m-j}.
    v is kept reversed, w[J - m] = v_m, so that the window v_{m-1}..v_0 of
    step m is the contiguous slice w[J-m+1:].  Its two inner products are
    two ddots for one law and one np.matmul for a batch, a ddot per row
    either way (a one-row matmul costs twice the two dots).

    known holds weights p_0..p_{K-1} that these laws already have (a row
    per law for a batch, possibly none).  p_m = -v_m exactly for m >= 1,
    so the recurrence resumes at step K from them, unless one is zero:
    only a weight clipped from negative round-off differs from -v_m, and it
    is clipped to +0.0, so the recurrence then starts again at step 1.
    v_0 = u_0^gamma is recomputed either way, and every weight is the one
    a single pass to J gives, bit for bit.  J stays the last argument: the
    benchmark tracer reads it as args[-1].
    """
    gamma = -1.0 / theta
    batch = np.ndim(a) > 0
    a, c = np.atleast_1d(a), np.atleast_1d(c)
    # u_{j+1}/u_j = (theta + j) / ((j+1) r)
    j = np.arange(J, dtype=float)
    ratio = np.cumprod((theta + j) / ((j + 1.0) * r))
    u0 = a * r ** (-theta)
    uu = np.empty((2, a.size, J + 1))         # rows j u_j and u_j
    ju, u = uu
    np.multiply(ratio, u0[:, None], out=u[:, 1:])
    u[:, 0] = u0 + c
    np.multiply(np.arange(J + 1, dtype=float), u, out=ju)
    w = np.empty((a.size, J + 1))
    # numpy scalar powers: libm's pow, not the array kernel
    w[:, J] = [x ** gamma for x in u[:, 0]]
    known = np.reshape(known, (a.size, -1))[:, 1:J + 1]
    K = 1
    if known.all():
        K += known.shape[1]
        w[:, J - K + 1:J] = -known[:, ::-1]
    inv_u0 = 1.0 / u[:, 0]
    if a.size == 1:
        # Python floats: the same IEEE arithmetic as numpy scalars, cheaper
        v, ju1, u1 = w[0], ju[0, 1:], u[0, 1:]
        g1, inv = gamma + 1.0, float(inv_u0[0])
        for m in range(K, J + 1):
            win = v[J - m + 1:]
            v[J - m] = (g1 * float(ju1[:m].dot(win))
                        - m * float(u1[:m].dot(win))) * inv / m
    else:
        rows, cols = uu[:, :, None, 1:], w[None, :, :, None]
        for m in range(K, J + 1):
            d = np.matmul(rows[..., :m], cols[:, :, J - m + 1:])
            w[:, J - m] = ((gamma + 1.0) * d[0, :, 0, 0]
                           - m * d[1, :, 0, 0]) * inv_u0 / m
    p = -w[:, ::-1]
    p[:, 0] = r - w[:, J]
    return p if batch else p[0]


def _coeffs_theta_zero(r: float, a: float, log_d: float,
                       J: int) -> np.ndarray:
    """Taylor weights of r - d (r-s)^a (binomial series, O(J))."""
    p = np.empty(J + 1)
    p[0] = r - math.exp(log_d + a * math.log(r))
    if J >= 1:
        p[1] = a * math.exp(log_d + (a - 1.0) * math.log(r))
        if J >= 2:
            # p_{j+1}/p_j = (j - a) / ((j+1) r)
            j = np.arange(1, J, dtype=float)
            np.cumprod((j - a) / ((j + 1.0) * r), out=p[2:])
            p[2:] *= p[1]
    return p


def _cauchy_block(law: ThetaLaw, k: int) -> np.ndarray:
    """Weights p_{B+1}..p_{2B}, B = 2^k, of a theta != 0 law from one
    trapezoidal Cauchy integral on |s| = rho with N = 16 B nodes:

        p_j = rho^(-j) / N  sum_m g(rho z^m) z^(-jm),   z = exp(2 pi i / N).

    rho^N = r^N 1e-16 keeps the aliased terms p_{j+N} rho^N below eps, and
    rho^(-j) <= 100 r^(-j) bounds the amplified round-off for j <= N/8
    (Bornemann, Found. Comput. Math. 2011).  The sum runs as 16 strided
    FFTs of length B (m = t + 16 q), accumulated in one length-B vector, so
    memory is O(B).  The constant r of g only reaches j = 0 mod N and is
    left out; principal branches are valid on |s| < r, where
    Re(r - s) > 0 and so Re(a (r-s)^(-theta) + c) > 0 for theta in (-1, 1].
    """
    theta, r, a, c = law.theta, law.r, law.a, law.c
    B = 2 ** k
    N = 16 * B
    log_ratio = -16.0 * math.log(10.0) / N          # ln(rho / r)
    rho = r * math.exp(log_ratio)
    r_minus_rho = -r * math.expm1(log_ratio)
    j = np.arange(B + 1, 2 * B + 1)
    q = np.arange(B)
    acc = np.zeros(B, dtype=complex)
    for t in range(16):
        phi = (2.0 * math.pi / N) * (t + 16 * q)
        # r - rho e^(i phi), without cancellation near phi = 0
        w = (r_minus_rho + 2.0 * rho * np.sin(0.5 * phi) ** 2) \
            - 1j * rho * np.sin(phi)
        h = -(a * w ** (-theta) + c) ** (-1.0 / theta)
        # FFT bin j mod B holds p_j for j = B+1..2B-1 at 1..B-1, p_{2B} at 0
        f = np.roll(np.fft.fft(h), -1)
        f *= np.exp((-2.0j * math.pi / N) * ((j * t) % N))
        acc += f
    return np.exp(-math.log(rho) * j) / N * acc.real


def _extend_coeffs(law: ThetaLaw, p: np.ndarray, J: int,
                   head: np.ndarray = None) -> np.ndarray:
    """Taylor weights p_0..p_J of the law, keeping the weights p it already
    has (indices 0..len(p)-1, computed here, possibly none).  Only the new
    indices are computed, and only their negative round-off is clipped.
    head, when given, holds the law's recurrence weights p_0..p_min(J, 2^12)
    from a batched _coeffs_theta call that resumed from p."""
    K = len(p)
    if law.theta == 0.0:
        parts = [_coeffs_theta_zero(law.r, law.a, law.log_d, J)[K:]]
    else:
        parts = []
        if K <= RECURRENCE_MAX:
            # the recurrence resumes from the weights p already has
            if head is None:
                head = _coeffs_theta(law.theta, law.r, law.a, law.c, p,
                                     min(J, RECURRENCE_MAX))
            parts.append(head[K:])
        lo = max(K, RECURRENCE_MAX + 1)
        while lo <= J:
            k = (lo - 1).bit_length() - 1       # 2^k < lo <= 2^(k+1)
            B = 2 ** k
            hi = min(J, 2 * B)
            parts.append(_cauchy_block(law, k)[lo - B - 1:hi - B])
            lo = hi + 1
    new = np.concatenate(parts)
    worst = float(new.min())
    if worst < 0.0:
        if worst < -NEGATIVE_CLIP:
            raise GwThetaError(
                f"negative pmf coefficient {worst} at cutoff {J}; "
                "true coefficients are nonnegative, so the parameters "
                "(or their validation) are inconsistent")
        log.debug("clipped negative round-off of magnitude %g", -worst)
        new = np.where(new < 0.0, 0.0, new)
    return np.concatenate([p, new])


def _coeffs(law: ThetaLaw, J: int) -> np.ndarray:
    """Taylor weights p_0..p_J of the law, negative round-off clipped."""
    return _extend_coeffs(law, _NO_WEIGHTS, J)


def _build(law: ThetaLaw, tail_tol: float, max_cutoff: int) -> Pmf:
    built = _build_all([law], tail_tol, max_cutoff)
    if isinstance(built[0], CutoffExceeded):
        # popped, not named: a local would tie the error to its traceback
        # in a cycle that holds the partial pmf until a collection
        raise built.pop()
    return built[0]


def _build_all(laws: list, tail_tol: float, max_cutoff: int) -> list:
    """For each of laws that share theta and r, the Pmf that doubling the
    cutoff from 64 until the tail meets tail_tol gives, or, when the
    budget cannot meet tail_tol, a CutoffExceeded carrying the partial pmf.
    The laws double in step, so while their cutoffs are within the
    recurrence one batched _coeffs_theta call serves all those still
    open, and each law's outcome is the one it has alone."""
    if not tail_tol > 0.0:
        raise DomainError(f"tail_tol must be > 0, got {tail_tol}")
    if max_cutoff < 1:
        raise DomainError("max_cutoff must be >= 1")
    if len({(law.theta, law.r) for law in laws}) > 1:
        raise DomainError("a batch of laws must share theta and r")
    out = [None] * len(laws)
    g1 = [law.pgf(1.0) for law in laws]
    p = [_NO_WEIGHTS] * len(laws)
    prev_tail = [None] * len(laws)
    todo = range(len(laws))
    J = min(64, max_cutoff)
    while todo:
        heads = repeat(None)
        # the laws still open share their cutoffs, so they need the
        # recurrence together, resumed from the same index to the same index
        if laws[0].theta != 0.0 and len(p[todo[0]]) <= RECURRENCE_MAX:
            heads = _coeffs_theta(laws[0].theta, laws[0].r,
                                  np.array([laws[i].a for i in todo]),
                                  np.array([laws[i].c for i in todo]),
                                  np.array([p[i] for i in todo]),
                                  min(J, RECURRENCE_MAX))
        left = []
        for i, head in zip(todo, heads):
            law = laws[i]
            p[i] = _extend_coeffs(law, p[i], J, head)
            tail = g1[i] - math.fsum(p[i])
            defect = max(0.0, 1.0 - g1[i])
            if tail <= tail_tol:
                out[i] = Pmf(p[i], max(0.0, tail), defect, J, law)
                continue
            hopeless = False
            if J >= 1024 and prev_tail[i] is not None and tail > 0.0:
                # projected cutoff from the observed per-doubling tail decay;
                # heavy tails (rate ~ J^-(1+theta)) would otherwise burn the
                # whole quadratic budget before reporting failure
                rho = tail / prev_tail[i]
                if rho >= 0.999:
                    hopeless = True
                else:
                    doublings = math.log(tail_tol / tail) / math.log(rho)
                    # compared in log2: 2^doublings overflows for slow tails
                    hopeless = doublings > math.log2(max_cutoff / J)
            if J >= max_cutoff or hopeless:
                partial = Pmf(p[i], max(0.0, tail), defect, J, law)
                out[i] = CutoffExceeded(
                    f"tail mass {tail:.3e} cannot reach tail_tol "
                    f"{tail_tol:.3e} within the cutoff budget {max_cutoff} "
                    "(heavy-tailed law; raise max_cutoff or tail_tol)",
                    partial=partial)
                continue
            prev_tail[i] = tail
            left.append(i)
        todo = left
        J = min(2 * J, max_cutoff)
    return out


def pmf_from_theta_pgf(theta: float, r: float, a_coef: float,
                       c_coef: float = 0.0, *, d_coef: float = None,
                       tail_tol: float = DEFAULT_TAIL_TOL,
                       max_cutoff: int = DEFAULT_MAX_CUTOFF) -> Pmf:
    """Pmf of the law with pgf r - (a(r-s)^(-theta) + c)^(-1/theta), or for
    theta = 0 the law with pgf r - d (r-s)^a where d = (r-c)^(1-a) by default
    (one-step form) or d_coef when supplied (composite form)."""
    for name, x in (("theta", theta), ("r", r), ("a_coef", a_coef),
                    ("c_coef", c_coef), ("d_coef", d_coef)):
        if x is not None and not math.isfinite(x):
            raise DomainError(f"{name} must be finite, got {x}")
    if not -1.0 < theta <= 1.0:
        raise DomainError(f"theta must lie in (-1, 1], got {theta}")
    if a_coef <= 0.0:
        raise DomainError("a_coef must be > 0")
    if theta == 0.0:
        if d_coef is not None:
            if d_coef <= 0.0:
                raise DomainError("d_coef must be > 0")
            log_d = math.log(d_coef)
        else:
            if c_coef >= r:
                raise DomainError("c_coef must be < r when theta = 0")
            log_d = (1.0 - a_coef) * math.log(r - c_coef)
        return _build(ThetaLaw(0.0, r, a_coef, 0.0, log_d), tail_tol,
                      max_cutoff)
    if c_coef < 0.0:
        raise DomainError("c_coef must be >= 0")
    return _build(ThetaLaw(theta, r, a_coef, c_coef, None), tail_tol,
                  max_cutoff)


def step_pmf(model: ThetaModel, n: int,
             tail_tol: float = DEFAULT_TAIL_TOL,
             max_cutoff: int = DEFAULT_MAX_CUTOFF) -> Pmf:
    """Offspring pmf at generation n (the law with pgf f_n)."""
    return _build(model.step_law(n), tail_tol, max_cutoff)


def population_pmf(model: ThetaModel, n: int,
                   tail_tol: float = DEFAULT_TAIL_TOL,
                   max_cutoff: int = DEFAULT_MAX_CUTOFF) -> Pmf:
    """Pmf of Z_n, built directly from the composite parameters (the family
    is closed under composition, so no convolution over generations)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return _build(composite_law(model, n), tail_tol, max_cutoff)


def extend_pmf(pmf: Pmf, cutoff: int) -> Pmf:
    """The same law with a larger cutoff: the weights it has are kept and
    only the new ones are computed, so the tail is resolved further."""
    if cutoff <= pmf.cutoff:
        return pmf
    p = _extend_coeffs(pmf.source, pmf.weights, cutoff)
    tail = max(0.0, 1.0 - pmf.defect_mass - math.fsum(p))
    return Pmf(p, tail, pmf.defect_mass, cutoff, pmf.source)


def write_pmf_csv(pmf: Pmf, fh) -> None:
    """Rows (j, weight) with footer rows for tail, defect and cutoff."""
    fh.write("j,weight\n")
    for j, w in enumerate(pmf.weights):
        fh.write(f"{j},{w:.17g}\n")
    fh.write(f"tail_mass,{pmf.tail_mass:.17g}\n")
    fh.write(f"defect_mass,{pmf.defect_mass:.17g}\n")
    fh.write(f"cutoff,{pmf.cutoff}\n")
