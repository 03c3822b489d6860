"""Parametric model definition: theta, r, the environment sequences (a_n, c_n),
and the theta-family law type shared by the one-step and n-step generating
functions.

The admissible parameter region splits into six rows keyed by (theta, r):

    (a) theta in (0,1],  r = 1:  0 < a_n,        c_n > 0, c_n >= 1 - a_n
    (b) theta in (0,1],  r > 1:  0 < a_n < 1,    (1-a_n) r^-t <= c_n <= (1-a_n)(r-1)^-t
    (c) theta in (-1,0), r = 1:  0 < a_n < 1,    0 < c_n <= 1 - a_n
    (d) theta in (-1,0), r > 1:  0 < a_n < 1,    (1-a_n)(r-1)^-t <= c_n <= (1-a_n) r^-t
    (e) theta = 0,       r = 1:  0 < a_n < 1,    0 <= c_n < 1
    (f) theta = 0,       r > 1:  0 < a_n < 1,    0 <= c_n <= 1, c_n < r

with t = theta.  theta = -1 is rejected outright.  Row (f) checks c_n < r on
its own, so that d = (r - c_n)^(1 - a_n) exists also for r near 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Optional

import numpy as np

from .errors import ConditioningOnNull, DomainError, RejectedParameter

# Slack absorbed on the closed interval bounds of cases (b), (d), (f), for
# computed values like (1-a_n)(r-1)^-theta that rarely round exactly.  The
# strict c_n < r of row (f) takes none: c_n = r is refused even near r = 1.
BOUND_SLACK = 1e-12

# Below this index, products of up to three float64 indices are exact, so
# array arithmetic on float indices rounds as value() does on Python ints.
_FLOAT_INDEX_LIMIT = 2 ** 26

SEQUENCE_FAMILIES = (
    "harmonic",
    "convergent",
    "proportional_c",
    "negative_proportional_c",
    "alternating_ex3",
    "superharmonic_ex4",
    "dyadic_ex5",
    "exp_tail_ex6",
    "constant",
    "table",
)


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def _libm(fn, *args):
    """fn(*args) on floats, or element-wise through Python floats when an
    argument is a 1-d array: numpy's own exp, log, log1p, expm1 and **
    kernels differ from libm in the last ulp for some inputs."""
    for x in args:
        if type(x) is np.ndarray:
            size = x.size
            break
    else:
        return fn(*args)
    cols = [x.tolist() if type(x) is np.ndarray else repeat(x, size)
            for x in args]
    return np.fromiter(map(fn, *cols), float, size)


def _pow_or_inf(x: float, y: float) -> float:
    """pow(x, y) on floats, +inf where it overflows."""
    try:
        return pow(x, y)
    except OverflowError:
        return math.inf


def _libm_where(fn, x: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """fn(x) through libm where ok, NaN elsewhere."""
    if ok.all():
        return _libm(fn, x)
    out = np.full(x.shape, math.nan)
    out[ok] = _libm(fn, x[ok])
    return out


@dataclass(frozen=True)
class EnvSequence:
    """Deterministic index-addressable sequence: value at n depends only on
    (family, params, n), so horizons up to 1e6 cost O(1) memory."""

    family: str
    params: tuple = ()
    table: tuple = ()
    tail_rule: str = "repeat_last"  # or "error"

    def __post_init__(self):
        if self.family not in SEQUENCE_FAMILIES:
            raise RejectedParameter(f"unknown sequence family {self.family!r}",
                                    constraint="family")
        # canonical key order so serialization round-trips compare equal
        object.__setattr__(self, "params",
                           tuple(sorted(self.params, key=lambda kv: kv[0])))

    def _param(self, name: str):
        for key, val in self.params:
            if key == name:
                return val
        raise RejectedParameter(
            f"family {self.family!r} requires parameter {name!r}",
            constraint=name)

    def value(self, n: int) -> float:
        """Value at index n >= 1."""
        if n < 1:
            raise DomainError(f"sequence index must be >= 1, got {n}")
        fam = self.family
        if fam == "harmonic":
            return n / (n + 1)
        if fam == "convergent":
            return n * (n + 3) / ((n + 1) * (n + 2))
        if fam == "constant":
            return float(self._param("value"))
        if fam == "proportional_c":
            sigma = float(self._param("sigma"))
            return (1.0 - self._param("a").value(n)) * sigma
        if fam == "negative_proportional_c":
            sigma = float(self._param("sigma"))
            return (self._param("a").value(n) - 1.0) * sigma
        if fam == "alternating_ex3":
            role = self._param("role")
            if role == "a":
                if n == 1:
                    return 0.5
                return 4.0 if n % 2 == 0 else 0.25
            return 1.0 if n % 2 == 1 else 2.0
        if fam == "superharmonic_ex4":
            role = self._param("role")
            if role == "a":
                return (n + 1) / n
            return 1.0 / (n * n * (n + 1))
        if fam == "dyadic_ex5":
            role = self._param("role")
            if role == "a":
                if _is_power_of_two(n + 1):
                    return float(n)
                if _is_power_of_two(n):
                    return 1.0 / (n - 1) if n > 1 else 1.0
                return 1.0
            if _is_power_of_two(n) and n > 2:
                return 1.0
            return 1.0 / (n * n)
        if fam == "exp_tail_ex6":
            # clamp below 1: for n^sigma > 36 the float would round to 1.0;
            # exact log(1 - c_n) stays available via log_one_minus
            return min(-math.expm1(-self._tail_power(float(n))),
                       math.nextafter(1.0, 0.0))
        if fam == "table":
            if n <= len(self.table):
                return self.table[n - 1]
            if self.tail_rule == "repeat_last" and self.table:
                return self.table[-1]
            raise DomainError(
                f"index {n} beyond table of length {len(self.table)} "
                f"(tail_rule={self.tail_rule!r})")
        raise AssertionError(fam)

    def values(self, n0: int, n1: int) -> np.ndarray:
        """value(n) for n0 <= n < n1 as a float64 array, bit for bit."""
        if n0 < 1:
            raise DomainError(f"sequence index must be >= 1, got {n0}")
        n = np.arange(n0, max(n0, n1))
        # float indices while their products stay exact, Python ints beyond
        k = n.astype(float if n1 <= _FLOAT_INDEX_LIMIT else object)
        fam = self.family
        if fam == "harmonic":
            out = k / (k + 1)
        elif fam == "convergent":
            out = k * (k + 3) / ((k + 1) * (k + 2))
        elif fam == "constant":
            out = np.full(n.size, float(self._param("value")))
        elif fam == "proportional_c":
            sigma = float(self._param("sigma"))
            out = (1.0 - self._param("a").values(n0, n1)) * sigma
        elif fam == "negative_proportional_c":
            sigma = float(self._param("sigma"))
            out = (self._param("a").values(n0, n1) - 1.0) * sigma
        elif fam == "alternating_ex3":
            if self._param("role") == "a":
                out = np.where(n == 1, 0.5, np.where(n % 2 == 0, 4.0, 0.25))
            else:
                out = np.where(n % 2 == 1, 1.0, 2.0)
        elif fam == "superharmonic_ex4":
            if self._param("role") == "a":
                out = (k + 1) / k
            else:
                out = 1.0 / (k * k * (k + 1))
        elif fam == "dyadic_ex5":
            pow2 = (n & (n - 1)) == 0
            if self._param("role") == "a":
                pow2_next = ((n + 1) & n) == 0
                # n = 1 takes the first branch, so n - 1 >= 1 in the second
                out = np.where(pow2_next, k,
                               np.where(pow2, 1.0 / np.maximum(k - 1, 1), 1.0))
            else:
                out = np.where(pow2 & (n > 2), 1.0, 1.0 / (k * k))
        elif fam == "exp_tail_ex6":
            tail = self._tail_power(n.astype(float))
            out = np.minimum(-_libm(math.expm1, -tail),
                             math.nextafter(1.0, 0.0))
        elif fam == "table":
            out = np.array(self.table[n0 - 1:n1 - 1], dtype=float)
            rest = n.size - out.size
            if rest:
                if self.tail_rule != "repeat_last" or not self.table:
                    self.value(n0 + out.size)       # raises DomainError
                out = np.concatenate([out, np.full(rest, self.table[-1])])
        else:
            raise AssertionError(fam)
        return np.asarray(out, dtype=float)

    def log_one_minus(self, n: int, v: Optional[float] = None):
        """ln(1 - v) for v = value(n), evaluated unless given, without the
        catastrophic cancellation near 1; None when v >= 1."""
        if self.family == "exp_tail_ex6":
            return -self._tail_power(float(n))
        if v is None:
            v = self.value(n)
        if v >= 1.0:
            return None
        return math.log1p(-v)

    def log_one_minus_values(self, n0: int, v: np.ndarray) -> np.ndarray:
        """log_one_minus(n, v[n - n0]) for n0 <= n < n0 + len(v), with NaN
        where it is None."""
        if self.family == "exp_tail_ex6":
            return -self._tail_power(np.arange(n0, n0 + v.size).astype(float))
        return _libm_where(math.log1p, -v, v < 1.0)

    def _tail_power(self, n):
        """n^sigma of exp_tail_ex6 for an index n or an array of them;
        RejectedParameter names the first index where it overflows."""
        sigma = float(self._param("sigma"))
        try:
            return _libm(pow, n, sigma)
        except OverflowError:
            tail = _libm(_pow_or_inf, n, sigma)
        first = int(np.extract(np.isinf(tail), n)[0])
        raise RejectedParameter(
            f"exp_tail_ex6 with sigma = {sigma}: n^sigma overflows at "
            f"n = {first}", index=first, constraint="n^sigma finite")

    # -- convenience constructors -------------------------------------------

    @staticmethod
    def harmonic() -> "EnvSequence":
        return EnvSequence("harmonic")

    @staticmethod
    def convergent() -> "EnvSequence":
        return EnvSequence("convergent")

    @staticmethod
    def constant(value: float) -> "EnvSequence":
        return EnvSequence("constant", (("value", float(value)),))

    @staticmethod
    def proportional_c(sigma: float, a_seq: "EnvSequence") -> "EnvSequence":
        return EnvSequence("proportional_c",
                           (("sigma", float(sigma)), ("a", a_seq)))

    @staticmethod
    def negative_proportional_c(sigma: float,
                                a_seq: "EnvSequence") -> "EnvSequence":
        return EnvSequence("negative_proportional_c",
                           (("sigma", float(sigma)), ("a", a_seq)))

    @staticmethod
    def alternating_ex3(role: str) -> "EnvSequence":
        return EnvSequence("alternating_ex3", (("role", role),))

    @staticmethod
    def superharmonic_ex4(role: str) -> "EnvSequence":
        return EnvSequence("superharmonic_ex4", (("role", role),))

    @staticmethod
    def dyadic_ex5(role: str) -> "EnvSequence":
        return EnvSequence("dyadic_ex5", (("role", role),))

    @staticmethod
    def exp_tail_ex6(sigma: float) -> "EnvSequence":
        return EnvSequence("exp_tail_ex6", (("sigma", float(sigma)),))

    @staticmethod
    def from_table(values, tail_rule: str = "repeat_last") -> "EnvSequence":
        return EnvSequence("table", (), tuple(float(v) for v in values),
                           tail_rule)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        params: dict[str, Any] = {}
        for key, val in self.params:
            params[key] = val.to_dict() if isinstance(val, EnvSequence) else val
        out: dict[str, Any] = {"family": self.family, "params": params}
        if self.family == "table":
            out["table"] = list(self.table)
            out["tail_rule"] = self.tail_rule
        return out

    @staticmethod
    def from_dict(spec: dict) -> "EnvSequence":
        family = spec["family"]
        raw = spec.get("params", {}) or {}
        params = []
        for key in sorted(raw):
            val = raw[key]
            if isinstance(val, dict) and "family" in val:
                val = EnvSequence.from_dict(val)
            params.append((key, val))
        return EnvSequence(family, tuple(params),
                           tuple(spec.get("table", ())),
                           spec.get("tail_rule", "repeat_last"))


@dataclass(frozen=True)
class ThetaLaw:
    """A theta-family law, given by its generating function on [0, r]:

        g(s) = r - (a (r-s)^(-theta) + c)^(-1/theta)        theta != 0
        g(s) = r - d (r-s)^a,  d = exp(log_d)               theta == 0

    The family is closed under composition: the one-step law f_n has
    (a, c) = (a_n, c_n) and d = (r - c_n)^(1 - a_n), the n-step law F_n has
    (A_n, C_n, D_n).  log_d is unused (and may be None) when theta != 0, c
    is unused when theta == 0.  Mass 1 - g(1) sits on the absorbing symbol.

    a, c and log_d may also be arrays of one length, a batch of laws with a
    common theta and r: pgf and weight_one then evaluate them element-wise.
    """

    theta: float
    r: float
    a: float
    c: float
    log_d: Optional[float]

    def pgf(self, s: float) -> float:
        """g(s) for s in [0, r]."""
        r, theta = self.r, self.theta
        if not 0.0 <= s <= r:
            raise DomainError(f"s = {s} outside [0, {r}]")
        if theta == 0.0:
            return r - _libm(pow, r - s, self.a) * _libm(math.exp, self.log_d)
        if s == r and theta > 0.0:
            # (r-s)^(-theta) = +inf; for theta < 0 it vanishes instead and
            # the general expression below is already correct
            return r
        return r - _libm(pow, self.a * (r - s) ** (-theta) + self.c,
                         -1.0 / theta)

    def weight_one(self) -> float:
        """g'(0), the probability of exactly one offspring."""
        a, r, theta = self.a, self.r, self.theta
        if theta == 0.0:
            return a * _libm(math.exp,
                             self.log_d + (a - 1.0) * math.log(r))
        return a * _libm(pow, a + self.c * r ** theta, -1.0 / theta - 1.0)

    def restricted_mean(self) -> float:
        """g'(1), the mean restricted to the proper counts.

        For theta != 0, g'(s) = a (r-s)^(-theta-1) (a (r-s)^(-theta) + c)^
        (-1/theta-1), which at s = 1 < r is a (a + c (r-1)^theta)^(-1/theta-1).
        At r = 1 it is a^(-1/theta) for theta > 0 and diverges for
        theta <= 0."""
        a, r, theta = self.a, self.r, self.theta
        if r == 1.0:
            return _pow_or_inf(a, -1.0 / theta) if theta > 0.0 else math.inf
        if theta == 0.0:
            return a * (r - 1.0) ** (a - 1.0) * math.exp(self.log_d)
        return a * (a + self.c * (r - 1.0) ** theta) ** (-1.0 / theta - 1.0)

    def p_alive(self) -> float:
        """g(1) - g(0), the mass on the positive counts."""
        return self.pgf(1.0) - self.pgf(0.0)

    def conditional_pgf(self, s: float) -> float:
        """(g(s) - g(0)) / (g(1) - g(0)), the law given a positive count."""
        if not 0.0 <= s <= 1.0:
            raise DomainError(f"s = {s} outside [0, 1]")
        f0 = self.pgf(0.0)
        p_alive = self.pgf(1.0) - f0
        if p_alive <= 1e-300:
            raise ConditioningOnNull(
                f"positive-count mass {p_alive} is numerically zero")
        return (self.pgf(s) - f0) / p_alive


def _case_label(theta: float, r: float) -> str:
    if theta == -1.0:
        raise RejectedParameter("theta = -1 is a trivial case and is rejected",
                                constraint="theta")
    if not (-1.0 < theta <= 1.0):
        raise RejectedParameter(f"theta must lie in (-1, 1], got {theta}",
                                constraint="theta")
    if r < 1.0:
        raise RejectedParameter(f"r must be >= 1, got {r}", constraint="r")
    if theta > 0.0:
        return "a" if r == 1.0 else "b"
    if theta < 0.0:
        return "c" if r == 1.0 else "d"
    return "e" if r == 1.0 else "f"


def _row_checks(case: str, theta: float, r: float, a, c) -> list:
    """The constraints of the row of case, in checking order, each as
    (name, violated) for (a_n, c_n) = (a, c), floats or float arrays.  The
    first two catch NaN and infinities, so the later ones, whose
    comparisons NaN would pass, see finite numbers."""
    checks = [("a_n > 0", (a <= 0.0) | ~np.isfinite(a)),
              ("c_n finite", ~np.isfinite(c))]
    if case != "a":
        # boundary a_n >= 1 is permitted only in case (a)
        checks.append(("a_n < 1", a >= 1.0))
    if case == "a":
        checks += [("c_n > 0", c <= 0.0),
                   ("c_n >= 1 - a_n", c < 1.0 - a - BOUND_SLACK)]
    elif case in ("b", "d"):
        lo = (1.0 - a) * r ** (-theta)
        hi = (1.0 - a) * (r - 1.0) ** (-theta)
        if case == "d":
            lo, hi = hi, lo
        checks += [("c_n >= lower admissibility bound", c < lo - BOUND_SLACK),
                   ("c_n <= upper admissibility bound", c > hi + BOUND_SLACK)]
    elif case == "c":
        checks += [("c_n > 0", c <= 0.0),
                   ("c_n <= 1 - a_n", c > 1.0 - a + BOUND_SLACK)]
    elif case == "e":
        checks += [("c_n >= 0", c < 0.0), ("c_n < 1", c >= 1.0)]
    elif case == "f":
        checks += [("c_n >= 0", c < -BOUND_SLACK),
                   ("c_n <= 1", c > 1.0 + BOUND_SLACK),
                   ("c_n < r", c >= r)]
    return checks


def _check_index(case: str, theta: float, r: float, a: float, c: float,
                 n: int) -> None:
    """Raise RejectedParameter for the first constraint of its row that
    (a_n, c_n) violates."""
    for constraint, bad in _row_checks(case, theta, r, a, c):
        if bad:
            raise RejectedParameter(
                f"case ({case}): (a_{n}, c_{n}) = ({a}, {c}) violates "
                f"{constraint}", index=n, constraint=constraint)


def _violations(case: str, theta: float, r: float, a: np.ndarray,
                c: np.ndarray) -> np.ndarray:
    """Mask of the indices _check_index rejects, from the same checks."""
    checks = _row_checks(case, theta, r, a, c)
    bad = checks[0][1]
    for _, violated in checks[1:]:
        bad |= violated
    return bad


@dataclass(frozen=True)
class ThetaModel:
    """Immutable model; safe to share across workers.

    Access (a_n, c_n) through :meth:`step`, :meth:`steps` or
    :meth:`step_law`: indices beyond the eagerly checked horizon are
    re-validated lazily on each access.
    """

    theta: float
    r: float
    a_seq: EnvSequence
    c_seq: EnvSequence
    case_label: str
    check_horizon: int

    def step(self, n: int) -> tuple[float, float]:
        """(a_n, c_n) with a single lazy validation."""
        a = self.a_seq.value(n)
        c = self.c_seq.value(n)
        if n > self.check_horizon:
            _check_index(self.case_label, self.theta, self.r, a, c, n)
        return a, c

    def steps(self, n0: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
        """(a_n, c_n) for n0 <= n < n1 as arrays, validated like step(n):
        the first index that fails raises the error step(n) raises."""
        try:
            a = self.a_seq.values(n0, n1)
            c = self.c_seq.values(n0, n1)
        except DomainError:
            # a sequence ends inside the range: report the first failing
            # index, which may be an invalid one before the end
            for n in range(n0, n1):
                self.step(n)
            raise
        k = max(0, self.check_horizon + 1 - n0)
        if k < a.size:
            bad = _violations(self.case_label, self.theta, self.r, a[k:],
                              c[k:])
            for i in np.flatnonzero(bad):
                self.step(n0 + k + int(i))
        return a, c

    def log_r_minus(self, n: int, c: float):
        """ln(r - c_n) given c = c_n, computed exactly near c_n = 1 when
        r = 1; None when r - c_n <= 0."""
        if self.r == 1.0:
            return self.c_seq.log_one_minus(n, c)
        base = self.r - c
        return math.log(base) if base > 0.0 else None

    def log_r_minus_values(self, n0: int, c: np.ndarray) -> np.ndarray:
        """log_r_minus over c = c_{n0}, c_{n0+1}, ..., with NaN where it is
        None."""
        if self.r == 1.0:
            return self.c_seq.log_one_minus_values(n0, c)
        base = self.r - c
        return _libm_where(math.log, base, base > 0.0)

    def step_law(self, n: int) -> "ThetaLaw":
        """The one-step law f_n, with a single lazy validation."""
        a, c = self.step(n)
        log_d = ((1.0 - a) * self.log_r_minus(n, c) if self.theta == 0.0
                 else None)
        return ThetaLaw(self.theta, self.r, a, c, log_d)

    def to_dict(self) -> dict:
        return {"theta": self.theta, "r": self.r,
                "a": self.a_seq.to_dict(), "c": self.c_seq.to_dict()}

    @staticmethod
    def from_dict(spec: dict, check_horizon: int = 100) -> "ThetaModel":
        return validate_model(spec["theta"], spec["r"],
                              EnvSequence.from_dict(spec["a"]),
                              EnvSequence.from_dict(spec["c"]),
                              check_horizon=check_horizon)


def validate_model(theta: float, r: float, a_seq: EnvSequence,
                   c_seq: EnvSequence, check_horizon: int = 100) -> ThetaModel:
    """Validate (theta, r, a_n, c_n) against its parameter row and return the
    model.  Indices 1..check_horizon are checked eagerly; later indices are
    re-checked on access."""
    if check_horizon < 1:
        raise RejectedParameter("check_horizon must be >= 1",
                                constraint="check_horizon")
    theta = float(theta)
    r = float(r)
    case = _case_label(theta, r)
    ThetaModel(theta, r, a_seq, c_seq, case, 0).steps(1, check_horizon + 1)
    return ThetaModel(theta, r, a_seq, c_seq, case, check_horizon)


def step_pgf(model: ThetaModel, n: int, s: float) -> float:
    """One-step generating function f_n(s) on [0, r]."""
    return model.step_law(n).pgf(s)


def step_pgf_weight_one(model: ThetaModel, n: int) -> float:
    """p_n(1) = f_n'(0), the probability of exactly one offspring."""
    return model.step_law(n).weight_one()
