"""Reference computations for the benchmark's output checks.

Nothing here calls ``gwtheta.analytics`` or ``gwtheta.series``: each value is
rebuilt from the four parameters (theta, r, a_n, c_n) by a route of its own.
The environment sequences are read through ``EnvSequence.value`` and
``EnvSequence.log_one_minus``, which define the model rather than derive from
it.

* ``composed_pgf``: F_n(s) by composing the one-step pgfs f_1 o ... o f_n,
  innermost f_n first, with no composite constants.
* ``dyadic_exact``: exact ``Fraction`` values of (A_k, C_k) for the Ex5
  dyadic environment.
* ``linear_fractional_pmf``: closed-form weights of the theta = 1 law
  r - (A (r-s)^-1 + C)^-1, a geometric law past j = 0.
* ``half_power_pmf``: closed-form weights of the theta = -1/2 law
  r - (A (r-s)^(1/2) + C)^2, a finite binomial expression in (r-s)^(1/2).
* ``laplace_at``: the finite-n Laplace transform E exp(-lam A_n^(1/theta) Z_n)
  = F_n(exp(-lam A_n^(1/theta))) of the T1-scaled samples.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def step_values(model, n: int):
    """(a_k, c_k, ln(r - c_k)) for k = 1..n, read from the raw sequences.

    ln(r - c_k) is None where r - c_k <= 0; for r = 1 it comes from
    ``log_one_minus``, which keeps it exact where c_k rounds to 1."""
    r = model.r
    out = []
    for k in range(1, n + 1):
        a = model.a_seq.value(k)
        c = model.c_seq.value(k)
        if r == 1.0:
            lg = model.c_seq.log_one_minus(k)
        else:
            lg = math.log(r - c) if r - c > 0.0 else None
        out.append((a, c, lg))
    return out


def composed_pgf(theta: float, r: float, steps, n: int, s: float) -> float:
    """F_n(s) = f_1(f_2(... f_n(s))) from the first n entries of steps.

    The composition runs on the distance t = r - s, and on ln t when
    theta = 0, where r - f(s) = (r - c)^(1-a) t^a: the values crowd against
    r, and there t itself would round to zero long before ln t is large."""
    if theta == 0.0:
        log_t = math.log(r - s) if s < r else -math.inf
        for k in range(n - 1, -1, -1):
            a, _, lg = steps[k]
            log_t = (1.0 - a) * lg + a * log_t
        return r - math.exp(log_t)
    t = r - s
    for k in range(n - 1, -1, -1):
        a, c, _ = steps[k]
        if t == 0.0 and theta > 0.0:
            continue            # f(r) = r: the gap stays 0
        t = (a * t ** (-theta) + c) ** (-1.0 / theta)
    return r - t


def product_of_a(steps, n: int) -> float:
    """A_n = a_1 ... a_n, multiplied left to right."""
    A = 1.0
    for k in range(n):
        A *= steps[k][0]
    return A


def sum_of_c(steps, n: int) -> float:
    """C_n = sum_k a_1 ... a_{k-1} c_k, accumulated left to right."""
    A, C = 1.0, 0.0
    for k in range(n):
        C += A * steps[k][1]
        A *= steps[k][0]
    return C


def laplace_at(theta: float, steps, n: int, lam: float) -> float:
    """F_n(exp(-lam A_n^(1/theta))) for an r = 1 model."""
    scale = product_of_a(steps, n) ** (1.0 / theta)
    return composed_pgf(theta, 1.0, steps, n, math.exp(-lam * scale))


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def dyadic_exact(ks) -> dict:
    """Exact (A_k, C_k) of the Ex5 dyadic environment for each k in ks.

    a_n = n at n = 2^j - 1, 1/(n-1) at n = 2^j > 1, else 1; c_n = 1 at
    n = 2^j > 2, else 1/n^2."""
    targets = set(ks)
    A, C, out = Fraction(1), Fraction(0), {}
    for n in range(1, max(targets) + 1):
        C += A * (Fraction(1) if _is_power_of_two(n) and n > 2
                  else Fraction(1, n * n))
        if _is_power_of_two(n + 1):
            A *= n
        elif _is_power_of_two(n) and n > 1:
            A /= n - 1
        if n in targets:
            out[n] = (A, C)
    return out


def linear_fractional_pmf(r: float, A: float, C: float, J: int) -> np.ndarray:
    """Weights p_0..p_J of r - (A/(r-s) + C)^-1 = r - (r-s)/(A + C(r-s)).

    With D = A + C r and rho = C/D: p_0 = r - r/D and
    p_j = (A/D^2) rho^(j-1) for j >= 1."""
    D = A + C * r
    p = np.empty(J + 1)
    p[0] = r - r / D
    p[1:] = (A / (D * D)) * (C / D) ** np.arange(J, dtype=float)
    return p


def half_power_pmf(r: float, A: float, C: float, J: int) -> np.ndarray:
    """Weights p_0..p_J of r - (A (r-s)^(1/2) + C)^2 (theta = -1/2).

    Expanded: r - A^2 (r-s) - 2AC (r-s)^(1/2) - C^2, with
    (r-s)^(1/2) = sqrt(r) sum_j b_j (s/r)^j, b_0 = 1,
    b_{j+1} = b_j (j - 1/2)/(j + 1)."""
    j = np.arange(J, dtype=float)
    b = np.empty(J + 1)
    b[0] = 1.0
    np.cumprod((j - 0.5) / ((j + 1.0) * r), out=b[1:])
    p = -2.0 * A * C * math.sqrt(r) * b
    p[0] = r - A * A * r - 2.0 * A * C * math.sqrt(r) - C * C
    if J >= 1:
        p[1] += A * A
    return p
