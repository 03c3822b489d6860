"""Regime classification from numerically estimated limit constants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analytics import (DETERMINED, INFINITE, OSCILLATING, LimitConstants,
                        _is_zero)
from .environment import ThetaModel

# regimes
SUPERCRITICAL = "supercritical"
ASYMPTOTICALLY_DEGENERATE = "asymptotically_degenerate"
CRITICAL = "critical"
STRICTLY_SUBCRITICAL = "strictly_subcritical"
LOOSELY_SUBCRITICAL = "loosely_subcritical"
INFINITE_MEAN = "infinite_mean"
DEFECTIVE = "defective"
UNDETERMINED_REGIME = "undetermined"

# families whose limits follow from a closed form, so the numeric estimate
# is corroborated rather than load-bearing
_EXACT_FAMILIES = {"harmonic", "convergent", "constant", "proportional_c",
                   "negative_proportional_c", "superharmonic_ex4",
                   "exp_tail_ex6"}


@dataclass(frozen=True)
class RegimeLabel:
    regime: str
    basis: str
    evidence: LimitConstants
    confidence: str             # "exact_family" or "numeric"
    sub_label: Optional[str] = None

    def to_dict(self) -> dict:
        return {"regime": self.regime, "basis": self.basis,
                "confidence": self.confidence, "sub_label": self.sub_label,
                "evidence": self.evidence.to_dict()}


def _confidence(model: ThetaModel) -> str:
    fams = {model.a_seq.family, model.c_seq.family}
    for key, val in model.a_seq.params + model.c_seq.params:
        if hasattr(val, "family"):
            fams.add(val.family)
    return "exact_family" if fams <= _EXACT_FAMILIES else "numeric"


def _delta_never_hit(model: ThetaModel, limits: LimitConstants) -> bool:
    """True when the defective mass vanishes in the limit: the parameters sit
    on the exact boundary c_n = (1-a_n)(r-1)^(-theta) (theta != 0) or
    c_n = 1 (theta = 0) at every checked index."""
    theta, r = model.theta, model.r
    ns = list(range(1, min(model.check_horizon, 64) + 1)) \
        + [limits.horizon_used]
    for n in ns:
        a, c = model.step(n)
        if theta == 0.0:
            target = 1.0
        else:
            target = (1.0 - a) * (r - 1.0) ** (-theta)
        if abs(c - target) > 1e-12:
            return False
    return True


def classify(model: ThetaModel, limits: LimitConstants) -> RegimeLabel:
    """Pure function of (case_label, limits): the quinary regime for the
    proper theta in (0,1] case, infinite-mean sub-labels for theta = 0 with
    r = 1, defective sub-labels otherwise.  Never guesses: undetermined
    inputs yield the undetermined regime."""
    case = model.case_label
    conf = _confidence(model)
    A, C, D, B = limits.A, limits.C, limits.D, limits.B

    if case == "a":
        if C.status == DETERMINED:
            if _is_zero(A):
                return RegimeLabel(SUPERCRITICAL, "C < inf and A_n -> 0",
                                   limits, conf)
            if A.status == DETERMINED:
                return RegimeLabel(ASYMPTOTICALLY_DEGENERATE,
                                   "C < inf and A_n -> A in (0, inf)",
                                   limits, conf)
            if A.status == INFINITE:
                return RegimeLabel(STRICTLY_SUBCRITICAL,
                                   "C < inf and A_n -> inf", limits, conf)
            return RegimeLabel(UNDETERMINED_REGIME,
                               "C < inf but limit A undetermined",
                               limits, conf)
        if C.status == INFINITE:
            if B.status == INFINITE:
                return RegimeLabel(CRITICAL, "C = inf and B_n -> inf",
                                   limits, conf)
            if B.status == DETERMINED:
                return RegimeLabel(STRICTLY_SUBCRITICAL,
                                   "C = inf and B_n -> B < inf",
                                   limits, conf)
            if B.status == OSCILLATING:
                return RegimeLabel(LOOSELY_SUBCRITICAL,
                                   "C = inf and lim B_n does not exist "
                                   f"({B.rule})", limits, conf)
            return RegimeLabel(UNDETERMINED_REGIME,
                               "C = inf but limit B undetermined",
                               limits, conf)
        return RegimeLabel(UNDETERMINED_REGIME, "limit C undetermined",
                           limits, conf)

    if case == "e":
        if A.status != DETERMINED or D.status != DETERMINED:
            return RegimeLabel(UNDETERMINED_REGIME,
                               "limit A or D undetermined", limits, conf)
        a_zero, d_zero = _is_zero(A), _is_zero(D)
        sub = {(True, True): "i", (True, False): "ii",
               (False, True): "iii", (False, False): "iv"}[(a_zero, d_zero)]
        basis = (f"A {'= 0' if a_zero else '> 0'} and "
                 f"D {'= 0' if d_zero else '> 0'}")
        return RegimeLabel(INFINITE_MEAN, basis, limits, conf, sub_label=sub)

    # defective cases (b), (c), (d), (f)
    if case == "f":
        need = (A.status == DETERMINED and D.status == DETERMINED)
    else:
        need = (A.status == DETERMINED and C.status == DETERMINED)
    if not need:
        return RegimeLabel(UNDETERMINED_REGIME,
                           "required defective-case limits undetermined",
                           limits, conf)
    sub = "A=0" if _is_zero(A) else "A>0"
    basis = f"case ({case}) defective with {sub}"
    if _delta_never_hit(model, limits):
        basis += "; boundary parameters give q_delta = 0"
    return RegimeLabel(DEFECTIVE, basis, limits, conf, sub_label=sub)
