"""Regime labels: the decision of analytics.regime with its confidence and,
in the defective rows, the q_delta = 0 boundary note."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# the regime names are re-exported from here
from .analytics import (ASYMPTOTICALLY_DEGENERATE, CRITICAL,  # noqa: F401
                        DEFECTIVE, INFINITE_MEAN, LOOSELY_SUBCRITICAL,
                        STRICTLY_SUBCRITICAL, SUPERCRITICAL,
                        UNDETERMINED_REGIME, LimitConstants, regime)
from .environment import ThetaModel

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
    """The regime of (case_label, limits) as labelled by analytics.regime,
    with the confidence of the model's sequence families; in the defective
    rows the basis notes parameters on the q_delta = 0 boundary."""
    name, basis, sub = regime(model.case_label, limits)
    if name == DEFECTIVE and _delta_never_hit(model, limits):
        basis += "; boundary parameters give q_delta = 0"
    return RegimeLabel(name, basis, limits, _confidence(model), sub)
