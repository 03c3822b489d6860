import pytest

from gwtheta.analytics import limit_constants
from gwtheta.classifier import classify
from gwtheta.environment import EnvSequence, validate_model
from gwtheta.harness import registry, scenario_model

HORIZON = 10 ** 4

EXPECTED = {
    "Ex1": ("supercritical", None),
    "Ex2": ("asymptotically_degenerate", None),
    "Ex3": ("critical", None),
    "Ex4a": ("strictly_subcritical", None),
    "Ex4b": ("strictly_subcritical", None),
    "Ex5": ("loosely_subcritical", None),
    "Ex6i": ("infinite_mean", "i"),
    "Ex6ii": ("infinite_mean", "ii"),
    "Ex6iii": ("infinite_mean", "iii"),
    "Ex6iv": ("infinite_mean", "iv"),
    "Ex7i": ("defective", "A=0"),
    "Ex7ii": ("defective", "A>0"),
    "Ex8i": ("defective", "A=0"),
    "Ex8ii": ("defective", "A>0"),
    "Ex9i": ("defective", "A=0"),
    "Ex9ii": ("defective", "A>0"),
    "Ex10i": ("defective", "A=0"),
    "Ex10ii": ("defective", "A>0"),
}


def label_for(sid):
    model = scenario_model(sid)
    return classify(model, limit_constants(model, HORIZON))


@pytest.mark.parametrize("sid", sorted(EXPECTED))
def test_registry_scenarios_classify(sid):
    regime, sub = EXPECTED[sid]
    label = label_for(sid)
    assert label.regime == regime
    assert label.sub_label == sub


@pytest.mark.parametrize("horizon", [10 ** 4, 10 ** 5, 10 ** 6])
def test_registry_labels_hold_at_long_horizons(horizon):
    # a slow decay of A_n or C_n to 0 moves less than 1e-6 over the last
    # windows of 10^6 generations; the stabilized rule must weigh that
    # against the value itself, not against 1
    got = {}
    for sc in registry():
        label = classify(sc.model, limit_constants(sc.model, horizon))
        got[sc.id] = (label.regime, label.sub_label)
    assert got == EXPECTED


def test_registry_expected_regimes_match():
    for sc in registry():
        assert EXPECTED[sc.id][0] == sc.expected_regime


def test_ex5_oscillation_evidence():
    label = label_for("Ex5")
    assert "does not exist" in label.basis
    win = label.evidence.evidence["B_window_second"]
    assert win["max"] > 5 * win["min"]


def test_confidence_exact_vs_numeric():
    assert label_for("Ex1").confidence == "exact_family"
    model = validate_model(
        1.0, 1.0, EnvSequence.from_table([0.5] * 4),
        EnvSequence.from_table([0.5] * 4), check_horizon=4)
    label = classify(model, limit_constants(model, 100))
    assert label.confidence == "numeric"


def test_boundary_q_delta_detection():
    # c_n pinned at its upper admissibility bound: no mass ever reaches Delta
    model = scenario_model("Ex7i", sigma=1.0)
    label = classify(model, limit_constants(model, HORIZON))
    assert "q_delta = 0" in label.basis
    # off the boundary the marker is absent
    assert "q_delta" not in label_for("Ex7i").basis


def test_serialization():
    d = label_for("Ex6ii").to_dict()
    assert d["regime"] == "infinite_mean"
    assert d["sub_label"] == "ii"
    assert d["evidence"]["A"]["status"] == "determined"
