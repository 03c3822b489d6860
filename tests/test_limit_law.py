import math

import pytest

from gwtheta.analytics import limit_constants, limit_law
from gwtheta.errors import NoLimitLaw
from gwtheta.harness import scenario_model

HORIZON = 10 ** 4

EXPECTED = {
    "Ex1": "T1", "Ex2": "T2", "Ex3": "T3", "Ex4a": "T4", "Ex4b": "T4",
    "Ex6i": "T6i", "Ex6ii": "T6ii", "Ex6iii": "T6iii", "Ex6iv": "T6iv",
    "Ex7i": "T7i", "Ex7ii": "T7ii", "Ex8i": "T8i", "Ex8ii": "T8ii",
    "Ex9i": "T9i", "Ex9ii": "T9ii", "Ex10i": "T10i", "Ex10ii": "T10ii",
}


def law_for(sid, subsequence=None):
    model = scenario_model(sid)
    return limit_law(model, limit_constants(model, HORIZON), subsequence)


@pytest.mark.parametrize("sid,tid", sorted(EXPECTED.items()))
def test_dispatch(sid, tid):
    assert law_for(sid).theorem_id == tid


def test_ex5_requires_subsequence():
    with pytest.raises(NoLimitLaw):
        law_for("Ex5")


def test_ex5_subsequence_dispatch():
    up = law_for("Ex5", subsequence=[2 ** m for m in range(4, 13)])
    down = law_for("Ex5", subsequence=[2 ** m - 1 for m in range(4, 13)])
    assert up.theorem_id == "T5i"
    assert down.theorem_id == "T5ii"
    assert down.param("B") == pytest.approx(1.0, rel=1e-2)


def test_descriptor_serialization():
    law = law_for("Ex2")
    d = law.to_dict()
    # the descriptor's ThetaLaw is not part of the record
    assert set(d) == {"theorem_id", "kind", "parameters", "scaling"}
    assert d["theorem_id"] == "T2"
    assert d["parameters"]["A"] == pytest.approx(1 / 3, rel=1e-3)
    assert "pgf" in d["kind"]


@pytest.mark.parametrize("sid", sorted(set(EXPECTED) - {"Ex1", "Ex3",
                                                        "Ex6i", "Ex6ii"}))
def test_pgf_laws_are_monotone_on_the_grid(sid):
    law = law_for(sid)
    vals = [law.evaluate(j / 10) for j in range(11)]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
    assert vals[-1] <= max(1.0, scenario_model(sid).r) + 1e-12


def test_conditional_laws_vanish_at_zero():
    # pgf laws stated for Z_n conditioned on survival put no mass at 0
    for sid in ("Ex4a", "Ex4b", "Ex6iii", "Ex7i", "Ex8i", "Ex9i",
                "Ex10i"):
        law = law_for(sid)
        assert law.evaluate(0.0) == pytest.approx(0.0, abs=1e-6), sid


def test_laplace_laws_decrease_in_lambda():
    for sid in ("Ex1", "Ex3"):
        law = law_for(sid)
        vals = [law.evaluate(x) for x in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_t6_cdf_laws():
    law1 = law_for("Ex6i")
    assert law1.evaluate(0.0) == 0.0
    assert law1.evaluate(50.0) == pytest.approx(1.0)
    law2 = law_for("Ex6ii")
    # defect at the origin: P(limit = 0) = 1 - D
    assert law2.evaluate(0.0) == pytest.approx(1 - math.exp(-1), rel=1e-3)


def test_t4_law_mean_matches_statement():
    # derivative of the conditional limit pgf at s=1 equals (1+B)^{1/theta}
    law = law_for("Ex4b")
    B = law.param("B")
    h = 1e-7
    num = (law.evaluate(1.0) - law.evaluate(1.0 - h)) / h
    assert num == pytest.approx((1 + B) ** (1 / 1.0), rel=1e-4)
