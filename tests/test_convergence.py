import numpy as np
import pytest

from gwtheta.analytics import (FAILS, HOLDS, _blocks, _series_verdict,
                               convergence_conditions)
from gwtheta.environment import ThetaLaw
from gwtheta.harness import registry, scenario_model

HORIZON = 2000


def report(sid):
    return convergence_conditions(scenario_model(sid), HORIZON)


def test_stabilization_series_holds_on_ex2():
    rep = report("Ex2")
    assert rep.church_lindvall == HOLDS
    assert rep.condition_a0 == HOLDS
    assert rep.sum_one_minus_a < float("inf")


def test_stabilization_series_fails_on_ex1():
    rep = report("Ex1")
    assert rep.church_lindvall == FAILS
    assert rep.condition_a0 == FAILS


def test_infinite_mean_conditions_split():
    # sigma = 0 with convergent multipliers: both sums converge
    rep = report("Ex6iv")
    assert rep.condition_a0 == HOLDS
    assert rep.condition_A1 == HOLDS
    # sigma = 1: the log factor grows like i and the weighted sum diverges
    rep = report("Ex6iii")
    assert rep.condition_a0 == HOLDS
    assert rep.condition_A1 == FAILS


def test_partial_sums_are_monotone():
    rep = report("Ex3")
    for key, sums in rep.partial_sums.items():
        assert sums[0] <= sums[1] <= sums[2], key


def test_tilde_variant_tracks_defective_case():
    # in the defective Ex7ii the normalized one-step laws stabilize as well
    rep = report("Ex7ii")
    assert rep.tilde_cl == HOLDS
    assert report("Ex7i").tilde_cl == FAILS


def test_serialization():
    d = report("Ex2").to_dict()
    assert d["church_lindvall"] == HOLDS
    assert d["horizon"] == HORIZON
    assert set(d["partial_sums"]) == {"cl", "one_minus_a", "A1", "tilde"}


@pytest.mark.parametrize("sid", [sc.id for sc in registry()])
def test_tilde_sums_equal_the_divided_form(sid):
    # for r = 1 and theta >= 0 the tilde terms take g(1) = 1.0 without
    # evaluating it; over the whole walk the sums and verdicts must be those
    # of 1 - p1 / g(1), the only series that reads g(1)
    model = scenario_model(sid)
    horizon = 10 ** 4
    rep = convergence_conditions(model, horizon)
    marks = (horizon // 4, horizon // 2, horizon)
    total, snap = 0.0, []
    for blk in _blocks(model, horizon):
        law = ThetaLaw(model.theta, model.r, blk.a, blk.c,
                       (1.0 - blk.a) * blk.lg if model.theta == 0.0 else None)
        term = 1.0 - law.weight_one() / law.pgf(1.0)
        partial = np.cumsum(np.concatenate(([total], term)))[1:]
        total = partial[-1]
        snap += [partial[m - blk.n0].item() for m in blk.picks(marks)]
    assert rep.partial_sums["tilde"] == snap
    assert rep.tilde_cl == _series_verdict(*snap)
