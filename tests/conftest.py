import pytest

from gwtheta.memo import Memo


@pytest.fixture
def swap_memo(monkeypatch):
    """swap_memo(module, name, budget=None) puts a new, empty Memo in place
    of module.name for the test, keeping at most budget weights (the
    default budget when None), and returns it.  A later call swaps in
    another."""
    def swap(module, name, budget=None):
        memo = Memo()
        if budget is not None:
            memo.budget = budget
        monkeypatch.setattr(module, name, memo)
        return memo
    return swap
