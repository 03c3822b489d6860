"""memo.Memo, the keep rule of the constants walks, the pmf weights and the
sampler tables: least recently used evicted first, within a budget of
weights.  Each module's serve rule is tested with that module."""

import random
import sys
import threading

from gwtheta.memo import MEMO_WEIGHTS, Memo


def _check(memo, weights):
    """total is the sum of the kept values' weights, within budget."""
    assert memo.total == sum(weights[key] for key, _ in memo.items())
    assert memo.total <= memo.budget


def test_new_memo_is_empty_with_the_default_budget():
    memo = Memo()
    assert (memo.items(), memo.total, memo.budget) == ([], 0, MEMO_WEIGHTS)
    assert memo.get("a") is None and memo.get("a", 7) == 7
    assert memo.take("a") is None


def test_least_recently_used_is_evicted_first():
    memo = Memo()
    memo.budget = 30
    weights = {k: 10 for k in "abcd"}
    for key in "abc":
        memo.put(key, key.upper(), 10)
    assert [k for k, _ in memo.items()] == ["a", "b", "c"]
    assert memo.get("a") == "A"                 # now the most recent
    assert [k for k, _ in memo.items()] == ["b", "c", "a"]
    memo.put("d", "D", 10)
    assert memo.items() == [("c", "C"), ("a", "A"), ("d", "D")]
    _check(memo, weights)
    # a heavier value evicts as many as it takes
    memo.put("e", "E", 25)
    weights["e"] = 25
    assert memo.items() == [("e", "E")]
    _check(memo, weights)


def test_items_leaves_the_order_as_it_is():
    memo = Memo()
    for key in "abc":
        memo.put(key, key, 1)
    memo.items()
    memo.put("d", "d", memo.budget - 2)         # evicts only "a"
    assert [k for k, _ in memo.items()] == ["b", "c", "d"]


def test_value_over_budget_is_not_kept():
    memo = Memo()
    memo.budget = 30
    memo.put("a", "A", 10)
    memo.put("b", "B", 31)
    assert memo.items() == [("a", "A")] and memo.total == 10
    # nor in place of a value under its key
    memo.put("a", "AA", 31)
    assert memo.items() == [("a", "A")] and memo.total == 10
    # a value of the whole budget fits, in place of all the others
    memo.put("c", "C", 30)
    assert memo.items() == [("c", "C")] and memo.total == 30
    # a budget of 0 keeps nothing that has weights
    empty = Memo()
    empty.budget = 0
    empty.put("d", "D", 1)
    assert empty.items() == [] and empty.total == 0


def test_put_replaces_the_value_under_a_key():
    memo = Memo()
    memo.put("a", "A", 10)
    memo.put("b", "B", 5)
    memo.put("a", "AA", 20)                     # most recent, new weights
    assert memo.items() == [("b", "B"), ("a", "AA")]
    _check(memo, {"a": 20, "b": 5})


def test_take_removes():
    memo = Memo()
    memo.put("a", "A", 10)
    memo.put("b", "B", 5)
    assert memo.take("a") == "A"
    assert memo.items() == [("b", "B")] and memo.total == 5
    assert memo.take("a") is None and memo.get("a") is None
    memo.put("a", "A", 10)                      # back as the most recent
    assert memo.items() == [("b", "B"), ("a", "A")] and memo.total == 15


def test_four_threads_keep_the_total_and_the_budget():
    # each thread puts, gets and takes over keys the others use too, with
    # a budget that makes them evict each other's values
    memo = Memo()
    memo.budget = 100
    weights = {key: 1 + key % 17 for key in range(40)}
    start = threading.Barrier(4, timeout=60)
    wrong = []

    def worker(t):
        rng = random.Random(t)
        start.wait()
        for _ in range(10000):
            key = rng.randrange(40)
            op = rng.random()
            if op < 0.5:
                memo.put(key, (key, t), weights[key])
            elif op < 0.8:
                got = memo.get(key)
            else:
                got = memo.take(key)
            if op >= 0.5 and got is not None and got[0] != key:
                wrong.append((key, got))
    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    _check(memo, weights)
    assert all(value[0] == key for key, value in memo.items())
