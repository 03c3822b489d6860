"""The one keep rule of the constants walks, pmf weights and sampler tables."""

import threading
from collections import OrderedDict

MEMO_WEIGHTS = 2 ** 17           # weights a memo keeps in all, 1 MiB


class Memo:
    """key -> (value, the weights its owner counts), least recently used
    first; total, their sum, stays within budget.  Every call holds the
    lock, so threads may share a memo."""

    def __init__(self):
        self.budget, self.total = MEMO_WEIGHTS, 0
        self._kept, self._lock = OrderedDict(), threading.Lock()

    def get(self, key, default=None):
        """The value under key, now the most recently used, or default."""
        with self._lock:
            if key in self._kept:
                self._kept.move_to_end(key)
            return self._kept.get(key, (default,))[0]

    def take(self, key):
        """The value under key, taken out to be changed, or None."""
        with self._lock:
            value, weights = self._kept.pop(key, (None, 0))
            self.total -= weights
            return value

    def put(self, key, value, weights: int) -> None:
        """Keep value under key as the most recently used, evicting the
        least recently used past the budget; not one over it on its own."""
        if weights <= self.budget:
            with self._lock:
                self.total += weights - self._kept.pop(key, (None, 0))[1]
                self._kept[key] = (value, weights)
                while self.total > self.budget:
                    self.total -= self._kept.popitem(last=False)[1][1]

    def items(self) -> list:
        """(key, value) pairs, least recently used first, order unchanged."""
        with self._lock:
            return [(key, kept[0]) for key, kept in self._kept.items()]
