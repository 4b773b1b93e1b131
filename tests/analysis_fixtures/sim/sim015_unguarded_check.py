"""Fixture: SIM015 -- a runtime contract outside its guard."""

from repro.analysis import contracts


class Counter:
    def __init__(self, limit):
        self.limit = limit
        self.value = 0

    def unguarded_bump(self):
        self.value += 1
        contracts.check(self.value <= self.limit, "over limit")  # VIOLATION

    def guarded_bump(self):
        self.value += 1
        if contracts.enabled:
            contracts.check(self.value <= self.limit, "over limit")

    def helper_bump(self):
        self.value += 1
        if contracts.enabled:
            self._check_value()

    def _check_value(self):
        # Only ever called under the guard, so its checks count as guarded.
        contracts.check(0 <= self.value <= self.limit, "out of range")

    def suppressed_bump(self):
        self.value += 1
        contracts.check(self.value <= self.limit, "over")  # simlint: disable=SIM015
