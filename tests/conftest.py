"""Shared test helpers."""

import pytest

from safevote.core import Profile


class _CountedScans(dict):
    """A profile's ballot counts that record each full scan of them."""

    scans = 0

    def items(self):
        self.scans += 1
        return super().items()


@pytest.fixture
def scanned():
    """A fresh copy of a profile whose `counts.scans` tells how often a
    scorer read all of its ballots."""

    def copy(profile: Profile) -> Profile:
        fresh = Profile(profile.orders)
        object.__setattr__(fresh, "counts", _CountedScans(fresh.counts))
        return fresh

    return copy
