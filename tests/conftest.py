"""Shared test setup: every hypothesis test is seeded and bit-reproducible.

The profile derives each test's examples from the test itself and keeps no
example database, so two runs of the suite draw the same examples.  Tests
still set their own ``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
