"""Hypothesis profiles, selected by ``HYPOTHESIS_PROFILE``.

* ``tier1`` (the default): derandomized, so every run draws the same
  examples and a property test cannot pass on one run and fail on the
  next; no deadline, because a cold first example (imports, a BLAS
  warm-up) can take longer than any later one.
* ``nightly``: ten times the examples, still derandomized, for the
  scheduled run of the property-test files.

Tests that pin ``max_examples`` in their own ``@settings`` keep that
count under both profiles; everything else they leave unset comes from
the loaded profile.

Hypothesis is optional here: test files that do not use it (the docs
and telemetry checks) run where it is not installed, and then no
profile is registered.
"""

import os

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile(
        "tier1", derandomize=True, deadline=None, max_examples=100
    )
    settings.register_profile(
        "nightly", derandomize=True, deadline=None, max_examples=1000
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
