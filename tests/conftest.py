"""Hypothesis profiles for the test suite.

``ci`` runs the same examples as the default profile but skips the shrink
phase, so a failing property test reports its first failing example in
seconds instead of spending minutes shrinking it, and prints the blob that
replays it (``@reproduce_failure``). Select it with ``HYPOTHESIS_PROFILE=ci``.
"""

import os

from hypothesis import Phase, settings

settings.register_profile(
    "ci", phases=[phase for phase in Phase if phase is not Phase.shrink], print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
