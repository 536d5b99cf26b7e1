"""Shared test settings.

Every hypothesis test draws its examples from a fixed seed and has no
deadline, so a tier-1 run gives the same result every time it is repeated.
"""

from hypothesis import settings

settings.register_profile("hydro2d", derandomize=True, deadline=None)
settings.load_profile("hydro2d")
