"""Hypothesis draws the same examples on every run, so a Tier-1 result
repeats."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
