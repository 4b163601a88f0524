"""Shared hypothesis profile: property tests draw the same examples on every
run (derandomize) and have no per-example deadline, so neither the seed nor
the speed of the host decides whether they pass."""

from hypothesis import settings

settings.register_profile("kuracomp", deadline=None, derandomize=True)
settings.load_profile("kuracomp")
