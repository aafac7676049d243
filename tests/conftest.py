"""Test settings shared by every test module.

Hypothesis draws its examples from a seed derived from each test, and keeps
no example database, so every run of the suite tries the same examples: a
rare float corner either fails every run or none.
"""

from hypothesis import settings

settings.register_profile("seeded", derandomize=True, database=None)
settings.load_profile("seeded")
