"""The one hypothesis profile of the suite: every property test draws the
same examples on every run, keeps no example database on disk and has no
deadline; each test sets only its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("stabctab", derandomize=True, database=None, deadline=None)
settings.load_profile("stabctab")
