"""The one hypothesis profile of the suite: every property test draws the
same examples on every run, keeps no example database on disk and has no
deadline; each test sets only its own ``max_examples``.  Hypothesis's own
caches go to a temporary directory that the session removes, so a run
leaves nothing in the directory it ran from."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.TemporaryDirectory(prefix="stabctab-hypothesis-")
set_hypothesis_home_dir(_HOME.name)

settings.register_profile("stabctab", derandomize=True, database=None, deadline=None)
settings.load_profile("stabctab")


def pytest_unconfigure(config):
    # the last hook of a run: hypothesis may still write into its home when
    # it reports a failure, after the session has finished
    _HOME.cleanup()
