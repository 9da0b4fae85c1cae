import os
import sys
from pathlib import Path

from hypothesis import settings

try:
    import disknorms  # noqa: F401
except ImportError:  # running from a checkout without installation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# "ci", the default, draws the same examples on every run and keeps no
# example database, so a run's verdict depends only on the commit; a failure
# prints the blob that reproduces it.  HYPOTHESIS_PROFILE=fuzz draws random
# examples, FUZZ_FACTOR times each test's max_examples; pin what it finds
# with @example.
FUZZ_FACTOR = 20
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "ci")
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.register_profile("fuzz", derandomize=False, print_blob=True)
settings.load_profile(PROFILE)


def pytest_collection_modifyitems(items):
    """Under the fuzz profile, scale every property test's max_examples, its
    own @settings value included, by FUZZ_FACTOR, once per test function."""
    if PROFILE != "fuzz":
        return
    for test in {item.obj for item in items
                 if getattr(getattr(item, "obj", None), "is_hypothesis_test", False)}:
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=FUZZ_FACTOR * own.max_examples)
