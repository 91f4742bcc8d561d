"""GGT_SEED drives the randomized property tests only; every claim
check is deterministic.  The hypothesis tests run under the "braidcat"
profile: derandomized, so each run draws the same examples; no
deadline, since the speed of a shared host drifts; and a bounded
number of examples, so the suite stays short."""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None

HYPOTHESIS_PROFILE = "braidcat"

if settings is not None:
    settings.register_profile(
        HYPOTHESIS_PROFILE, derandomize=True, deadline=None, max_examples=60, database=None
    )
    settings.load_profile(HYPOTHESIS_PROFILE)


def pytest_report_header(config):
    header = [f"GGT_SEED={os.environ.get('GGT_SEED', '17 (default)')}"]
    if settings is not None:
        header.append(f"hypothesis profile: {settings.get_current_profile_name()}")
    return header
