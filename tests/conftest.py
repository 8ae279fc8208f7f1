"""Shared pytest configuration: deterministic Hypothesis profiles.

Two profiles are registered:

``ci``   fully deterministic — ``derandomize=True`` replays the same
         example sequence on every run, and ``deadline=None`` removes
         per-example wall-clock deadlines so a slow shared runner cannot
         flake an otherwise-passing property test.
``dev``  the default for local runs — randomized example generation
         (fresh seeds each run) so local testing keeps exploring new
         inputs, still without wall-clock deadlines.

Select with ``HYPOTHESIS_PROFILE=ci`` (the CI workflow sets this);
local runs default to ``dev``.

Under ``python -X dev`` (the CI asyncio-debug step) anything asyncio
reports through its logger at ERROR — a task destroyed while pending, a
task or future exception nobody retrieved, an unhandled exception in a
callback — fails the test during which it was logged.
"""

import logging
import os
import sys

import pytest

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis is optional locally
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.register_profile("dev", deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

#: Per-test wall-clock defaults, enforced only where pytest-timeout is
#: installed (CI; the plugin is deliberately not a local requirement).  A
#: hung scheduler or a model-checking run that fails to converge should
#: fail its own test, not stall the whole suite.
DEFAULT_TIMEOUT_S = 120
SLOW_TIMEOUT_S = 600


def pytest_collection_modifyitems(config, items):
    if not config.pluginmanager.hasplugin("timeout"):
        return  # pytest-timeout absent (local run): markers are inert labels
    for item in items:
        if item.get_closest_marker("timeout") is None:
            limit = SLOW_TIMEOUT_S if item.get_closest_marker("slow") else DEFAULT_TIMEOUT_S
            item.add_marker(pytest.mark.timeout(limit))


@pytest.fixture(autouse=sys.flags.dev_mode)
def asyncio_errors_fail(caplog):
    yield
    errors = [
        record.getMessage()
        for record in caplog.get_records("call")
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]
    assert not errors, f"asyncio reported: {errors}"
