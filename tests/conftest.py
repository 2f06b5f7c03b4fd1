"""Test-tier plumbing: the ``slow``/``fast`` marker split.

The tier-1 command (``python -m pytest -x -q``) excludes ``slow`` tests by
default via the ``-m "not slow"`` in ``addopts`` (pyproject.toml). Two ways
to run the full suite:

* ``python -m pytest --runslow`` — clears the default marker filter.
* ``python -m pytest -m "slow or not slow"`` — a later ``-m`` overrides
  the one from ``addopts``.

Every test not marked ``slow`` is automatically tagged ``fast``, so the
fast tier can also be selected explicitly with ``-m fast``.

Hypothesis runs under one of two profiles, chosen by ``HYPOTHESIS_PROFILE``:

* ``tier1`` (default) — derandomized and without an example database, so
  every run draws the same examples and a failure found once is not
  replayed from a local ``.hypothesis/`` store;
* ``nightly`` — random examples, five times as many where a test does not
  fix its own count; the nightly full-suite job selects it.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("nightly", max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run the slow tier too (clears the default -m 'not slow')",
    )


def pytest_configure(config):
    if config.getoption("--runslow") and config.option.markexpr == "not slow":
        config.option.markexpr = ""


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.get_closest_marker("slow") is None:
            item.add_marker(pytest.mark.fast)
