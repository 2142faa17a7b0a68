"""Shared fixtures.

The schoolbook oracles live in ``reference_oracles.py``, not here: a test that
imports from ``conftest`` breaks when one run also collects perfbench/tests,
whose conftest module has the same name.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def small_contexts():
    from ecsquares import make_field_context

    return [make_field_context(p, b)
            for (p, b) in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3),
                           (3, 2), (2, 4), (5, 2), (3, 3)]]
