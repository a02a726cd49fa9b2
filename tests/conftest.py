"""Fixtures shared by the test modules."""

import pytest

from ratpark.verify import run_verify


@pytest.fixture(scope="session")
def default_verify_report():
    """The report of the default ``run_verify()``, run once per pytest run.

    Tests share the one report, so they read it and never change it.
    """
    return run_verify()
