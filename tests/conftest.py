import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from logbound import exprjet  # noqa: E402


@pytest.fixture(autouse=True)
def cold_reference_slots():
    """Each test starts and ends with no kept reference slots (see
    exprjet.Tape): a test that patches a series rule walks the references
    by that rule, and leaves none of the values it gave behind."""
    exprjet._REFERENCE_SLOTS.clear()
    yield
    exprjet._REFERENCE_SLOTS.clear()
