"""Fixtures shared by several test modules."""

import contextlib
import io
import time

import pytest

from periodkit.cli import main


@pytest.fixture(scope="session")
def verify_all_seed42():
    """One in-process ``pk verify --suite all --seed 42``: (exit code, stdout, seconds)."""
    out = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out):
        rc = main(["verify", "--suite", "all", "--seed", "42"])
    return rc, out.getvalue(), time.monotonic() - start
