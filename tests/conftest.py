"""Shared fixtures."""

import os

import pytest

import regret_route


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports the same
    ``regret_route`` as the tests, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        regret_route.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))
