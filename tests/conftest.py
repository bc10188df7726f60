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


@pytest.fixture
def empty_table_memo(monkeypatch):
    """Clear the Held-Karp table pricing holds, so a test that counts
    table builds does not depend on what earlier tests solved."""
    from regret_route import pricing
    monkeypatch.setattr(pricing, "_held", None)


@pytest.fixture
def hk_builds(monkeypatch, empty_table_memo):
    """The instances HKTable is constructed for, in order, from an empty
    memo on."""
    from regret_route.pricing import HKTable
    init, built = HKTable.__init__, []

    def counting(self, inst, *args, **kwargs):
        built.append(inst)
        init(self, inst, *args, **kwargs)

    monkeypatch.setattr(HKTable, "__init__", counting)
    return built


@pytest.fixture
def plan_builds(monkeypatch, empty_table_memo):
    """The (kind, budget) of every ScanPlan built, in order, from an empty
    memo on."""
    from regret_route.pricing import ScanPlan
    init, built = ScanPlan.__init__, []

    def counting(self, table, kind, budget):
        built.append((kind, budget))
        init(self, table, kind, budget)

    monkeypatch.setattr(ScanPlan, "__init__", counting)
    return built
