"""The traced benchmark run (``perfbench/run.py --trace 1``) patches library
functions at their import sites. This checks that every site it names still
exists, so a refactor that drops one fails here rather than in the benchmark."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracer")
    sys.modules.pop("tracer", None)


def _module(site):
    return importlib.import_module(f"dpsketch.{site}" if site else "dpsketch")


def test_tracer_hooks_install_and_uninstall(tracer_module):
    patches = tracer_module.PATCHES
    sites = [(name, site) for name, _, hook_sites, _ in patches for site in hook_sites]
    for name, site in sites:
        assert hasattr(_module(site), name), f"dpsketch.{site}.{name} is gone"
    originals = {(name, site): getattr(_module(site), name) for name, site in sites}
    homes = {name: getattr(_module(layer), name) for name, layer, _, _ in patches}
    suites = dict(_module("suites").SUITES)

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        hooks = [getattr(_module(site), name) for name, site in sites]
        assert len(hooks) == 38
        for (name, _), hook in zip(sites, hooks):
            assert hook.__wrapped__ is homes[name]
    finally:
        tracer.uninstall()

    for (name, site), original in originals.items():
        assert getattr(_module(site), name) is original
    assert _module("suites").SUITES == suites
