"""The package surface: ehpolicy re-exports each module's public names once,
and the benchmark's span recorder finds every name it wraps."""

from pathlib import Path

import pytest

import ehpolicy
from ehpolicy import arrivals, checks, evaluation, metrics, policies, rewards

MODULES = (arrivals, checks, evaluation, metrics, policies, rewards)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_is_the_modules_lists_plus_the_version_without_duplicates():
    assert len(set(ehpolicy.__all__)) == len(ehpolicy.__all__)
    names = [name for module in MODULES for name in module.__all__]
    assert sorted(ehpolicy.__all__) == sorted(names + ["__version__"])


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_export_is_the_modules_own_object(module):
    for name in module.__all__:
        assert getattr(ehpolicy, name) is getattr(module, name), name


def test_span_recorder_installs_and_uninstalls(monkeypatch):
    # the recorder wraps names where their callers look them up, such as
    # policies.ladder_sum; a missing one raises KeyError in install
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    recorder = spans.Recorder()
    try:
        recorder.install()
        assert policies.ladder_sum is not rewards.ladder_sum
    finally:
        recorder.uninstall()
    assert policies.ladder_sum is rewards.ladder_sum
