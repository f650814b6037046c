"""The benchmark times the package by wrapping the functions bench/spans.py
names. A renamed or removed target does not fail the benchmark: every metric
built from its span reads null with "missing". This test fails instead."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name, path",
    [(module_name, path) for _, module_name, path, _ in load_targets()],
    ids=lambda value: value,
)
def test_wrap_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}:{path} has no {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)
