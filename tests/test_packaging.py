"""Package metadata checks: pyproject.toml declares only what exists."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pyproject():
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)


@pytest.fixture(scope="module")
def project(pyproject):
    return pyproject["project"]


def test_declared_scripts_import(project):
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in filter(None, attr.split(".")):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_declared_readme_exists(project):
    readme = project.get("readme")
    if readme is None:
        return
    path = readme if isinstance(readme, str) else readme["file"]
    assert (ROOT / path).is_file()


def test_pytest_pythonpath_entries_exist(pyproject):
    entries = pyproject["tool"]["pytest"]["ini_options"]["pythonpath"]
    assert entries
    for entry in entries:
        assert (ROOT / entry).is_dir(), entry


def test_pytest_testpaths_entries_exist(pyproject):
    entries = pyproject["tool"]["pytest"]["ini_options"]["testpaths"]
    assert entries
    for entry in entries:
        assert (ROOT / entry).is_dir(), entry
