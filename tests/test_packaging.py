"""Packaging metadata against the dependencies it declares."""

import re
import tomllib
from importlib.metadata import metadata
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def python_floor(spec: str) -> tuple[int, ...]:
    """The version a ``>=X.Y`` Requires-Python specifier starts at."""
    m = re.fullmatch(r">=\s*(\d+(?:\.\d+)*)", spec.strip())
    assert m, f"not a plain >= floor: {spec!r}"
    return tuple(int(part) for part in m[1].split("."))


@pytest.mark.parametrize("dependency", ["numpy", "scipy"])
def test_python_floor_is_not_below_a_dependency_s_own(dependency):
    # an interpreter pip accepts for fdcurves must be one its installed
    # numpy and scipy accept too
    ours = tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"]
    theirs = metadata(dependency)["Requires-Python"]
    assert python_floor(ours) >= python_floor(theirs)
