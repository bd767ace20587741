"""Fixture catalog: diagram definitions, frozen expected values, anchors.

Checkpoint anchors have the form "<file>:<path>" where <file> is one of the
JSON fixtures in the package data directory and <path> walks its keys with
slashes.  Every anchor used in a report must name an entry of these files.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .coxeter import CoxeterDiagram

_FILES = ("diagrams", "expectations", "ab_pairs")


@lru_cache(maxsize=None)
def load(name: str) -> dict:
    if name not in _FILES:
        raise KeyError(f"unknown fixture file {name!r}")
    ref = resources.files("reptile_lab") / "fixtures" / f"{name}.json"
    with ref.open("r") as f:
        return json.load(f)


@lru_cache(maxsize=None)
def diagram(key: str) -> CoxeterDiagram:
    return CoxeterDiagram.from_fixture(load("diagrams")[key])
