from __future__ import annotations

import pytest

from reptile_lab.scenarios import (case_a_enumeration, final_case_analysis,
                                   run_scenario)


@pytest.fixture(scope="session")
def case_analyses():
    return {key: final_case_analysis(key)
            for key in ("quarter", "fifth", "ninth")}


@pytest.fixture(scope="session")
def case_a_diagrams():
    return case_a_enumeration()


@pytest.fixture(scope="session")
def reports():
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = run_scenario(name)
        return cache[name]

    return get
