"""Shared fixtures and the acceptance-results summary hook.

The expensive builds (q = 3, p = 307, k in {3, 4}, and q = 7, k = 3) are
session-scoped so the acceptance tests and the per-module tests share
them. Acceptance
tests register a verdict through record_acceptance; the terminal summary
prints one PASS/FAIL line per criterion after the normal pytest output.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_acceptance(num: int, name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[num] = (name, bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        name, ok, detail = ACCEPTANCE_RESULTS[num]
        line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def q3():
    from sidonbasis.ffpoly import PrimeModulus

    return PrimeModulus(3)


@pytest.fixture(scope="session")
def aux307():
    from sidonbasis.auxset import default_aux

    return default_aux()


@pytest.fixture(scope="session")
def params307(q3, aux307):
    from sidonbasis.builder import Params

    return Params(q=q3, aux=aux307, c=Fraction(7, 20), k_min=3, k_max=4, seed=0)


@pytest.fixture(scope="session")
def seq307(params307):
    from sidonbasis.builder import build_sequence

    return build_sequence(params307)


@pytest.fixture(scope="session")
def seq7(aux307):
    from sidonbasis.builder import Params, build_sequence
    from sidonbasis.ffpoly import PrimeModulus

    return build_sequence(Params(q=PrimeModulus(7), aux=aux307, k_min=3, k_max=3))


@pytest.fixture(scope="session")
def ytable307(aux307):
    from sidonbasis.auxset import build_y_table

    return build_y_table(aux307)
