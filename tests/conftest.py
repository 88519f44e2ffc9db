"""Shared fixtures: the six-row hourly database and its hand-built pattern table.

The database is the smallest one that exercises every interesting case at
once: a dominant row repeated four times, a rarer variant twice, a pattern
table whose best cover mixes a triple, a pair, and a singleton.
"""

import pytest

from helpers import make_db
from mdlpatterns.codec import init_pattern_table, recompute_usages

# Verdict lines recorded by the acceptance tests; printed after the run so
# they survive output capture.
VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)

SIX_ROW_COMBOS = [(1, 2, 1)] * 4 + [(1, 2, 2)] * 2

TRIPLE = frozenset({("PB", 1), ("LQ", 2), ("RB", 1)})
PAIR = frozenset({("PB", 1), ("LQ", 2)})
RB2 = frozenset({("RB", 2)})


@pytest.fixture
def six_rows():
    """4x (PB:1, LQ:2, RB:1) then 2x (PB:1, LQ:2, RB:2), hourly timestamps."""
    return make_db(SIX_ROW_COMBOS)


@pytest.fixture
def worked_table(six_rows):
    """Singletons plus the triple and the pair, usages settled by re-covering.

    Settles to triple=4 (rows 1-4), pair=2 and RB:2=2 (rows 5-6); every
    plain singleton ends up unused.
    """
    table = init_pattern_table(six_rows)
    table.usages.update({TRIPLE: 4, PAIR: 6})
    recompute_usages(table, six_rows)
    return table
