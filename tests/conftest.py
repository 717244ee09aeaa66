"""Shared pytest hooks: surface acceptance verdict lines in the summary,
and find the objects only the cyclic garbage collector could free."""

import gc
from collections import Counter

import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _unreachable_after(fn, *args, **kwargs) -> Counter:
    """Call fn with the cyclic collector off, then collect with
    DEBUG_SAVEALL: the type names, with counts, of the objects fn left that
    reference counting could not free.  Empty when fn made no cycle."""
    gc.collect()
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    start = len(gc.garbage)
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        fn(*args, **kwargs)
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage[start:])
    finally:
        del gc.garbage[start:]
        gc.set_debug(flags)
        if was_enabled:
            gc.enable()


@pytest.fixture
def unreachable_after():
    """_unreachable_after, for a test to run its code under."""
    return _unreachable_after
