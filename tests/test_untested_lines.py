"""The statement-minus-hits rule of tools/untested_lines.py on a toy source."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "untested_lines", ROOT / "tools" / "untested_lines.py")
untested_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untested_lines)

TOY = '''\
"""Module docstring."""
import math

LIMIT = 10


def f(x):
    """Docstring."""
    global LIMIT
    if x > LIMIT:
        return math.sqrt(
            x)
    try:
        y = 1 / x
    except ZeroDivisionError:
        y = 0
    return y


class C:
    kind = "c"

    @property
    def g(self):
        return 1
'''


def test_statements_less_hits_on_a_toy_source():
    # module level (2, 4, 7, 20), docstrings (1, 8), global (9) and try
    # (13) are never reported; a statement is run when any line it owns
    # is, and an `except` line belongs to no statement
    run = untested_lines.untested
    every = [10, 11, 14, 16, 17, 21, 24, 25]
    assert run(TOY, set()) == every
    # the two lines of the return, the decorator of g
    assert run(TOY, {12, 23}) == [10, 14, 16, 17, 21, 25]
    # the `if` header without its body, the class body without g's body
    assert run(TOY, {10, 14, 17, 21, 24}) == [11, 16, 25]
    # the except line alone runs none of its statements
    assert run(TOY, {15}) == every
