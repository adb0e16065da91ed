"""A grammar fuzz of the CLI: every input ends in exit 0, 2 or 3, and a
nonzero exit prints nothing on stdout and one ``error: ...`` line on stderr.

Expressions are drawn from the builtins, the binary operators, ``^`` and edge
atoms, then run through ``cli.main`` in-process, plain and with ``--json``.
The ``^`` exponents include 100000: a large power of a sum ends in exit 3,
by the term budget of products or the bit bound on the coefficients of a
power of a sum.  The grammar leaves out two known escapes, each an open
ROADMAP item:

- ``grandi`` is not drawn: with a count of at most zero it raises a bare
  ``ValueError``, which perfbench's own tests pin (items 1 and 6);
- no chain is long: a chain of 1000 operands ends in ``RecursionError``
  (item 4).
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from grossone.cli import main
from grossone.exprlang import BINARY_OPERATORS, BUILTINS

ATOMS = ["0", "-1", "G^-1", "(3/2)^G", "G^(1/2)", "10^5000", "{}", "on", "zz", "G+1", "2*G"]
EXPONENTS = ["-1", "0", "1", "2", "(1/2)", "G", "100000"]
NAMES = sorted(set(BUILTINS) - {"grandi"})


def expressions(depth: int):
    atoms = st.sampled_from(ATOMS)
    if depth == 0:
        return atoms
    sub = expressions(depth - 1)
    return st.one_of(
        atoms,
        st.builds("({}) {} ({})".format, sub, st.sampled_from(list(BINARY_OPERATORS)), sub),
        st.builds("({})^{}".format, sub, st.sampled_from(EXPONENTS)),
        st.builds(lambda name, args: f"{name}({', '.join(args)})",
                  st.sampled_from(NAMES), st.lists(sub, max_size=3)),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expressions(3))
def test_every_input_ends_in_a_documented_exit_code_with_one_line(line):
    for flags in ([], ["--json"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(flags + ["--eval", line])
        assert code in (0, 2, 3), (line, flags, code)
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
