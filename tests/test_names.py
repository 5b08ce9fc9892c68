"""Names of algebras, involutions and subgroups, read with str methods, held to
the regular expressions they replace.

The three patterns below are the grammar the CLI accepted when it parsed
these names with `re`; the parsers must accept and refuse the same names and
read the same numbers from them.  Digit runs stay short here: a run longer
than int() reads is refused by the parsers, where `re` plus int() raised
(see test_overlong_digit_runs_are_refused).
"""

import contextlib
import io as textio
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from focalis import algebras, cli
from focalis.errors import ValidationError
from focalis.roots import involution

ALGEBRA_PATTERN = r"(su|so)_?(\d+)"          # on the lowered, stripped --algebra / --group
INVOLUTION_PATTERN = r"ad_diag(?:_(\d+))?"    # on the lowered, stripped --theta
SO_PREFIX_PATTERN = r"^su_?0*"                # replaced by "so" to match --k1 soK to SU(K)

# Pieces of names: both cases, spaces, underscores, leading zeros, signs,
# decimal digits of other scripts (Arabic-Indic, Devanagari, full-width) and
# digit-like characters that are not decimal (superscript two).
_PIECES = st.sampled_from([
    "su", "SU", "sU", "so", "So", "ad_diag", "AD_Diag", "conj", "u1diag", "_", "__",
    "0", "00", "1", "3", "12", "0003", "-1", "٣", "٠", "१", "３", "²", " ", "\t", "-",
    "x", "İ", "(", ")",
])
_NAMES = st.one_of(st.lists(_PIECES, max_size=6).map("".join), st.text(max_size=8))


def _oracle_algebra(name):
    m = re.fullmatch(ALGEBRA_PATTERN, name)
    return (m.group(1), int(m.group(2))) if m else None


@given(_NAMES)
@settings(max_examples=500, deadline=None)
@example("su٣")
@example(" SU_003 ")
@example("so_")
@example("su²")
def test_algebra_names_read_as_the_pattern_did(raw):
    name = raw.lower().strip()
    assert algebras._family_and_size(name) == _oracle_algebra(name), raw


@pytest.mark.parametrize("raw,n", [("su٣", 3), (" SU_003 ", 3), ("So_0004", 4)])
def test_load_algebra_takes_what_the_pattern_took(raw, n):
    alg = algebras.load_algebra(raw)
    assert alg.matrix_size == n and alg.name == raw.strip().lower()[:2] + str(n)


def _involution_p(name, size):
    """The p of involution(name, size), or None where it is refused."""
    try:
        th = involution(name, size)
    except ValidationError:
        return None
    d = th(np.ones((size, size)))[0]    # the first row of d 1 d is d
    return "conj" if th is np.conj else int(np.sum(d > 0))


def _oracle_involution(name, size):
    name = name.lower().strip()
    if name == "conj":
        return "conj"
    if not name.startswith("ad_diag"):
        return None
    m = re.fullmatch(INVOLUTION_PATTERN, name)
    p = int(m.group(1) or size - 1) if m else None
    return p if p is not None and 1 <= p < size else None


@given(_NAMES, st.integers(2, 6))
@settings(max_examples=500, deadline=None)
@example("ad_diag_0", 3)
@example("ad_diag_-1", 3)
@example("AD_DIAG_٢", 4)
@example(" ad_diag_0002 ", 3)
@example("ad_diag_", 3)
@example("ad_diag", 5)
def test_involution_names_read_as_the_pattern_did(raw, size):
    assert _involution_p(raw, size) == _oracle_involution(raw, size), (raw, size)


@given(_NAMES)
@settings(max_examples=500, deadline=None)
@example("su_0003")
@example("su٠3")
@example("su")
@example("xsu3")
def test_so_name_is_the_pattern_substitution(algebra):
    assert cli._so_name(algebra) == re.sub(SO_PREFIX_PATTERN, "so", algebra)


def _run(argv):
    err = textio.StringIO()
    with contextlib.redirect_stdout(textio.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("argv", [
    ["roots", "--algebra", "su" + "0" * 5000 + "3"],
    ["roots", "--algebra", "su3", "--theta", "ad_diag_" + "9" * 5000],
    ["hyperpolar", "--group", f"SU({'9' * 5000})", "--k1", "son", "--k2", "son"],
])
def test_overlong_digit_runs_are_refused(argv):
    # int() reads at most sys.get_int_max_str_digits() digits; the pattern
    # accepted these names and int() then raised ValueError out of main
    code, err = _run(argv)
    assert code == cli.EXIT_INPUT_ERROR and err.startswith("error: ")
