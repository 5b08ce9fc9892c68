"""Rules on the source of focalis itself, read from its syntax trees.

Each rule is a function of {file name: source text} returning what breaks
it, run on src/focalis and, so that a rule that reads nothing shows, on a
source planted with one violation."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "focalis"
TABLE = "errors.py"     # the table of bounds, and verdict, the helper that builds "passed"
BOUND_SUFFIXES = ("_TOL", "_THRESHOLD", "_TOLERANCE")


def sources() -> dict:
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def table_rows(source: str) -> list:
    """(name, value, comment) of every module-level float constant of the
    table's source, in order; the comment is the text after its '#'."""
    lines = source.splitlines()
    return [(node.targets[0].id, node.value.value, lines[node.lineno - 1].partition("#")[2].strip())
            for node in ast.parse(source).body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, float)]


def einsum_path_searches(srcs: dict) -> list:
    # np.einsum(..., optimize=...) runs numpy's pure-Python path search on every
    # call (0.6-1.9 ms in a fresh report process), and the pairwise order it
    # picks may change with shapes or the numpy version, and with it the bits of
    # a result.  Contractions that need an order spell it out as matmuls.
    return [f"{name}:{node.lineno}" for name, text in srcs.items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
            and any(k.arg == "optimize" for k in node.keywords)]


def unread_or_stray_bounds(srcs: dict) -> list:
    # a row of the table that no line of src/ reads bounds nothing, yet a
    # reader takes it for a check the library makes; a bound defined outside
    # the table is one the table does not show
    reads, found = set(), []
    for name, text in srcs.items():
        tree = ast.parse(text)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)]
            found += [f"{name}:{t.id} outside the table" for t in targets
                      if name != TABLE and isinstance(t, ast.Name)
                      and t.id.endswith(BOUND_SUFFIXES) and isinstance(node.value, ast.Constant)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    rows = table_rows(srcs[TABLE])
    return found + [f"{TABLE}:{row} unread" for row, _, _ in rows if row not in reads] + (
        [] if rows else ["the table has no rows"])


def passed_outside_verdict(srcs: dict) -> list:
    # a report's "passed" is built by verdict alone: a dict key, a subscript
    # assignment or a keyword named "passed" anywhere else builds it by hand
    found = []
    for name, text in srcs.items():
        tree = ast.parse(text)
        helper = {id(n) for f in tree.body if name == TABLE and isinstance(f, ast.FunctionDef)
                  and f.name == "verdict" for n in ast.walk(f)}
        for node in ast.walk(tree):
            keys = (node.keys if isinstance(node, ast.Dict)
                    else [node.slice] if isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store) else [])
            if id(node) not in helper and (
                    any(isinstance(k, ast.Constant) and k.value == "passed" for k in keys)
                    or isinstance(node, ast.keyword) and node.arg == "passed"):
                found.append(f"{name}:{node.lineno}")
    return found


def small_literals_in_comparisons(srcs: dict) -> list:
    # a bound below 1e-6 written where it is compared is a tolerance the table
    # does not hold
    return [f"{name}:{node.lineno}" for name, text in srcs.items()
            for compare in ast.walk(ast.parse(text)) if isinstance(compare, ast.Compare)
            for node in ast.walk(compare)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0.0 < abs(node.value) < 1e-6]


PLANTED = {
    einsum_path_searches: "np.einsum('ij,jk', a, b, optimize=True)\n",
    unread_or_stray_bounds: "SPREAD_TOL = 1e-9\n",
    passed_outside_verdict: "report['passed'] = residual < bound\n",
    small_literals_in_comparisons: "ok = residual <= 1e-9 * (1.0 + scale)\n",
}


def test_no_einsum_path_search():
    assert einsum_path_searches(sources()) == []


def test_every_bound_is_read():
    assert unread_or_stray_bounds(sources()) == []


def test_passed_is_built_by_verdict_alone():
    assert passed_outside_verdict(sources()) == []


def test_no_small_literal_in_a_comparison():
    assert small_literals_in_comparisons(sources()) == []


def test_every_rule_finds_a_planted_violation():
    for rule, planted in PLANTED.items():
        assert rule({**sources(), "planted.py": planted}) != [], rule.__name__
    # a row no line reads
    table = sources()[TABLE] + "\nUNREAD_TOL = 1e-9  # pure: nothing\n"
    assert unread_or_stray_bounds({**sources(), TABLE: table}) == [f"{TABLE}:UNREAD_TOL unread"]
