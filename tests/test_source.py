"""Rules on the source of focalis itself, read from its syntax trees."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "focalis"


def test_no_einsum_path_search():
    # np.einsum(..., optimize=...) runs numpy's pure-Python path search on every
    # call (0.6-1.9 ms in a fresh report process), and the pairwise order it
    # picks may change with shapes or the numpy version, and with it the bits of
    # a result.  Contractions that need an order spell it out as matmuls.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
                    and any(k.arg == "optimize" for k in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_bound_is_read():
    # a module-level tolerance or threshold that no line of src/ reads bounds
    # nothing, yet a reader takes it for a check the library makes
    bounds, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)]
            bounds += [f"{path.name}:{t.id}" for t in targets if isinstance(t, ast.Name)
                       and t.id.endswith(("_TOL", "_THRESHOLD", "_TOLERANCE"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    assert bounds, "no bound found: the rule reads nothing"
    assert [b for b in bounds if b.split(":")[1] not in reads] == []
