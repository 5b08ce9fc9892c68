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
