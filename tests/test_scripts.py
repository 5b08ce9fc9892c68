import importlib.util
import pathlib
import re
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_focal_portrait_default_residuals(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("focal_portrait",
                                                  SCRIPTS / "focal_portrait.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["focal_portrait.py"])
    script.main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert "residual" in header
    assert len(rows) == 5 * 4      # every default (lambdaR, lambdaA) pair
    residuals = [float(r) for row in rows for r in re.findall(r"\(([^)]*)\)", row)]
    # each pair prints "none" or at least one radius with its |Y| residual
    assert all("none" in row or "(" in row for row in rows)
    assert residuals and max(residuals) < 1e-9
