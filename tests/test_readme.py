import pathlib
import re

import focalis
from test_source import TABLE, sources, table_rows

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_is_documented():
    # each name of focalis.__all__ stands alone in backticks somewhere in README.md
    spans = set(re.findall(r"`([^`]*)`", README.read_text(encoding="utf-8")))
    missing = [name for name in focalis.__all__
               if not name.startswith("__") and name not in spans]
    assert missing == []


def test_bounds_table_is_the_table_in_code():
    # README's Bounds table, row by row: the name, value and unit of each row
    # of the table in errors.py, in its order
    text = README.read_text(encoding="utf-8").split("## Bounds", 1)[1]
    documented = [(name, float(value), unit) for name, value, unit in re.findall(
        r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \|", text, flags=re.MULTILINE)]
    rows = [(name, value, comment.partition(": ")[0])
            for name, value, comment in table_rows(sources()[TABLE])]
    assert len(rows) > 20
    assert documented == rows
