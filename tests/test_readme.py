import pathlib
import re

import focalis

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_is_documented():
    # each name of focalis.__all__ stands alone in backticks somewhere in README.md
    spans = set(re.findall(r"`([^`]*)`", README.read_text(encoding="utf-8")))
    missing = [name for name in focalis.__all__
               if not name.startswith("__") and name not in spans]
    assert missing == []
