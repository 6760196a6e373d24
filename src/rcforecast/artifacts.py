"""How artifacts are written, in one place.

JSON artifacts have 2-space indents, sorted keys and a final newline. TSV
artifacts have a header row, tabs between cells and one row per line, and a
cell is empty for None, 0 or 1 for a bool, the repr of a float (which ``str``
gives) and the ``str`` of anything else. Integer cells and keys are read back
by one rule, ``INT_TEXT``, and ids must fit numpy's int64.
"""

import json
import re

#: the text of an integer cell or key: an optional minus and ASCII digits
INT_TEXT = re.compile(r"-?[0-9]+")


def is_int64(x) -> bool:
    """Whether ``x`` is an int (not a bool) that fits numpy's int64."""
    return type(x) is int and -2**63 <= x < 2**63


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if value is True or value is False:
        return "1" if value else "0"
    return str(value)           # a float's str is its repr


def write_tsv(path, header, rows) -> None:
    """``header`` and then each of ``rows``, a sequence of cells, as a line."""
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        fh.writelines("\t".join(map(_cell, row)) + "\n" for row in rows)
