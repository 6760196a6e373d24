"""How artifacts are written, in one place.

JSON artifacts have 2-space indents, sorted keys and a final newline. TSV
artifacts have a header row, tabs between cells and one row per line. They are
written by column, and the format is decided once per column: an int or float
numpy array by ``str`` (a float's is its repr); any other column cell by cell,
None as an empty cell, a bool as 0 or 1 and anything else by ``str``. Integer
cells and keys are read back by one rule, ``INT_TEXT``, in ``partition.tsv``
too (``+5``, ``1_000`` and non-ASCII digits are not integers); ids must fit
int64. JSON values read back are checked by the kinds of ``config``.
"""

import json
import re

import numpy as np

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


def _column_text(column):
    if isinstance(column, np.ndarray):
        return map(str if column.dtype.kind in "iuf" else _cell, column.tolist())
    return map(_cell, column)


def write_tsv(path, columns: dict) -> None:
    """``columns``, a mapping of name to column, as a header and one line per row."""
    with open(path, "w") as fh:
        fh.write("\t".join(columns) + "\n")
        fh.writelines("\t".join(row) + "\n" for row in zip(*map(_column_text, columns.values())))
