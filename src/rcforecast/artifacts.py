"""How artifacts are written and read back, in one place.

JSON artifacts have 2-space indents, sorted keys and a final newline. TSV
artifacts have a header row, tabs between cells and one row per line. They are
written by column, and the format is decided once per column: an int or float
numpy array by ``str`` (a float's is its repr); any other column cell by cell,
None as an empty cell, a bool as 0 or 1 and anything else by ``str``.
``read_tsv`` reads a table back by the same rules. Integer cells and keys are
read by one rule, ``INT_TEXT``, within int64 (``+5``, ``1_000`` and non-ASCII
digits are not integers), float cells by ``FLOAT_TEXT``. JSON values read back
are checked by the kinds of ``config``.
"""

import json
import re

import numpy as np

#: the text of an integer cell or key: an optional minus and ASCII digits
INT_TEXT = re.compile(r"-?[0-9]+")
#: the text of a float cell, as ``str`` writes a float (or an int)
FLOAT_TEXT = re.compile(r"-?(?:[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?|inf)|nan")
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b"\t\n")


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


def _names(names) -> str:
    *rest, last = names
    return f"{', '.join(rest)} and {last}" if rest else last


def parse_column(cells: list[str], kind: str):
    """``cells`` as ``kind``: an int64 or float64 array, or a list for an
    optional or ``str`` column; ValueError, or OverflowError for an integer
    outside int64, unless every cell is one."""
    if kind.endswith(" | None"):
        given = iter(parse_column([c for c in cells if c], kind.removesuffix(" | None")).tolist())
        return [next(given) if c else None for c in cells]
    if kind == "int" and not "".join(cells).encode().translate(None, b"0123456789-"):
        return np.fromiter(map(int, cells), np.int64, len(cells))
    if kind == "float" and all(map(FLOAT_TEXT.fullmatch, cells)):
        return np.fromiter(map(float, cells), np.float64, len(cells))
    if kind != "str":
        raise ValueError(f"not all {kind} cells")
    return cells


def _columns(text: str, kinds: dict) -> dict:
    """The columns of the rows ``text``; ValueError or OverflowError unless
    each row is one cell of its kind per column and a newline."""
    k, n = len(kinds), text.count("\n")
    ints = set(kinds.values()) == {"int"}
    # the cells taken out, the separators must be left as written; a table of
    # integers is checked and read all at once
    taken = b"0123456789-" if ints else _NOT_SEPARATOR
    if text.encode().translate(None, taken) != (b"\t" * (k - 1) + b"\n") * n:
        raise ValueError("not one cell per column")
    if ints:    # an empty cell leaves the iterator short
        values = np.fromiter(map(int, text.split()), np.int64, n * k)
        return dict(zip(kinds, values.reshape(n, k).T))
    cells = text.replace("\n", "\t").split("\t")
    return {name: parse_column(cells[j:-1:k], kind)
            for j, (name, kind) in enumerate(kinds.items())}


def _problem(cells: list[str], kinds: dict) -> str | None:
    """Why one row's ``cells`` are not one cell of its kind per column, if they are not."""
    faults = set()
    for cell, kind in zip(cells, kinds.values()):
        try:
            parse_column([cell], kind)
        except (ValueError, OverflowError) as e:
            faults.add(type(e))
    if len(cells) != len(kinds) or ValueError in faults:
        return f"expected {_names(kinds)}"
    if faults:
        return f"{_names(k for k, kind in kinds.items() if kind.startswith('int'))} must fit int64"


def read_tsv(path, table: str, kinds: dict, error=ValueError, check=None) -> dict:
    """The columns of a table that ``write_tsv`` wrote, by name, as ``parse_column``
    reads each of ``kinds`` (``int``, ``int | None``, ``float``, ``float |
    None`` or ``str``). ``error`` names the first bad line of ``table``: its
    header, a row without one cell of its kind per column, or the row that
    ``check`` returns as ``(index, problem)``, ``problem`` formatted with its
    cells. ``check`` gets the columns of the rows before any bad one and may
    reorder them in place."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != "\t".join(kinds):
            raise error(f"bad {table} header: {header!r}")
        text = fh.read()
    if text and not text.endswith("\n"):
        text += "\n"
    try:
        columns, bad = _columns(text, kinds), None
    except (ValueError, OverflowError):      # walk the rows to the first bad one
        rows = text.split("\n")[:-1]
        bad = next((i, f"{p}, got {row.strip()!r}") for i, row in enumerate(rows)
                   if (p := _problem(row.split("\t"), kinds)))
        columns = _columns("".join(row + "\n" for row in rows[:bad[0]]), kinds)
    found = check(columns) if check else None
    if found:
        bad = found[0], found[1].format(*text.split("\n")[found[0]].split("\t"))
    if bad:
        raise error(f"{table} line {bad[0] + 2}: {bad[1]}")
    return columns
