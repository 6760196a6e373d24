"""Run manifests: every artifact-producing command records what made it.

Manifests carry input digests, arguments, seeds and a timestamp so a changed
report can be traced to the input or configuration that changed. The timestamp
makes manifests the one output that is not byte-reproducible; data artifacts
are compared without them.
"""

from __future__ import annotations

import hashlib
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

from . import __version__
from .artifacts import write_json


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        # 64 KiB reads: a papers file is hashed before it is loaded, and larger
        # reads raised the peak RSS of the command that loads it
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class InputFile(str):
    """The path of an input that a run reads and does not write: its digest
    is taken once, however many manifests name it."""

    @cached_property
    def digest(self) -> str:
        return file_digest(self)


def _plain(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return None  # non-serializable (e.g. callbacks) are dropped from the audit


#: argument -> manifest label of each input file an argument may name; a
#: ``model`` directory names its two partition files
_INPUT_ARGS = {"papers": "papers", "corpus": "papers", "journals": "journals",
               "composite": "composite", "taxonomy": "taxonomy", "config": "config"}


def write_manifest(path, command: str, arguments: dict, seeds: dict | None = None) -> None:
    """Record ``arguments`` and the digest of each existing input file they name."""
    inputs = {label: arguments[name] for name, label in _INPUT_ARGS.items()
              if arguments.get(name) is not None}
    if arguments.get("model") is not None:
        inputs.update((name, Path(arguments["model"]) / name)
                      for name in ("partition.tsv", "partition.json"))
    write_json(path, {
        "command": command,
        "arguments": {k: _plain(v) for k, v in sorted(arguments.items())
                      if k != "func"},
        "inputs": {name: p.digest if isinstance(p, InputFile) else file_digest(p)
                   for name, p in sorted(inputs.items()) if Path(p).exists()},
        "rng_seeds": seeds or {},
        "tool_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    })
