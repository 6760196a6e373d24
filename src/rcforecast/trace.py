"""A no-op seam around each stage of a run: callers look up ``trace.stage(name)``
on every use, so a harness that rebinds ``rcforecast.trace.stage`` times them all."""

from contextlib import nullcontext


def stage(name: str):
    return nullcontext()
