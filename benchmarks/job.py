"""One benchmark job: a timed call sequence plus the checks on its output."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Job:
    name: str
    # The timed operation; takes the tracer (spans.Tracer or spans.Untraced).
    run: Callable[[Any], Any]
    # Problems found in the output by checks made apart from ggraphs.
    check: Callable[[Any], list[str]]
    # A cheap, deterministic digest of the output; equal across passes.
    fingerprint: Callable[[Any], Any]
    # Per-layer work counts read off the output, outside the timed region.
    counts: Callable[[Any], dict] = lambda out: {}
    # True when the operation failed through a known fault of the program.
    failed: Callable[[Any], bool] = lambda out: False
    # True when the output is a definite answer (see README, "decided").
    decided: Callable[[Any], bool] = lambda out: True
