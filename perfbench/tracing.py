"""In-memory spans around the public calls of fhmdp's layers.

The benchmark records spans from outside the program: it wraps module
attributes (``fhmdp.cli.load_model`` and so on) for the length of a traced
run and restores them afterwards. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int | str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``job`` tags every span recorded while it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: int | str | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            # Reserve the slot so children recorded during the call get
            # higher indices and can point back at this one.
            self.spans.append(None)  # type: ignore[arg-type]
            self._open.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.job)

        return traced

    @contextlib.contextmanager
    def patch(self, targets: Iterable[tuple[object, str, str]]) -> Iterator[None]:
        """Wrap ``module.attribute`` for each ``(module, attribute, span name)``.

        A missing attribute raises ``AttributeError``: a renamed call must
        fail the traced run rather than silently drop its layer.
        """
        saved = []
        try:
            for module, attribute, name in targets:
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, self.wrap(name, original))
            yield
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.duration
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")
