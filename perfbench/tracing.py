"""In-memory spans around the program's public call sites.

A :class:`Tracer` replaces a function or method at the binding its
caller looks it up through (a module global such as
``repro.fl.server.collect_updates``, or a class attribute such as
``DefenseService.save_checkpoint``) with a wrapper that records one span
per call: name, start, end and parent.  :meth:`Tracer.restore` puts
every original back.  Nothing is written until :meth:`Tracer.dump`.

A layer's self time is its spans' durations minus the parts covered by
their child spans, so the self times of all spans under one root add up
to the root's duration exactly.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        #: one ``[name, start, end, parent index]`` list per span
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        #: (owner, attribute, the owner's own original or None if inherited)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None,
             on_return: Callable | None = None) -> Callable:
        """``fn`` recording a ``name`` span per call.

        A call made while a span of the same name is innermost (a
        subclass method calling ``super()``) folds into that span.
        ``on_call(*args, **kwargs)`` runs before the call and
        ``on_return(result)`` after it, both inside the span.  An
        exception is counted in :attr:`errors` and re-raised.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                if on_call is not None:
                    on_call(*args, **kwargs)
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result)
                return result
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer.close(index)

        return wrapper

    def patch(self, owner: object, attr: str, name: str, **hooks) -> None:
        """Wrap ``owner.attr`` (a module global or class attribute)."""
        original = vars(owner).get(attr)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first; an inherited one is deleted."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def named(self, name: str) -> list[list]:
        return [span for span in self.spans if span[0] == name]

    def durations(self, name: str) -> list[float]:
        return [span[2] - span[1] for span in self.named(name)]

    def count(self, name: str, under: str | None = None) -> int:
        """Spans of ``name``, optionally only those with an ``under`` ancestor."""
        if under is None:
            return len(self.named(name))
        return sum(1 for span in self.named(name) if self._has_ancestor(span, under))

    def _has_ancestor(self, span: list, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by a child span."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        totals: dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            totals[span[0]] = totals.get(span[0], 0.0) + seconds
        return totals

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                }) + "\n")
