"""In-memory span recorder that wraps functions at layer boundaries.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times
and the index of the enclosing span (``-1`` at top level).  Spans stay
in memory while the traced code runs; :meth:`Recorder.chrome_trace`
turns them into Chrome trace-event JSON at the end.  Only the
benchmark installs these wrappers, on a process of its own, and
:meth:`Recorder.restore` puts every patched name back.
"""

import functools
import time


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- wrapping ---------------------------------------------------------
    def _swap(self, owner, attr, make):
        if isinstance(owner, type) and attr not in vars(owner):
            raise AttributeError("%s.%s is inherited; patch the class that "
                                 "defines it" % (owner.__name__, attr))
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(self, owner, attr, name):
        """Replace ``owner.attr`` with a wrapper recording span *name*."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append([name, clock(), 0.0,
                              stack[-1] if stack else -1])
                stack.append(index)
                try:
                    return original(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = clock()
            return wrapper
        self._swap(owner, attr, make)

    def observe(self, owner, attr, callback):
        """Call ``callback(args, kwargs, result)`` after each call."""
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                callback(args, kwargs, result)
                return result
            return wrapper
        self._swap(owner, attr, make)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------
    def fired(self):
        """``{span name: number of spans}``."""
        fired = {}
        for name, _start, _end, _parent in self.spans:
            fired[name] = fired.get(name, 0) + 1
        return fired

    def self_times(self):
        """``{span name: summed self time}``: each span's duration minus
        the part of it its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for (name, start, end, _parent), covered in zip(self.spans,
                                                        child_time):
            totals[name] = totals.get(name, 0.0) + (end - start - covered)
        return totals

    def chrome_trace(self, origin, run_id):
        """Chrome trace-event JSON document (complete ``X`` events)."""
        events = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1, "tid": 1,
                "args": {"id": index, "parent": parent, "run": run_id},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
