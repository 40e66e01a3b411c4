"""Span and counter recording around a package's public functions.

The recorder keeps, per span name, the number of calls, the total time and
the self time: the span's duration minus the part its child spans cover.
Spans are aggregated as they close, so a run with hundreds of thousands of
calls keeps only one entry per name in memory.

:func:`install` wraps every public function defined in the named modules of
a package and rebinds every reference to it in the package's namespaces,
including names another module imported with ``from ... import``.  Nothing
in the package itself changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable

#: A hook sees the recorder, the call's positional arguments and its result.
Hook = Callable[["Recorder", tuple, object], None]


class Recorder:
    """Per-name span totals and named counters."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._stack: list[list] = []  # open spans: [name, start_ns, child_ns]
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: Counter[str] = Counter()

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0])

    def exit(self) -> None:
        name, start, child_ns = self._stack.pop()
        duration = self._clock() - start
        entry = self.spans.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def to_json(self) -> dict:
        return {
            "spans": {
                name: {"calls": calls, "total_s": total / 1e9, "self_s": self_ns / 1e9}
                for name, (calls, total, self_ns) in sorted(self.spans.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


def _wrap(recorder: Recorder, name: str, fn: Callable, hook: Hook | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.count(f"{name}.raised")
            raise
        finally:
            recorder.exit()
        if hook is not None:
            hook(recorder, args, result)
        return result

    return wrapper


def install(
    recorder: Recorder, package: str, layers: list[str], hooks: dict[str, Hook] | None = None
) -> list[str]:
    """Wrap the public functions of ``package.<layer>`` for each layer.

    A span is named ``<layer>.<function>``.  Hooks are keyed by span name;
    a hook whose function does not exist is never called, so a renamed or
    removed function records nothing rather than failing.  Returns the span
    names installed.
    """
    hooks = hooks or {}
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for layer in layers:
        module = importlib.import_module(f"{package}.{layer}")
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrappers[id(fn)] = (fn, _wrap(recorder, name, fn, hooks.get(name)))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
    return sorted(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}" for fn, _ in wrappers.values())
