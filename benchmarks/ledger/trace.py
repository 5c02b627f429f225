"""Outside-in span recorder for the ledger benchmark.

The program under test is not edited: :func:`instrument` wraps its
public entry points from outside.  A module-level function is rebound
wherever a loaded module holds it (``from x import f`` copies included);
a method is replaced on its class (and, for ``Class.method+`` targets, on
every subclass that overrides it).  Leaving the ``with`` block restores
every original object, including copies made by modules imported while
the wrappers were live.

Spans nest per thread.  A layer's *self* time is its span's duration
minus the time its child spans cover, so the self times of all layers
plus the unattributed remainder add up to the measured wall time.
"""

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "instrument", "resolve"]


class Recorder:
    """Per-layer self time and call counts, plus free-form counters.

    Spans are recorded only while :attr:`active` is true, so set-up and
    correctness checks between timed operations never reach the ledger.
    """

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._self_s = defaultdict(float)
        self._calls = defaultdict(int)
        self._counters = defaultdict(float)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        frame = [time.perf_counter(), 0.0]     # start, child seconds
        self._stack().append(frame)
        return frame

    def _exit(self, name, frame):
        seconds = time.perf_counter() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += seconds
        with self._lock:
            self._self_s[name] += seconds - frame[1]
            self._calls[name] += 1
        return seconds

    def wrap(self, name, fn, observe=None):
        """``fn`` recorded as layer ``name``.  ``observe(recorder, args,
        kwargs, result, seconds)`` runs after each recorded call that
        returned normally; it feeds :meth:`add`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._exit(name, frame)
            if observe is not None:
                observe(self, args, kwargs, result, seconds)
            return result

        return wrapper

    def add(self, counter, value=1):
        with self._lock:
            self._counters[counter] += value

    def layers(self):
        """``{layer: (self seconds, calls)}`` over every recorded span."""
        with self._lock:
            return {name: (self._self_s[name], self._calls[name])
                    for name in self._calls}

    def counters(self):
        with self._lock:
            return dict(self._counters)


def resolve(target):
    """``"pkg.module:name"`` or ``"pkg.module:Class.method"`` (with an
    optional trailing ``+``) to ``(owner, attribute, subclasses)``."""
    subclasses = target.endswith("+")
    module_name, _, path = target.rstrip("+").partition(":")
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute, subclasses


def _all_subclasses(cls):
    seen, pending = [], [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                pending.append(sub)
    return seen


def _rebind(old, new):
    """Replace ``old`` by ``new`` in every loaded module's namespace."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        for key, value in list(namespace.items()):
            if value is old:
                namespace[key] = new


@contextlib.contextmanager
def instrument(recorder, layers, observers=None):
    """Wrap every target of ``layers`` (``{layer: [target, ...]}``) for
    the duration of the block.  ``observers`` maps a layer to the
    ``observe`` hook of :meth:`Recorder.wrap`."""
    observers = observers or {}
    methods = []     # (class, attribute, original)
    functions = []   # (original, wrapper)
    try:
        for layer, targets in layers.items():
            observe = observers.get(layer)
            for target in targets:
                owner, attribute, subclasses = resolve(target)
                if isinstance(owner, type):
                    classes = [owner] + (_all_subclasses(owner)
                                         if subclasses else [])
                    for cls in classes:
                        original = cls.__dict__.get(attribute)
                        if original is None:
                            continue
                        setattr(cls, attribute,
                                recorder.wrap(layer, original, observe))
                        methods.append((cls, attribute, original))
                else:
                    original = getattr(owner, attribute)
                    wrapper = recorder.wrap(layer, original, observe)
                    _rebind(original, wrapper)
                    functions.append((original, wrapper))
        yield recorder
    finally:
        for cls, attribute, original in reversed(methods):
            setattr(cls, attribute, original)
        for original, wrapper in reversed(functions):
            _rebind(wrapper, original)
