"""Per-layer tracing of the superbv package, applied from outside.

A :class:`Tracer` replaces the public functions and methods of every layer
module with timing wrappers and puts the originals back on exit.  Each call
is a span; a span's self time is its duration minus the durations of the
spans it directly encloses.  Spans are not stored one by one: the tracer
keeps, per traced name, the call count, the summed self time and the summed
inclusive time, which is all the benchmark reports and keeps memory flat on
runs with millions of calls.

Besides timing, the jet layer is counted where the work happens: every jet
multiply adds ``len(a.terms) * len(b.terms)`` candidate term pairs, and the
largest term count of any jet a jet-layer function returns is kept as the
peak.  Both counts depend only on the inputs, never on the clock.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS = (
    "grading", "jetring", "supermatrix", "charts", "mvforms", "bvcalc",
    "connect", "samples", "dsl", "suites", "report", "cli",
)

_UNCALLED = (0, 0.0, 0.0)

# Operators that are public entry points of a layer although their names are
# underscored; every other dunder (construction, equality, hashing) is left alone.
OPERATOR_METHODS = {
    ("jetring", "JetSuperFunction"): ("__add__", "__mul__"),
    ("supermatrix", "SuperMatrix"): ("__mul__",),
}


class Tracer:
    """Context manager that traces every layer of ``superbv`` while active.

    ``stats[name]`` is ``[calls, self_s, inclusive_s]`` where ``name`` is
    ``<layer>.<qualified name>``, for example ``jetring.JetSuperFunction.__mul__``
    or ``mvforms.schouten``.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.term_pairs = 0
        self.peak_terms = 0
        self._stack: list[float] = []
        self._undo: list = []
        self._jet_type = None

    # -- install / remove ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"superbv.{layer}") for layer in LAYERS}
        self._jet_type = modules["jetring"].JetSuperFunction
        # id(original) -> wrapper; each wrapper holds its original, so ids stay unique
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                    if name.startswith("_"):
                        continue
                    wrapper = self._wrap(f"{layer}.{name}", value, layer)
                    replaced[id(value)] = wrapper
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    if issubclass(value, BaseException):
                        continue
                    self._wrap_class(layer, value, replaced)
        self._rebind(replaced)

    def uninstall(self) -> None:
        while self._undo:
            restore = self._undo.pop()
            restore()

    def _wrap_class(self, layer: str, cls: type, replaced: dict) -> None:
        extra = OPERATOR_METHODS.get((layer, cls.__name__), ())
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in extra:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(key, raw.__func__, layer))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(key, raw.__func__, layer))
            elif isinstance(raw, types.FunctionType):
                wrapped = self._wrap(key, raw, layer)
                replaced[id(raw)] = wrapped
            else:
                continue  # properties and data attributes stay as they are
            setattr(cls, name, wrapped)
            self._undo.append(functools.partial(setattr, cls, name, raw))

    def _rebind(self, replaced: dict) -> None:
        """Point every binding of an original inside ``superbv`` at its wrapper.

        Covers module attributes (the defining module and every ``from .x
        import y`` copy), module-level dicts such as the suite registry, and
        default argument values.
        """
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "superbv" or mod_name.startswith("superbv.")):
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    namespace[name] = wrapper
                    self._undo.append(functools.partial(namespace.__setitem__, name, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        wrapper = replaced.get(id(item))
                        if wrapper is not None:
                            value[key] = wrapper
                            self._undo.append(functools.partial(value.__setitem__, key, item))
                if isinstance(value, types.FunctionType):
                    self._rebind_defaults(value, replaced)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for raw in vars(value).values():
                        func = getattr(raw, "__func__", raw)
                        if isinstance(func, types.FunctionType):
                            self._rebind_defaults(func, replaced)

    def _rebind_defaults(self, func, replaced: dict) -> None:
        func = getattr(func, "__wrapped__", func)
        defaults = func.__defaults__
        if not defaults or not any(id(d) in replaced for d in defaults):
            return
        func.__defaults__ = tuple(replaced.get(id(d), d) for d in defaults)
        self._undo.append(functools.partial(setattr, func, "__defaults__", defaults))

    # -- the wrapper ---------------------------------------------------------------

    def _wrap(self, key: str, func, layer: str):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        jet_layer = layer == "jetring"
        counts_pairs = key == "jetring.JetSuperFunction.__mul__"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if counts_pairs:
                tracer.term_pairs += len(args[0].terms) * len(args[1].terms)
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed - children
                stats[2] += elapsed
                if stack:
                    stack[-1] += elapsed
            if jet_layer and type(result) is tracer._jet_type:
                size = len(result.terms)
                if size > tracer.peak_terms:
                    tracer.peak_terms = size
            return result

        return traced

    # -- summaries -------------------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.stats.get(key, _UNCALLED)[0]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, _UNCALLED)[1]

    def inclusive_s(self, key: str) -> float:
        return self.stats.get(key, _UNCALLED)[2]

    def layer_calls(self, layer: str) -> int:
        return sum(s[0] for k, s in self.stats.items() if k.split(".", 1)[0] == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(s[1] for k, s in self.stats.items() if k.split(".", 1)[0] == layer)
