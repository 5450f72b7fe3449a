"""Spans around the calls into each zmdiff module, installed from outside.

install() wraps every function and method that a zmdiff module defines, and
puts the wrapper into every zmdiff namespace that holds the original: cli
binds solver and oracle names with `from ... import`, so patching only the
defining module would miss its calls. Methods are wrapped on their classes.

A span is one call: its name, its parent span, its start and its end. A
span's self time is its duration less the time its child spans cover; a
layer's self time is the sum over the spans of that layer's functions.
Self times, call counts and inclusive times are summed as spans close, for
every span. The spans themselves are kept in memory, in compact columns,
and written out when the run ends; the Residue methods and the other
per-element helpers in FINE are summed only, since a long window makes
millions of them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array
from types import ModuleType

LAYERS = ("modring", "crt", "problem", "solver", "oracle", "cli")

# Generated by @dataclass; they belong to no layer's own code.
GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}

FINE = {"SequenceSpec.term", "ProblemSpec.A", "ProblemSpec.B", "ProblemSpec.d",
        "_require_int", "_kv"}

MAX_LOGGED = 500_000  # spans kept for the span file; the sums above cover every span

# Functions whose inclusive time is reported together: a call inside another
# member of the group is already covered by it.
GROUPS = {"solver.general_solution": "solver.build", "solver.solve_initial_problem": "solver.build"}

# Results summed over every call: how many prefixes the oracle found.
MEASURED = {"oracle.brute_force_prefixes": lambda pfx: len(pfx.sequences)}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # "layer.qualname"
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.groups: dict[str, int] = {}
        self.incl_ns: list[int] = []  # per group, outermost calls only: recursion counts once
        self.active: list[int] = []  # per group
        self.stack: list[list[int]] = []  # per open span: [log index or -1, child ns]
        self.log = {"name": array("H"), "parent": array("l"), "t0": array("q"), "t1": array("q")}
        self.dropped = 0
        self.results: dict[str, int] = {}

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        group = GROUPS.get(name, name)
        if group not in self.groups:
            self.groups[group] = len(self.incl_ns)
            self.incl_ns.append(0)
            self.active.append(0)
        gid = self.groups[group]
        logged = name.split(".", 1)[1] not in FINE and ".Residue." not in name
        stack, calls, self_ns, incl_ns, active = (
            self.stack, self.calls, self.self_ns, self.incl_ns, self.active)
        log_name, log_parent, log_t0, log_t1 = (
            self.log["name"], self.log["parent"], self.log["t0"], self.log["t1"])
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = -1
            if logged:
                if len(log_name) < MAX_LOGGED:
                    index = len(log_name)
                    # the parent is the innermost open span that is logged
                    parent = next((f[0] for f in reversed(stack) if f[0] >= 0), -1)
                    log_name.append(nid)
                    log_parent.append(parent)
                    log_t0.append(0)
                    log_t1.append(0)
                else:
                    tracer.dropped += 1
            frame = [index, 0]
            stack.append(frame)
            active[gid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                active[gid] -= 1
                if not active[gid]:
                    incl_ns[gid] += dur
                if stack:
                    stack[-1][1] += dur
                if index >= 0:
                    log_t0[index] = t0
                    log_t1[index] = t1

        return functools.update_wrapper(traced, fn)

    def measured(self, fn, name: str, measure):
        """fn, also summing measure(result) into self.results[name]."""
        self.results[name] = 0

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.results[name] += measure(result)
            return result

        return functools.update_wrapper(counted, fn)

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap what the layer modules define, in every module that holds it."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    traced = self.wrap(obj, name)
                    if name in MEASURED:
                        traced = self.measured(traced, name, MEASURED[name])
                    wrapped[id(obj)] = traced
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr in GENERATED:
                continue
            if isinstance(obj, property) and obj.fget is not None:
                setattr(cls, attr, property(self.wrap(obj.fget, name)))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(obj.__func__, name)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(obj, name))

    # -- summaries -------------------------------------------------------------

    def index(self, name: str) -> int:
        return self.names.index(name)

    def count(self, name: str) -> int:
        return self.calls[self.index(name)]

    def ms(self, name: str) -> float:
        """Inclusive time of a function, or of a group named in GROUPS."""
        return self.incl_ns[self.groups[name]] / 1e6

    def layer_self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return sum(ns for n, ns in zip(self.names, self.self_ns) if n.startswith(prefix)) / 1e6

    def write(self, path) -> None:
        """One line per kept span: index, parent, name, start and end in ns."""
        log = self.log
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(f"# spans kept {len(log['name'])}, dropped {self.dropped}\n")
            out.write("span\tparent\tname\tt0_ns\tt1_ns\n")
            for i, nid in enumerate(log["name"]):
                out.write(f"{i}\t{log['parent'][i]}\t{self.names[nid]}\t"
                          f"{log['t0'][i]}\t{log['t1'][i]}\n")
