"""Per-layer tracing by rebinding headparse's public functions.

The tracer never edits the package: it replaces module attributes in the
running process with timing wrappers and puts the originals back when it
is uninstalled.  A function is rebound in every headparse module that
imported it by name, so cross-module calls (``corpus.eligible`` calling
``detect_cyclic``) are seen too.  Functions captured in closures are seen
only when captured after `install` (``build_hi`` binds its goto functions
when it runs), which is why a traced pass builds its automata with the
tracer installed.

Clause matchers are wrapped per automaton through the public
`Automaton`/`Clause` types (`wrap_automaton`).  A run times matchers and
rebound functions in separate passes: hi's gotos and ghi's set
operations run inside matchers.

Each layer keeps a call count and the time of its outermost calls, so a
layer that calls itself (``left_set`` calling ``closure``) is not counted
twice.  Spans are aggregated, not stored one by one: a corpus pass makes
about a million matcher calls.  `net_seconds` takes off each span the
timer's own cost, measured by `timer_floor`; what a nested wrapper costs
inside an outer span (``closure`` inside ``left_set``) stays in.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter

from workloads import BUILDERS

HI_GOTOS = ("gotoright1", "gotoleft1", "gotoright2", "gotoleft2")
GHI_SETOPS = ("closure", "goto", "gotoleft", "gotoright", "left_set", "right_set")

# (module, function, layer); the layer names the per-layer time metric
PLAIN = (
    ("grammar", "augment", "grammar.augment_s"),
    ("grammar", "detect_cyclic", "grammar.loopcheck_s"),
    ("grammar", "detect_head_recursion", "grammar.loopcheck_s"),
    ("transform", "tau_head", "transform.s"),
    ("transform", "embed", "transform.s"),
    ("oracle", "enumerate_language", "oracle.enumerate_s"),
    ("engine", "accepting_trace", "engine.replay_s"),
    ("engine", "replay", "engine.replay_s"),
    ("engine", "render_trace_text", "engine.render_s"),
    ("engine", "trace_records", "engine.render_s"),
)


def _hi_key(name, args):
    aug, _rels, q, x = args
    return (name, id(aug), q, x)


def _ghi_key(name, args):
    if name in ("goto", "gotoleft", "gotoright"):
        q, arg = args
        return (name, q, arg)
    g, q = args
    return (name, id(g), frozenset(q))


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.spans = defaultdict(int)   # timed spans per layer
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.repeats = defaultdict(int)
        self._seen = defaultdict(set)
        self._active = defaultdict(int)
        self._alive = []  # keeps objects whose id() is part of a repeat key
        self._patches = []

    # -- rebinding ---------------------------------------------------------

    def install(self, lib):
        for module, name, layer in PLAIN:
            self._rebind(lib, module, name, layer)
        for alg, (module, name) in BUILDERS.items():
            self._rebind(lib, module, name, "build_s." + alg)
        for name in HI_GOTOS:
            self._rebind(lib, "recognizer_hi", name, "recognizer_hi.goto_s",
                         repeat_key=_hi_key)
        for name in GHI_SETOPS:
            self._rebind(lib, "recognizer_ghi", name, "recognizer_ghi.setop_s",
                         repeat_key=_ghi_key)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._alive.clear()

    def _rebind(self, lib, module_name, name, layer, repeat_key=None):
        original = getattr(getattr(lib, module_name), name)
        wrapper = self._wrap(original, name, layer, repeat_key)
        for module in lib.all_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap(self, fn, name, layer, repeat_key):
        seconds, spans, calls = self.seconds, self.spans, self.calls
        active = self._active
        observe = getattr(self, "_observe_" + name, None)

        def traced(*args, **kwargs):
            calls[layer] += 1
            if repeat_key is not None:
                key = repeat_key(name, args)
                seen = self._seen[layer]
                if key in seen:
                    self.repeats[layer] += 1
                else:
                    seen.add(key)
                    self._alive.append(args[0])
            if active[layer]:
                result = fn(*args, **kwargs)
            else:
                active[layer] += 1
                spans[layer] += 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    seconds[layer] += perf_counter() - start
                    active[layer] -= 1
            if observe is not None:
                observe(result)
            return result
        return traced

    def _observe_enumerate_language(self, strings):
        self.counts["oracle.strings"] += len(strings)

    def _observe_accepting_trace(self, trace):
        self.counts["engine.trace_steps"] += len(trace.steps)

    def _observe_render_trace_text(self, text):
        self.counts["engine.render_bytes"] += len(text.encode("utf-8"))

    # -- clause matchers ---------------------------------------------------

    def wrap_automaton(self, engine, alg, automaton):
        """A copy of the automaton whose clause matchers are timed."""
        clauses = tuple(engine.Clause(c.label, self._wrap_matcher(alg, c.matcher))
                        for c in automaton.clauses)
        return dataclasses.replace(automaton, clauses=clauses)

    def _wrap_matcher(self, alg, matcher):
        """Times the matcher's own work: its generator is driven by a plain
        ``for``, as the engine drives an unwrapped one, and each stretch
        between two yields is one span."""
        seconds, spans, counts = self.seconds, self.spans, self.counts
        layer = "engine.matcher_s." + alg

        def traced(stack, ctx):
            counts["engine.matcher_calls"] += 1
            steps = 0
            spent = 0.0
            start = perf_counter()
            try:
                for step in matcher(stack, ctx):
                    spent += perf_counter() - start
                    steps += 1
                    yield step
                    start = perf_counter()
                spent += perf_counter() - start
            finally:
                # An abandoned generator ends at its yield, whose span is in.
                seconds[layer] += spent
                spans[layer] += steps + 1
                counts["engine.matcher_empty"] += not steps
        return traced

    def net_seconds(self, layer, floor):
        """The layer's time less `floor` seconds for each of its spans."""
        return self.seconds[layer] - self.spans[layer] * floor


def timer_floor(samples=200_000):
    """The mean length of an empty span: what timing a span adds to it."""
    spent = 0.0
    for _ in range(samples):
        start = perf_counter()
        spent += perf_counter() - start
    return spent / samples
