"""Traced run: wrap each layer's public functions from outside ratpark.

The tracer replaces every public function of the layer modules with a
wrapper, in every ratpark module that looks the function up by name (for
example ``tuples`` calls ``action.find_fixed_point`` and ``verify`` imports
``find_fixed_point`` directly), and patches the constructors and methods
whose counts the benchmark reports.  ``uninstall`` puts every original back.

Each wrapped call opens a frame.  A frame's self time is its duration minus
the time its child frames cover; it is added to per-name totals.  Calls of
functions not in ``HOT`` are also kept as span records ``[name, start,
end, parent, op]`` in memory and written out at the end of the run.  Hot
functions run too often to keep a record per call, so they are counted and
timed only.  Generators get one frame per resumption, so the consumer's
work between two items is never charged to the generator.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

# the layer modules; errors, reference and serialize do no measurable work
LAYERS = ("words", "action", "filters", "tuples", "sweep", "affine", "verify")

# (module, class, attribute) patched besides the module-level functions
METHODS = (
    ("words", "Word", "__post_init__"),
    ("filters", "Filter", "__post_init__"),
    ("filters", "Filter", "minimum_by_residue"),
    ("tuples", "FilterTuple", "__post_init__"),
)

# called too often to keep a span record per call
HOT = frozenset(
    {
        "words.Word",
        "words.word",
        "words.is_parking_word",
        "words.is_dyck_word",
        "words.letter_histogram",
        "words.classify",
        "action.apply_letter",
        "action.apply_word",
        "action.norm",
        "action.distance",
        "action.contraction_certificate",
        "action.staircase_point",
        "action.default_budget",
        "filters.Filter",
        "filters.Filter.minimum_by_residue",
        "filters.level",
        "filters.contains_level",
        "filters.column_minima",
        "filters.removable_levels",
        "filters.is_dyck",
        "filters.is_balanced",
        "affine.value_position",
        "affine.is_dominant",
        "affine.in_sommers",
        "tuples.is_parking_tuple",
        "tuples.is_balanced_tuple",
    }
)

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: Counter = Counter()
        self.iterations: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []  # [name, start, child_s, record, link]
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ frames

    def _enter(self, name: str, record: bool) -> list:
        link = self._stack[-1][4] if self._stack else -1
        start = _perf()
        own = -1
        if record:
            own = len(self.spans)
            self.spans.append([name, start, None, link, self.op])
        frame = [name, start, 0.0, own, own if record else link]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = _perf()
        self._stack.pop()
        dur = end - frame[1]
        stat = self.stats.get(frame[0])
        if stat is None:
            stat = self.stats[frame[0]] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += dur - frame[2]
        stat[2] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end

    def innermost(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name, fn, observe=None):
        record = name not in HOT
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    tracer.counts[name + ".yielded"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame)
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            tracer._exit(frame)
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return wrapper

    def _observers(self, modules):
        action = modules["action"]

        def find_fixed_point(args, kwargs, report, exc):
            if report is not None:
                self.iterations[report.iterations] += 1
                self.counts["action.iterations.total"] += report.iterations
            elif isinstance(exc, modules["errors"].IterationBudgetExhausted):
                w = args[0]
                budget = kwargs.get("max_iterations", args[1] if len(args) > 1 else None)
                if budget is None:
                    budget = action.default_budget(w.m, w.n)
                self.counts["action.budget_exhausted"] += 1
                self.counts["action.iterations.total"] += budget

        def run_verify(args, kwargs, report, exc):
            if report is not None:
                self.counts["verify.assertions"] += report.passed + report.failed

        def word(args, kwargs, result, exc):
            if self.innermost() == "words.enumerate_words":
                self.counts["words.enumerate_words.built"] += 1

        return {
            "action.find_fixed_point": find_fixed_point,
            "verify.run_verify": run_verify,
            "words.Word": word,
        }

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import ratpark  # noqa: F401  (loads every layer module)

        modules = {
            name: sys.modules[f"ratpark.{name}"] for name in LAYERS + ("errors",)
        }
        observers = self._observers(modules)
        ratpark_modules = [
            mod for key, mod in sys.modules.items()
            if key == "ratpark" or key.startswith("ratpark.")
        ]
        for layer in LAYERS:
            module = modules[layer]
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, observers.get(name))
                for mod in ratpark_modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, key, fn))
                            setattr(mod, key, wrapper)
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[attr]
            name = f"{layer}.{cls_name}"
            if attr != "__post_init__":
                name += f".{attr}"
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, observers.get(name)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def write(self, path, origin: float) -> None:
        """Write spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
