"""Traced run: wraps the public functions of each ``cutpoint`` module (the
modules are the layers) from the benchmark's side and restores them after.

A function imported with ``from ... import`` is bound in several modules,
so every binding of the original object in every loaded ``cutpoint`` module
is replaced, not only the defining one.  Methods are patched on the class
that defines them.  Generators are timed only inside ``next()``.

Every wrapped call keeps a frame on one stack; a call's self time is its
duration minus the time of the wrapped calls it made.  Hot leaf calls are
aggregated into counters; coarser calls also record a span (name, start,
end, parent span, question id), written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


#: (module, function, metric prefix, hot); hot calls get no span
FUNCTIONS = [
    ("exactmath", "validate_matrix", "exactmath.validate_matrix", False),
    ("exactmath", "factorize", "exactmath.factorize", False),
    ("langsem", "desc_member", "langsem.desc_member", True),
    ("langsem", "cut_member", "langsem.cut_member", True),
    ("langsem", "enum_unary", "langsem.enum_unary", False),
    ("constructions", "one_state_accepts", "constructions.one_state_accepts", True),
    ("constructions", "decompose_one_state", "constructions.decompose_one_state", False),
    ("constructions", "build_one_state", "constructions.build_one_state", False),
    ("constructions", "analyze_two_state_pfa", "constructions.analyze_two_state_pfa", False),
    ("constructions", "exclusive_to_zero", "constructions.exclusive_to_zero", False),
    ("analysis", "separate", "analysis.separate", False),
    ("analysis", "density_report", "analysis.density_report", False),
    ("analysis", "aperiodicity_check", "analysis.aperiodicity_check", False),
    ("analysis", "chomsky_classify", "analysis.chomsky_classify", False),
    ("documents", "parse_automaton", "documents.parse_automaton", False),
    ("documents", "serialize_automaton", "documents.serialize_automaton", False),
    ("documents", "serialize_descriptor", "documents.serialize_descriptor", False),
    ("cli", "run", "cli.run", False),
    ("cli", "build_parser", "cli.build_parser", False),
]

GENERATORS = [("constructions", "rotation_cosine_pairs", "constructions.rotation_cosine_pairs")]

#: (class, method, metric prefix, hot, generator)
METHODS = [
    ("Matrix", "__matmul__", "exactmath.matmul", True, False),
    ("Matrix", "__init__", "exactmath.matrix_init", True, False),
    ("Automaton", "value", "automata.value", False, False),
    ("Automaton", "validate", "automata.validate", False, False),
    ("Automaton", "unary_values", "automata.unary_values", False, True),
]


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    re = getattr(x, "re", None)
    if isinstance(re, Fraction):
        return max(_bits(re), _bits(x.im))
    return 0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.stack = []  # frames: [child seconds, span index or None]
        self.spans = []
        self.question = None
        self.patches = []
        self.max_bits = 0
        self.values = 0
        self.in_values = 0
        self.matmul_in_values = 0
        self.lengths_scanned = 0
        self.desc_classes = set()
        self.exits = Counter()

    # timing core

    def _enter(self, name, span):
        index = None
        if span:
            parent = next((f[1] for f in reversed(self.stack) if f[1] is not None), None)
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.question])
        frame = [0.0, index]
        self.stack.append(frame)
        return frame

    def _leave(self, stat, frame, dt):
        self.stack.pop()
        stat.self_s += dt - frame[0]
        if self.stack:
            self.stack[-1][0] += dt
        if frame[1] is not None:
            self.spans[frame[1]][2] = time.perf_counter()

    def wrap(self, fn, name, hot, after=None):
        stat = self.stats[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = self._enter(name, not hot)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(stat, frame, clock() - t0)
                stat.calls += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_generator(self, fn, name, counts_values=False):
        stat = self.stats[name]
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stat.calls += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    frame = tracer._enter(name, False)
                    tracer.in_values += counts_values
                    t0 = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.in_values -= counts_values
                        tracer._leave(stat, frame, clock() - t0)
                    if counts_values:
                        tracer.values += 1
                    yield value
            finally:
                it.close()

        wrapper.__wrapped__ = fn
        return wrapper

    # hooks

    def _after_matmul(self, args, result):
        if self.in_values:
            self.matmul_in_values += 1
        bits = max((_bits(x) for row in result.data for x in row), default=0)
        if bits > self.max_bits:
            self.max_bits = bits

    def _after_desc_member(self, args, result):
        d, word = args[0], args[1]
        counts = word if isinstance(word, Counter) else Counter(word)
        self.desc_classes.add((self.question, id(d), frozenset(counts.items())))

    def _after_separate(self, args, result):
        limit = args[4]
        self.lengths_scanned += result.m + 1 if result is not None else limit + 1

    def _after_cli_run(self, args, result):
        self.exits[result.exit_code] += 1

    # patching

    def install(self):
        mods = {name: module for name, module in sys.modules.items()
                if name == "cutpoint" or name.startswith("cutpoint.")}
        after = {"langsem.desc_member": self._after_desc_member,
                 "analysis.separate": self._after_separate,
                 "cli.run": self._after_cli_run,
                 "exactmath.matmul": self._after_matmul}
        for module, attr, name, hot in FUNCTIONS:
            owner = mods.get(f"cutpoint.{module}")
            orig = getattr(owner, attr, None)
            if orig is not None:
                self._rebind(mods, orig, self.wrap(orig, name, hot, after.get(name)))
        for module, attr, name in GENERATORS:
            orig = getattr(mods.get(f"cutpoint.{module}"), attr, None)
            if orig is not None:
                self._rebind(mods, orig, self.wrap_generator(orig, name))
        automata = mods.get("cutpoint.automata")
        exactmath = mods.get("cutpoint.exactmath")
        classes = {"Matrix": [exactmath.Matrix],
                   "Automaton": [getattr(automata, c) for c in ("Gfa", "Pfa", "Mcqfa", "Qfa")
                                 if hasattr(automata, c)]}
        for cls_key, meth, name, hot, is_gen in METHODS:
            for cls in classes[cls_key]:
                orig = cls.__dict__.get(meth)
                if orig is None:
                    continue
                if is_gen:
                    new = self.wrap_generator(orig, name, counts_values=True)
                else:
                    new = self.wrap(orig, name, hot, after.get(name))
                self.patches.append((cls, meth, orig))
                setattr(cls, meth, new)

    def _rebind(self, mods, orig, new):
        for module in mods.values():
            for key, value in list(vars(module).items()):
                if value is orig:
                    self.patches.append((module, key, orig))
                    setattr(module, key, new)

    def restore(self):
        for owner, key, orig in reversed(self.patches):
            setattr(owner, key, orig)
        self.patches.clear()

    # questions and output

    def begin_question(self, qid):
        self.question = qid
        self._qframe = self._enter("question", True)
        self._qt0 = time.perf_counter()

    def end_question(self):
        self._leave(self.stats["question"], self._qframe, time.perf_counter() - self._qt0)
        self.stats["question"].calls += 1
        self.question = None

    def metrics(self) -> dict:
        out = {}
        for _, _, name, _ in FUNCTIONS:
            out[f"{name}.calls"] = self.stats[name].calls
            out[f"{name}.self_s"] = self.stats[name].self_s
        for _, _, name, _, _ in METHODS:
            out[f"{name}.calls"] = self.stats[name].calls
            out[f"{name}.self_s"] = self.stats[name].self_s
        for _, _, name in GENERATORS:
            out[f"{name}.calls"] = self.stats[name].calls
            out[f"{name}.self_s"] = self.stats[name].self_s
        out["exactmath.matmul.max_bits"] = self.max_bits
        out["automata.unary_values.values"] = self.values
        out["automata.matmul_per_value"] = (
            self.matmul_in_values / self.values if self.values else 0.0)
        classes = len(self.desc_classes)
        out["langsem.desc_member.calls_per_class"] = (
            self.stats["langsem.desc_member"].calls / classes if classes else 0.0)
        out["analysis.separate.lengths_scanned"] = self.lengths_scanned
        for code in range(4):
            out[f"cli.exit.{code}"] = self.exits[code]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, question) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "question": question}) + "\n")
