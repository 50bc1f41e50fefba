"""Spans for the traced run, recorded from outside the program.

`install` rebinds densalg's public functions wherever a densalg module holds
them (``densalg.classify.antibracket``, ``densalg.cli.parse``, ...) and wraps
the hot ``SPoly`` methods on the class, so every call into a layer opens a
span.  A span is (name, start, end, parent, job, work): ``work`` is the count
the boundary reports, such as term pairs for a product.  Spans stay in
memory in flat arrays and are written once, at exit.  Self times and counts
are derived from the spans alone.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

# span name -> public functions it covers (module attribute names)
FUNCTION_SPANS = {
    "brackets.antibracket": ("antibracket",),
    "brackets.divergence": ("divergence", "divergence_full", "delta_op"),
    "brackets.pin": ("pin_convention",),
    "brackets.ledger": ("convention_ledger",),
    "lift.lift": ("lift",),
    "lift.transform": ("transform_hatted", "transform_density"),
    "classify.ansatz": ("monomial_ansatz",),
    "classify.nullspace": ("nullspace_fraction_free",),
    "dsl.parse": ("parse",),
    "printing": ("poly_to_text", "poly_to_dict"),
    "cli.main": ("main",),
}
# span name -> (module, class, method names)
METHOD_SPANS = {
    "spoly.mul": ("densalg.spoly", "SPoly", ("__mul__",)),
    "spoly.add": ("densalg.spoly", "SPoly", ("__add__", "__radd__")),
    "spoly.derive": ("densalg.spoly", "SPoly", ("derive_left", "derive_right")),
    "spoly.substitute": ("densalg.spoly", "SPoly", ("substitute",)),
    "lift.change": ("densalg.lift", "CoordinateChange", ("__init__",)),
    "dsl.run": ("densalg.dsl", "Interpreter", ("run",)),
}


def _mul_work(args, result, counters):
    f, g = args[0], args[1]
    if result is NotImplemented:
        return 0
    counters["spoly.mul.out_terms"] += len(result.terms)
    return len(f.terms) * (len(g.terms) if hasattr(g, "terms") else 1)


def _nullspace_work(args, result, counters):
    rows, n_cols = args[0], args[1]
    nnz = sum(1 for row in rows for x in row if x)
    counters["classify.nullspace.rows"] += len(rows)
    counters["classify.nullspace.cols"] += n_cols
    counters["classify.nullspace.cells"] += len(rows) * n_cols
    counters["classify.nullspace.rank"] += n_cols - len(result)
    counters["classify.kernel_dim"] += len(result)
    return nnz


WORK = {
    "spoly.mul": _mul_work,
    "spoly.add": lambda args, result, counters: len(args[0].terms),
    "printing": lambda args, result, counters: len(args[0].terms),
    "dsl.run": lambda args, result, counters: len(args[1].statements),
    "classify.nullspace": _nullspace_work,
}


class Recorder:
    """Span store; records only while `active` is set."""

    def __init__(self):
        self.names = []
        self.active = False
        self.job = -1
        self.clear()

    def clear(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.jobs = array("i")
        self.work = array("q")
        self.stack = []
        self.counters = Counter()

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job)
        self.end.append(0.0)
        self.work.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        nid = self.name_id(name)
        work = WORK.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if work is not None:
                rec.work[i] = work(args, result, rec.counters)
            return result

        return traced

    def take(self):
        """The spans recorded so far, as a Trace; the store starts empty."""
        trace = Trace(self)
        self.clear()
        return trace


class Trace:
    def __init__(self, rec):
        self.names = list(rec.names)
        self.name, self.start, self.end = rec.name, rec.start, rec.end
        self.parent, self.jobs, self.work = rec.parent, rec.jobs, rec.work
        self.counters = rec.counters

    def __len__(self):
        return len(self.name)

    def summary(self):
        """Per span name: calls, self seconds, work; plus spans under a pin."""
        n = len(self.name)
        child = [0.0] * n
        under_pin = bytearray(n)
        pin = self.names.index("brackets.pin") if "brackets.pin" in self.names else -1
        antibracket = self.names.index("brackets.antibracket") if "brackets.antibracket" in self.names else -1
        calls, self_s, work = Counter(), Counter(), Counter()
        pin_antibrackets = 0
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
                under_pin[i] = under_pin[par]
            if self.name[i] == pin:
                under_pin[i] = 1
            elif self.name[i] == antibracket and under_pin[i]:
                pin_antibrackets += 1
        for i in range(n):
            nm = self.names[self.name[i]]
            calls[nm] += 1
            self_s[nm] += self.end[i] - self.start[i] - child[i]
            work[nm] += self.work[i]
        return calls, self_s, work, pin_antibrackets

    def write(self, path):
        """Spans as gzip'd tab-separated lines: name start end parent job work."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\twork\n")
            for i in range(len(self.name)):
                fh.write(
                    "%s\t%.9f\t%.9f\t%d\t%d\t%d\n"
                    % (
                        self.names[self.name[i]],
                        self.start[i],
                        self.end[i],
                        self.parent[i],
                        self.jobs[i],
                        self.work[i],
                    )
                )


def install(rec):
    """Wrap densalg's layer boundaries for `rec`."""
    modules = [m for k, m in sorted(sys.modules.items()) if k == "densalg" or k.startswith("densalg.")]
    for name, attrs in FUNCTION_SPANS.items():
        for attr in attrs:
            originals = {getattr(m, attr) for m in modules if callable(getattr(m, attr, None))}
            for fn in originals:
                if not getattr(fn, "__module__", "").startswith("densalg"):
                    continue
                traced = rec.wrap(name, fn)
                for m in modules:
                    if getattr(m, attr, None) is fn:
                        setattr(m, attr, traced)
    for name, (module, cls_name, methods) in METHOD_SPANS.items():
        cls = getattr(sys.modules[module], cls_name)
        wrappers = {}  # __add__ and __radd__ are one function: wrap it once
        for meth in methods:
            fn = cls.__dict__[meth]
            if fn not in wrappers:
                wrappers[fn] = rec.wrap(name, fn)
            setattr(cls, meth, wrappers[fn])
