"""Spans around the calls into each bchyp layer, recorded from outside.

The benchmark does not change the program: it replaces module attributes
(and a few class attributes) with wrappers while a traced round runs,
and restores them afterwards.  Each wrapper records a span (name,
start, end, parent, operation) in memory; `per_op` reduces the spans of
one operation to per-layer times, self times and call counts.

Capture hooks are separate and always on: they keep the return values
the correctness checks need (psi, holonomies, the integrated pair, the
scan report), which the CLI's JSON manifest does not carry.
"""

from __future__ import annotations

import functools
import time

# (owner, attribute, span name).  The owner is resolved lazily from the
# imported package, so this table is plain data.
LAYERS = (
    ("cli", "load_config", "cli.load_config"),
    ("cli", "build_problem", "cli.build_problem"),
    ("cli", "run_manifest", "cli.run_manifest"),
    ("cli", "load_generators", "cli.load_generators"),
    ("metric.BeltramiChart", "identity", "metric.chart"),
    ("metric.BeltramiChart", "sine_perturbed", "metric.chart"),
    ("metric.BeltramiChart", "constant_mu", "metric.chart"),
    ("gauss.GaussProblem", "__init__", "gauss.GaussProblem"),
    ("cli", "solve_newton", "gauss.solve_newton"),
    ("gauss", "laplacian_matrix", "gauss.laplacian_matrix"),
    ("gauss", "residual_background", "gauss.residual_background"),
    ("cli", "residual_background", "gauss.residual_background"),
    ("cli", "assemble", "connection.assemble"),
    ("cli", "maurer_cartan_residual", "connection.maurer_cartan_residual"),
    ("connection", "maurer_cartan_residual",
     "connection.maurer_cartan_residual"),
    ("cli", "holonomy", "connection.holonomy"),
    ("affine", "integrate_frame", "affine.integrate_frame"),
    ("affine", "structure_residuals", "affine.structure_residuals"),
    ("affine", "blaschke_data", "affine.blaschke_data"),
    ("replib.Representation", "__init__", "replib.Representation"),
    ("cli", "anosov_scan", "replib.anosov_scan"),
    ("replib", "loxodromy", "replib.loxodromy"),
    ("replib", "transversality", "replib.transversality"),
    ("replib", "centralizer_check", "replib.centralizer_check"),
)

# counts read off return values: span name -> (count name, reader)
RESULT_COUNTS = {
    "gauss.solve_newton": ("gauss.newton_steps", lambda r: r.iterations),
    "replib.anosov_scan": ("replib.words", lambda r: len(r.words)),
}

CAPTURES = (
    ("cli", "solve_newton", "solve"),
    ("cli", "holonomy", "holonomy"),
    ("affine", "integrate_frame", "pair"),
    ("cli", "anosov_scan", "scan"),
)


def _owner(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _patch(owner, attr, make):
    """Replace owner.attr by make(original function); return an undo."""
    if isinstance(owner, type):
        raw = owner.__dict__[attr]        # keeps a classmethod a classmethod
    else:
        raw = getattr(owner, attr)
    if isinstance(raw, classmethod):
        new = classmethod(make(raw.__func__))
    else:
        new = make(raw)
    setattr(owner, attr, new)
    return lambda: setattr(owner, attr, raw)


class Captures:
    """Return values of the last operation, keyed by CAPTURES label."""

    def __init__(self, package):
        self.values = {}
        for path, attr, label in CAPTURES:
            _patch(_owner(package, path), attr,
                   functools.partial(self._make, label))

    def _make(self, label, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.values.setdefault(label, []).append((args, result))
            return result
        return wrapper

    def take(self) -> dict:
        out, self.values = self.values, {}
        return out


class Tracer:
    """Span recorder; install() before a traced round, remove() after."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, start, end, parent index, op]
        self._stack = []
        self._undo = []
        self.op = -1

    def install(self):
        for path, attr, name in LAYERS:
            self._undo.append(_patch(_owner(self.package, path), attr,
                                     functools.partial(self._make, name)))

    def remove(self):
        while self._undo:
            self._undo.pop()()

    def _make(self, name, fn):
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counted:
                span.append(counted[1](result))
            return result
        return wrapper

    def begin_op(self, op: int):
        """Open the root span of one operation."""
        self.op = op
        self._stack = [len(self.spans)]
        self.spans.append(["op", time.perf_counter(), None, None, op])

    def end_op(self):
        self.spans[self._stack[0]][2] = time.perf_counter()
        self._stack = []


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def per_op(spans) -> dict[int, dict[str, float]]:
    """Per operation: <name>_s (outermost spans of that name),
    <name>.self_s (duration minus child coverage), <name>.calls, the
    result counts, and op.coverage (share of the operation inside layer
    spans)."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)
    out = {}
    for i, (name, start, end, parent, op, *extra) in enumerate(spans):
        row = out.setdefault(op, {})
        kids = [(spans[k][1], spans[k][2]) for k in children.get(i, ())]
        self_s = (end - start) - _union(kids)
        if name == "op":
            row["op_s"] = end - start
            row["op.coverage"] = 1.0 - self_s / (end - start)
            continue
        outer = True
        p = parent
        while p is not None:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        if outer:
            row[f"{name}_s"] = row.get(f"{name}_s", 0.0) + (end - start)
        row[f"{name}.self_s"] = row.get(f"{name}.self_s", 0.0) + self_s
        row[f"{name}.calls"] = row.get(f"{name}.calls", 0) + 1
        if extra:
            key = RESULT_COUNTS[name][0]
            row[key] = row.get(key, 0) + extra[0]
    return out
