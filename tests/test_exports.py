"""Every module of the package that declares __all__ exports only names
it defines, every def of the package is called on a program path (a
call trace of the CLI commands and the frozen criteria says which) and
every other name is named by one, every defaulted parameter is set by a
call on one and left to its default by another, every field of a value
type is read on one, and every slotted value type keeps the one
immutability rule of bchyp._frozen.Frozen."""

import ast
import contextlib
import functools
import importlib
import io
import pkgutil
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import bchyp
from bchyp import cli
from bchyp.criteria import run_criterion
from bchyp.bicomplex import BcMat3, BcVec3, Bicomplex
from bchyp.chtau import Flag, HyperboloidPoint, TangentVector
from bchyp.connection import Loop, assemble
from bchyp.metric import BeltramiChart, ComplexMetric, CubicPair, TorusGrid
from bchyp.replib import Representation
from commands import commands
from oracles import wang_problem

MODULES = sorted(m.name for m in pkgutil.iter_modules(bchyp.__path__))
SOURCES = sorted(Path(bchyp.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name deleted from a module but left in its __all__ breaks
    # `from bchyp.<module> import *` only when someone runs it
    module = importlib.import_module(f"bchyp.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


@functools.cache
def traced() -> frozenset:
    """Keys "module.qualname" of every package def that the program
    paths call, recorded with sys.setprofile: the CLI commands of
    tests/commands.py but the claimed-range cells (which call no def
    that the others do not), then criterion 8 through run_criterion, as
    tests/test_acceptance.py runs it.  The CLI runs the other nine
    criteria itself; its `affine roundtrip` runs criterion 8's check
    through roundtrip_criterion, which also returns the pair.  A def
    cached by functools runs once per process, so each cache is cleared
    first."""
    for name in MODULES:
        for value in vars(importlib.import_module(f"bchyp.{name}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for argv, _ in commands(Path(tmp), with_cells=False):
                cli.main(argv + ["--json"])
            print(run_criterion(8).line)
        finally:
            sys.setprofile(previous)
    stems = {str(path): path.stem for path in SOURCES}
    return frozenset(f"{stems[c.co_filename]}.{c.co_qualname}"
                     for c in codes if c.co_filename in stems)


#: Defs that no program path calls but that stay, each with its reason,
#: keyed "module.name" or "module.Class.method": perfbench/spans.py
#: LAYERS patches it, so `perfbench --trace 1` needs it until the
#: package records its own spans (ROADMAP item 1); an open item puts it
#: on a program path; or it runs only on a failure path or when a value
#: is printed.  A relative import listed here is kept like a def.
REPR = "the printed form of a value type, for error messages and sessions"
KEPT = {
    "gauss.laplacian_matrix": "a perfbench LAYERS span (item 1)",
    "cli.maurer_cartan_residual": "a perfbench LAYERS span (item 1)",
    "cli.residual_background": "a perfbench LAYERS span (item 1)",
    "replib.loxodromy": "a perfbench LAYERS span (item 1)",
    "replib.transversality": "a perfbench LAYERS span (item 1)",
    "chtau.Flag.__init__": "loxodromy's and transversality's flags (item 1)",
    "chtau.line_plane_det": "transversality's measure (item 1)",
    "_frozen.Frozen.__setattr__": "refuses every assignment after __init__",
    "affine.PathDependent.__init__": "raised only on a failure path",
    "gauss.DidNotConverge.__init__": "raised only on a failure path",
} | {f"{cls}.__repr__": REPR for cls in (
    "bicomplex.Bicomplex", "bicomplex._Pair", "chtau.HyperboloidPoint",
    "chtau.TangentVector", "chtau.Flag", "connection.FlatConnectionField",
    "connection.Loop", "gauss.SolveReport", "metric.TorusGrid",
    "metric.BeltramiChart", "metric.ComplexMetric", "metric.CubicPair")}


def package_graph(sources):
    """(defs, imports, wholes, checked) of the modules `sources` maps by
    name to their source text, keyed "module.name", with a method keyed
    "module.Class.method".  defs maps each top-level def, class,
    assignment and method to the AST nodes that run with it (a class:
    its body but the methods, its bases and decorators); imports maps a
    relative import to the name it imports; wholes maps a module to the
    package modules it imports whole.  checked holds every top-level
    def, class and constant (a non-dunder name assigned at top level),
    method and relative import."""
    defs, imports, wholes, checked = {}, {}, {}, set()
    for mod, text in sources.items():
        wholes[mod] = set()
        for node in ast.parse(text).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        wholes[mod].add(a.asname or a.name)
                    else:
                        key = f"{mod}.{a.asname or a.name}"
                        imports[key] = f"{node.module}.{a.name}"
                        checked.add(key)
            elif isinstance(node, ast.FunctionDef):
                defs[f"{mod}.{node.name}"] = [node]
                checked.add(f"{mod}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                cls = f"{mod}.{node.name}"
                defs[cls] = node.bases + node.decorator_list
                checked.add(cls)
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        defs[f"{cls}.{stmt.name}"] = [stmt]
                        checked.add(f"{cls}.{stmt.name}")
                    else:
                        defs[cls].append(stmt)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name) and not t.id.startswith("__"):
                        defs[f"{mod}.{t.id}"] = [node.value]
                        checked.add(f"{mod}.{t.id}")
    return defs, imports, wholes, checked


def reach(roots, defs, imports, wholes):
    """Every key that a name-level walk from roots reaches.  A name
    resolves in its own module, through its imports, and an attribute
    of a module imported whole resolves in that module.  An attribute
    of anything else reaches nothing: which method it runs is the
    trace's to say."""
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        if key in imports:
            todo.append(imports[key])
        mod = key.split(".")[0]
        for node in (n for top in defs.get(key, ()) for n in ast.walk(top)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                todo.append(f"{mod}.{node.id}")
            elif (isinstance(node, ast.Attribute)
                  and getattr(node.value, "id", None) in wholes[mod]):
                todo.append(f"{node.value.id}.{node.attr}")
    return seen


def is_def(node_list):
    return len(node_list) == 1 and isinstance(node_list[0], ast.FunctionDef)


def audit(graph, called, kept):
    """(dead, stale) for a package graph, the keys of the defs that ran
    and the kept names.  A def lives when it ran or is kept; any other
    checked name when a walk from the live defs and the kept names
    reaches it.  dead lists the checked names that do not live, stale
    the kept names that ran or that a walk from the defs that ran
    reaches."""
    defs, imports, wholes, checked = graph
    functions = {k for k, v in defs.items() if is_def(v)}
    ran = called & functions
    kept = set(kept)
    live = ran | kept | (reach(ran | kept, defs, imports, wholes) - functions)
    running = ran | (reach(ran, defs, imports, wholes) - functions)
    return sorted(checked - live), sorted(kept & running)


def source_graph():
    """package_graph of the package source, with every __all__ entry
    checked as well."""
    defs, imports, wholes, checked = package_graph(
        {path.stem: path.read_text() for path in SOURCES})
    checked |= {f"{path.stem}.{name}" for path in SOURCES
                for name in getattr(importlib.import_module(
                    f"bchyp.{path.stem}"), "__all__", ())}
    return defs, imports, wholes, checked


def test_every_name_runs_on_a_program_path():
    # a def that no program path calls is dead code, and so is a class,
    # constant or import that no live def names: it is deleted, or it
    # moves to tests/oracles.py when a test compares against it
    graph = source_graph()
    defs, imports = graph[:2]
    assert set(KEPT) <= set(defs) | set(imports)
    dead, stale = audit(graph, traced(), KEPT)
    assert dead == []
    # a kept name that a program path comes to run leaves the list
    assert stale == []


def test_the_audit_names_an_uncalled_method_and_a_kept_name_that_runs():
    # make reads Point.norm but never calls it: the attribute reaches no
    # method by its name, so norm is dead; make ran, so keeping it is
    # stale, and so is keeping the constant that it names
    graph = package_graph({"m": (
        "LIMIT = 2\n"
        "class Point:\n"
        "    def __init__(self, x):\n"
        "        self.x = x\n"
        "    def norm(self):\n"
        "        return abs(self.x)\n"
        "def make(x):\n"
        "    return Point(min(x, LIMIT)).norm\n")})
    called = {"m.make", "m.Point.__init__"}
    assert audit(graph, called, {}) == (["m.Point.norm"], [])
    assert audit(graph, called, {"m.make": "planted"}) == (
        ["m.Point.norm"], ["m.make"])
    assert audit(graph, called, {"m.Point.norm": "", "m.LIMIT": ""}) == (
        [], ["m.LIMIT"])
    assert audit(graph, {"m.Point.norm"}, {}) == (
        ["m.LIMIT", "m.Point", "m.Point.__init__", "m.make"], [])


#: Defaulted parameters that no program call sets but that stay, each
#: with its reason, keyed "module.def.parameter" (a method's def is
#: "Class.method").
KNOBS = {
    "cli.main.argv": "the entry point reads sys.argv",
}


def parameters(node):
    """(positional, keyword-only, defaulted) parameter names of a def."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    keyword = [a.arg for a in args.kwonlyargs]
    defaulted = set(positional[len(positional) - len(args.defaults):]) | {
        name for name, d in zip(keyword, args.kw_defaults) if d is not None}
    return positional, keyword, defaulted


def resolve(key, imports):
    while key in imports:
        key = imports[key]
    return key


def callees(call, mod, cls, functions, imports, wholes):
    """(def key, leading parameters bound without passing) of every def
    that call may run.  A name resolves in its module through its
    imports, and `cls` in a classmethod to its class; a class runs its
    __init__.  An attribute of a module imported whole resolves in that
    module; any other attribute, but a dunder, reaches every method of
    that name."""
    func = call.func
    if isinstance(func, ast.Name):
        key = cls if func.id == "cls" and cls else f"{mod}.{func.id}"
    elif (isinstance(func, ast.Attribute)
          and getattr(func.value, "id", None) in wholes[mod]):
        key = f"{func.value.id}.{func.attr}"
    elif isinstance(func, ast.Attribute) and not func.attr.startswith("__"):
        return [(k, 0 if any(getattr(d, "id", None) == "staticmethod"
                             for d in functions[k].decorator_list) else 1)
                for k in functions
                if k.count(".") == 2 and k.endswith(f".{func.attr}")]
    else:
        return []
    key = resolve(key, imports)
    if key in functions:
        return [(key, 0)]
    return [(f"{key}.__init__", 1)] if f"{key}.__init__" in functions else []


def program_calls():
    """(defaulted, calls) of the program path: defaulted holds the
    "module.def.parameter" keys of every defaulted parameter of a def
    that ran, calls one (def key, parameter names passed) per call in
    such a def and per def that it may run."""
    defs, imports, wholes, _ = source_graph()
    functions = {k: v[0] for k, v in defs.items() if is_def(v)}
    program = traced() & set(functions)
    defaulted = {f"{k}.{name}" for k in program
                 for name in parameters(functions[k])[2]}
    calls = []
    for key in program:
        mod = key.split(".")[0]
        node = functions[key]
        cls = (key.rsplit(".", 1)[0] if any(
            getattr(d, "id", None) == "classmethod"
            for d in node.decorator_list) else None)
        for call in (n for n in ast.walk(node) if isinstance(n, ast.Call)):
            spread = (any(isinstance(a, ast.Starred) for a in call.args)
                      or any(k.arg is None for k in call.keywords))
            for target, bound in callees(call, mod, cls, functions,
                                         imports, wholes):
                positional, keyword, _ = parameters(functions[target])
                calls.append((target, set(
                    positional + keyword if spread else
                    positional[bound:bound + len(call.args)]
                    + [k.arg for k in call.keywords])))
    return defaulted, calls


def test_every_parameter_is_set_on_a_program_path():
    # a default that no program call overrides is a knob that changes
    # nothing: the parameter goes, or it joins KNOBS with its reason
    defaulted, calls = program_calls()
    unset = defaulted - {f"{target}.{name}" for target, passed in calls
                         for name in passed}
    assert sorted(unset - set(KNOBS)) == []
    # a knob that a program call comes to set leaves the list
    assert sorted(set(KNOBS) - unset) == []


#: Defaulted parameters that every program call sets but that keep
#: their default, each with its reason, keyed as in KNOBS.
DEFAULTS = {
    "chtau.TangentVector.__init__.check": (
        "the public constructor validates a caller's vector; the "
        "package's own constructions pass False"),
}


def test_every_default_is_used_on_a_program_path():
    # a default that every program call overrides changes nothing on any
    # program path: the parameter becomes required, or it joins DEFAULTS
    # with its reason.  A def that no program call runs (the entry point,
    # run_criterion) is called from outside, so its defaults stay.
    defaulted, calls = program_calls()

    def overridden(key):
        target, name = key.rsplit(".", 1)
        passed = [names for callee, names in calls if callee == target]
        return passed and all(name in names for names in passed)

    always = {key for key in defaulted if overridden(key)}
    assert sorted(always - set(DEFAULTS)) == []
    # a default that a program call comes to rely on leaves the list
    assert sorted(set(DEFAULTS) - always) == []


#: Fields of value types that no program path reads but that stay, each
#: with its reason, keyed "module.Class.field".
LOXODROMY = "the report of replib.loxodromy, which KEPT keeps (item 1)"
FIELDS = {
    "connection.Loop.steps": (
        "perfbench/verify.py reads steps[0] to tell the two periods apart "
        "(item 1)"),
    "gauss.SolveReport.krylov_iterations": "item 27's sidecar",
    "gauss.SolveReport.halvings": "item 27's sidecar",
    "replib.AnosovReport.words": (
        "perfbench/checks.py check_fuchsian reads each word's row (item 1)"),
    "replib.AnosovReport.moduli": (
        "perfbench/checks.py check_fuchsian reads each word's row (item 1)"),
} | {f"replib.LoxodromyReport.{name}": LOXODROMY
     for name in ("gaps", "loxodromic", "attracting", "repelling")}


def value_fields(sources):
    """Keys "module.Class.field" of the fields of every class of the
    modules `sources` maps by name to their source text: its __slots__
    entries, and the annotated names of a dataclass body."""
    fields = set()
    for mod, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, ast.ClassDef):
                continue
            dataclass = any(ast.unparse(d).startswith("dataclass")
                            for d in node.decorator_list)
            for stmt in node.body:
                if any(getattr(t, "id", None) == "__slots__"
                       for t in getattr(stmt, "targets", ())):
                    names = ast.literal_eval(stmt.value)
                elif (dataclass and isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)):
                    names = [stmt.target.id]
                else:
                    continue
                fields |= {f"{mod}.{node.name}.{name}" for name in names}
    return fields


def field_audit(graph, fields, called, kept, listed):
    """(unread, stale) for a package graph, its fields, the keys of the
    defs that ran, the kept names and the listed fields.  A field is
    read when a def that ran or is kept loads an attribute of its name,
    its own class's __init__, __post_init__ and __repr__ aside; by name,
    so the audit errs toward read.  unread lists the unlisted fields
    that no such def reads, stale the listed fields that one does."""
    defs = graph[0]
    readers = {k for k, v in defs.items() if is_def(v)} & (called | set(kept))
    loads = {key: {n.attr for n in ast.walk(defs[key][0])
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load)} for key in readers}

    def read(field):
        cls, name = field.rsplit(".", 1)
        own = {f"{cls}.{m}" for m in ("__init__", "__post_init__", "__repr__")}
        return any(name in attrs for key, attrs in loads.items()
                   if key not in own)

    unread = {field for field in fields if not read(field)}
    return sorted(unread - set(listed)), sorted(set(listed) - unread)


def test_every_field_is_read_on_a_program_path():
    # a field that no program path reads is data that every value of
    # its type carries for nothing: it is deleted, or it joins FIELDS
    # with its reason
    fields = value_fields({path.stem: path.read_text() for path in SOURCES})
    assert set(FIELDS) <= fields
    unread, stale = field_audit(source_graph(), fields, traced(), KEPT,
                                FIELDS)
    assert unread == []
    # a listed field that a program path comes to read leaves the list
    assert stale == []


def test_the_field_audit_names_a_written_slot_and_a_listed_slot_read():
    # tag is written by __init__ and read by the class's own __repr__
    # only, so it is unread; y is read by norm only, which counts once
    # norm is kept; make reads x, so listing x is stale.  The
    # dataclass's annotated count is read by make, its unannotated
    # LIMIT is no field.
    sources = {"m": (
        "from dataclasses import dataclass\n"
        "class Point:\n"
        "    __slots__ = ('x', 'y', 'tag')\n"
        "    def __init__(self, x, y, tag):\n"
        "        self.x, self.y, self.tag = x, y, tag\n"
        "    def __repr__(self):\n"
        "        return f'Point({self.tag})'\n"
        "    def norm(self):\n"
        "        return abs(self.y)\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    count: int\n"
        "    LIMIT = 2\n"
        "def make(x):\n"
        "    return Report(1).count + Point(x, x, '').x\n")}
    graph, fields = package_graph(sources), value_fields(sources)
    assert fields == {"m.Point.x", "m.Point.y", "m.Point.tag",
                      "m.Report.count"}
    called = {"m.make", "m.Point.__init__", "m.Point.__repr__"}
    assert field_audit(graph, fields, called, {}, {}) == (
        ["m.Point.tag", "m.Point.y"], [])
    assert field_audit(graph, fields, called, {"m.Point.norm": ""}, {}) == (
        ["m.Point.tag"], [])
    assert field_audit(graph, fields, called, {"m.Point.norm": ""},
                       {"m.Point.tag": "", "m.Point.x": ""}) == (
        [], ["m.Point.x"])


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_reason_that_cites_perfbench_names_what_it_mentions():
    # a name kept for the benchmark stays only while a perfbench source
    # mentions it: when the benchmark stops naming it, the entry fails
    # here and goes
    text = "\n".join(path.read_text()
                     for path in sorted(PERFBENCH.glob("*.py")))
    cited = sorted(key.rsplit(".", 1)[1]
                   for key, reason in (KEPT | FIELDS).items()
                   if "perfbench" in reason)
    assert cited
    assert [name for name in cited
            if not re.search(rf"\b{name}\b", text)] == []


def test_every_value_type_is_immutable():
    grid = TorusGrid(16)
    chart = BeltramiChart.identity(grid)
    C = CubicPair(grid, 0.5, 0.5)
    conn = assemble(np.zeros((16, 16)), C, chart)
    base = HyperboloidPoint(BcVec3.from_complex([0, 0, 1]))
    values = [
        Bicomplex(1.0, 2.0),
        BcVec3([1, 0, 0], [0, 1, 0]),
        BcMat3(np.eye(3), np.eye(3)),
        base,
        TangentVector(base, BcVec3.from_complex([1, 0, 0])),
        Flag([1, 0, 0], [0, 0, 1]),
        conn,
        Loop.x_period(16),
        wang_problem(0.25, 16),
        grid,
        chart,
        ComplexMetric(chart, 0.0),
        C,
        Representation({"a": np.eye(3)}),
    ]
    assert len({type(v) for v in values}) == 14
    for v in values:
        name = type(v).__name__
        assert not hasattr(v, "__dict__"), name
        # the first slot along the MRO: a subclass may declare none
        first = next(s for c in type(v).__mro__
                     for s in getattr(c, "__slots__", ()))
        for attr in (first, "extra"):
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                setattr(v, attr, None)


def test_only_frozen_guards_assignment():
    # one rule: no class but Frozen overrides __setattr__, and every
    # class that declares slots inherits Frozen's
    setattr_owners, unfrozen = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef) or node.name == "Frozen":
                continue
            where = f"{path.stem}.{node.name}"
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            for stmt in node.body:
                if (isinstance(stmt, ast.FunctionDef)
                        and stmt.name == "__setattr__"):
                    setattr_owners.append(where)
                targets = [t.id for t in getattr(stmt, "targets", ())
                           if isinstance(t, ast.Name)]
                if ("__slots__" in targets and ast.literal_eval(stmt.value)
                        and "Frozen" not in bases):
                    unfrozen.append(where)
    assert setattr_owners == []
    assert unfrozen == []
