"""Every module of the package that declares __all__ exports only names
it defines, and every slotted value type keeps the one immutability
rule of bchyp._frozen.Frozen."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import bchyp
from bchyp.bicomplex import BcMat3, BcVec3, Bicomplex
from bchyp.chtau import Flag, HyperboloidPoint, IncidencePoint, TangentVector
from bchyp.connection import Loop, assemble, higgs_split
from bchyp.gauss import wang_specialize
from bchyp.metric import BeltramiChart, ComplexMetric, CubicPair, TorusGrid
from bchyp.replib import Representation

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
        IncidencePoint([0, 0, 1], [0, 0, -1]),
        TangentVector(base, BcVec3.from_complex([1, 0, 0])),
        Flag([1, 0, 0], [0, 0, 1]),
        conn,
        Loop.x_period(16),
        higgs_split(conn),
        wang_specialize(0.5, grid),
        grid,
        chart,
        ComplexMetric(chart, 0.0),
        C,
        Representation({"a": np.eye(3)}),
    ]
    assert len({type(v) for v in values}) == 16
    for v in values:
        name = type(v).__name__
        assert not hasattr(v, "__dict__"), name
        for attr in (type(v).__slots__[0], "extra"):
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
