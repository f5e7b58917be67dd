import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import swarm_eq
from swarm_eq.equilibria import EquilibriumKind


def test_public_surface_resolves_and_star_imports():
    assert len(set(swarm_eq.__all__)) == len(swarm_eq.__all__)
    assert [name for name in swarm_eq.__all__ if not hasattr(swarm_eq, name)] == []
    namespace = {}
    exec("from swarm_eq import *", namespace)
    assert set(swarm_eq.__all__) <= set(namespace)


def test_cli_import_loads_no_scipy():
    # scipy is imported where a quadrature oracle or root finder runs, not at import time
    code = "import sys, swarm_eq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(swarm_eq.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"



def test_no_module_imports_scipy_integrate():
    # every quadrature in the package is the numpy rule quadrature.periodic_trapezoid
    offenders = []
    for path in sorted((Path(swarm_eq.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module or ""]
            else:
                continue
            offenders += [f"{path.stem}: {name}" for name in names if name.startswith("scipy.integrate")]
    assert offenders == []


def test_oracles_load_no_scipy():
    code = """
import sys
import numpy as np
from swarm_eq import boundary_integrals as bi
from swarm_eq.equilibria import build_equilibrium
from swarm_eq.model import InteractionParams
from swarm_eq.quadrature import disk_kernel_integral
from swarm_eq.variational import lambda_quadrature_oracle

probe = bi.PerturbedDisk(1.2, 3, 0.01, 0.008)
bi.oracle_log_contour(1.0, 2, 0.3)
bi.oracle_rational_contour(0.9, 2, 0.3)
bi.oracle_attraction(np.array([1.5, -0.4]), probe)
bi.oracle_repulsion(probe, 0.41, probe)
bi.oracle_repulsion(probe, 0.41, bi.PerturbedDisk(0.9, 3, 0.007, 0.003))
disk_kernel_integral((0.2, 0.1), (0.0, 0.0), 1.0, 1.0, 1.0)
disk_kernel_integral((2.0, 0.1), (0.0, 0.0), 1.0, 1.0, 1.0)
cfg = build_equilibrium("target-light", InteractionParams(a_s=1.0, a_c=3.0, b_s=1.0, b_c=3.5, M1=2.0, M2=1.0))
lambda_quadrature_oracle(cfg, 1, 0.5 * cfg.radii[-1])
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(swarm_eq.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

def test_only_equilibria_decides_on_an_equilibrium_kind():
    # each kind's species roles and target-ness are EquilibriumKind's own members: elsewhere in the
    # package no comparison and no dict key names a kind (passing one as an argument stays allowed)
    names = {kind.name for kind in EquilibriumKind}
    values = {kind.value for kind in EquilibriumKind}
    offenders = []
    for path in sorted(Path(swarm_eq.__file__).parent.glob("*.py")):
        if path.name == "equilibria.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                parts = [node.left, *node.comparators]
            elif isinstance(node, ast.Dict):
                parts = [key for key in node.keys if key is not None]
            else:
                continue
            offenders += [
                f"{path.stem}:{node.lineno}"
                for part in parts
                for sub in ast.walk(part)
                if (isinstance(sub, ast.Attribute) and sub.attr in names)
                or (isinstance(sub, ast.Constant) and sub.value in values)
            ]
    assert offenders == []


def test_the_particle_state_stays_one_array():
    # ParticleState holds both species in one (N, 2) array: no np.concatenate call in the
    # package joins the species views back together, and no state is built around its checks
    offenders = []
    for path in sorted(Path(swarm_eq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            if name == "object.__new__":
                offenders.append(f"{path.stem}:{node.lineno}: {name}")
            elif name in ("np.concatenate", "numpy.concatenate"):
                args = [*node.args, *(k.value for k in node.keywords)]
                if any(
                    (isinstance(sub, ast.Attribute) and sub.attr in ("pos1", "pos2"))
                    or (isinstance(sub, ast.Name) and sub.id in ("pos1", "pos2"))
                    for arg in args
                    for sub in ast.walk(arg)
                ):
                    offenders.append(f"{path.stem}:{node.lineno}: {name}")
    assert offenders == []


def _top_level_reads(tree):
    """Per top-level statement of a module: (the statement, names it defines, names and attributes it reads,
    attributes it reads)."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        else:
            defined = set()
        nodes = list(ast.walk(stmt))
        names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        attributes = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        out.append((stmt, defined, names | attributes, attributes))
    return out


def test_every_module_level_name_and_method_is_used():
    # a top-level function, class or assigned name must be read somewhere in src/, tests/ or bench/
    # outside its own definition, and a method must be reached as an attribute somewhere; dunders
    # are called by Python itself, and a method that overrides a base-class attribute by its base
    root = Path(__file__).resolve().parents[1]
    files = [path for d in ("src", "tests", "bench") for path in sorted((root / d).rglob("*.py"))]
    reads = {path: _top_level_reads(ast.parse(path.read_text())) for path in files}
    attributes = set().union(*(attrs for stmts in reads.values() for *_, attrs in stmts))
    unused = []
    for path in sorted((root / "src" / "swarm_eq").glob("*.py")):
        module = importlib.import_module("swarm_eq" if path.stem == "__init__" else f"swarm_eq.{path.stem}")
        for stmt, defined, *_ in reads[path]:
            for name in sorted(defined):
                read = (
                    name in loaded
                    for p, stmts in reads.items()
                    for _, own, loaded, _ in stmts
                    if not (p == path and name in own)
                )
                if not name.startswith("__") and not any(read):
                    unused.append(f"{path.stem}.{name}")
            if isinstance(stmt, ast.ClassDef):
                bases = getattr(module, stmt.name).__mro__[1:]
                unused += [
                    f"{path.stem}.{stmt.name}.{item.name}"
                    for item in stmt.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__")
                    and item.name not in attributes
                    and not any(hasattr(base, item.name) for base in bases)
                ]
    assert unused == []


def test_only_main_writes_files_and_stdout():
    # a command returns its stdout record and the files to write; cli.main writes all of the files
    # or none and prints the record after them, so no cmd_* function writes or prints on its own
    tree = ast.parse((Path(swarm_eq.__file__).parent / "cli.py").read_text())
    offenders = [
        f"{fn.name}:{node.lineno}: {ast.unparse(node.func)}"
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id in ("print", "_write_all", "write_csv"))
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "save")
            or ast.unparse(node.func) == "sys.stdout.write"
        )
    ]
    assert [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")]
    assert offenders == []
