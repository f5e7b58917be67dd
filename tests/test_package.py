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
    # importing the package and its CLI loads no scipy module
    code = "import sys, swarm_eq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(swarm_eq.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"



def test_weakcross_loads_no_scipy():
    # the overlap branch's root finder is the package's own: solving it imports no scipy module
    code = """
import contextlib, io, sys
from swarm_eq.cli import main
from swarm_eq.weak_cross import d_of_ab_ratio

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["weakcross", "--ratio", "2.5", "--n-points", "3"]) == 0
assert d_of_ab_ratio(2.5).regime == "intermediate"
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
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


def test_pair_passes_read_their_constants_from_the_kernel_plan():
    # forces and particle_energy run once per RK4 stage and record: the per-run constants
    # (weights, row blocks, collision threshold) are built by the memoized kernel plan only
    built_once = {"np.repeat", "np.column_stack", "_row_blocks", "collision_threshold"}
    tree = ast.parse((Path(swarm_eq.__file__).parent / "particles.py").read_text())
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    offenders = [
        f"{name}:{node.lineno}: {ast.unparse(node.func)}"
        for name in ("forces", "particle_energy")
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Call) and ast.unparse(node.func) in built_once
    ]
    assert offenders == []
    # the builder is where they went
    calls = {ast.unparse(node.func) for node in ast.walk(functions["_build_plan"]) if isinstance(node, ast.Call)}
    assert {"np.repeat", "_row_blocks"} <= calls


def test_run_drives_one_rk4_step_function():
    # run owns the stops, the record grid and the velocity evaluations, _rk4_advance the step-size
    # controller: only the stepper takes RK4 steps, and only the driver evaluates velocities and
    # records; both call step and forces by their module names, which tests and the benchmark's
    # tracer replace on the module
    tree = ast.parse((Path(swarm_eq.__file__).parent / "particles.py").read_text())
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    calls = {
        name: [ast.unparse(node.func) for node in ast.walk(functions[name]) if isinstance(node, ast.Call)]
        for name in ("run", "_rk4_advance")
    }
    assert "step" not in calls["run"] and "_rk4_advance" in calls["run"]
    assert not {"forces", "_record", "particle_energy"} & set(calls["_rk4_advance"])
    assert "step" in calls["_rk4_advance"]
    # the initial state's velocities, and each accepted state's
    assert calls["run"].count("forces") == 2


def _functions(path):
    """(name, node) of each top-level function and each method of a top-level class in a module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef))


def _calls(node):
    return [ast.unparse(sub.func) for sub in ast.walk(node) if isinstance(sub, ast.Call)]


def test_each_closed_form_lives_in_one_place():
    package = Path(swarm_eq.__file__).parent
    functions = {
        f"{path.stem}.{name}": fn for path in sorted(package.glob("*.py")) for name, fn in _functions(path)
    }
    # the first-order repulsion and attraction integrals are written once, on complex scalars, in
    # boundary_integrals._repulsion and _attraction: the (x, y) vector API and build_Q_from_integrals
    # call them, and no other function outside PerturbedDisk reads a perturbation amplitude
    assert "_repulsion" in _calls(functions["boundary_integrals.repulsion_integral"])
    assert "_attraction" in _calls(functions["boundary_integrals.attraction_integral"])
    assembly = set(_calls(functions["linear_stability.build_Q_from_integrals"]))
    assert {"_repulsion", "_attraction"} <= assembly
    assert not {"repulsion_integral", "attraction_integral"} & assembly
    cores = {"boundary_integrals._repulsion", "boundary_integrals._attraction"}
    readers = {
        name
        for name, fn in functions.items()
        for sub in ast.walk(fn)
        if isinstance(sub, ast.Attribute) and sub.attr in ("eps_N", "eps_T")
    }
    assert {name for name in readers if not name.startswith("boundary_integrals.PerturbedDisk.")} == cores
    # the uniform-disk terms of the Lambda profiles are written once (equilibria._disk_coeffs) and the
    # shells are walked for them once (_disk_terms): lambda_coeffs and lambda_profile sum the helper's
    # terms, neither walks the shells itself, and a profile builds its terms once, not once per piece;
    # the cross-force oracle reads one unit disk's potential from _disk_coeffs too
    assert {name for name, fn in functions.items() if "_disk_coeffs" in _calls(fn)} == {
        "equilibria._disk_terms", "weak_cross.cross_condition_residual"
    }
    profile = functions["variational.lambda_profile"]
    for fn in (functions["equilibria.lambda_coeffs"], profile):
        assert "_disk_terms" in _calls(fn)
        assert not any(isinstance(sub, ast.Attribute) and sub.attr == "shells" for sub in ast.walk(fn))
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    in_loops = {call for sub in ast.walk(profile) if isinstance(sub, loops) for call in _calls(sub)}
    assert "_disk_terms" not in in_loops and "lambda_coeffs" not in _calls(profile)


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is a constant: every defaulted parameter of a package function
    # or method is passed, by keyword or by position, by some call in src/, tests/ or bench/.  A call
    # matches by the callee's last name (a class's name for __init__); a call that unpacks *args or
    # **kwargs may pass anything
    root = Path(__file__).resolve().parents[1]
    calls = {}
    for path in (path for d in ("src", "tests", "bench") for path in sorted((root / d).rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)

    def passes(call, index, name):
        keywords = {k.arg for k in call.keywords}
        unpacks = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
        return unpacks or name in keywords or (index is not None and len(call.args) > index)

    unpassed = []
    for path in sorted((root / "src" / "swarm_eq").glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {item: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for item in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = methods.get(fn)
            callee = cls if fn.name == "__init__" else fn.name
            bound = cls is not None and "staticmethod" not in [ast.unparse(d) for d in fn.decorator_list]
            a = fn.args
            positional = (a.posonlyargs + a.args)[int(bound):]
            defaulted = [(i, p.arg) for i, p in enumerate(positional)][len(positional) - len(a.defaults):]
            defaulted += [(None, k.arg) for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            unpassed += [
                f"{path.stem}.{cls + '.' if cls else ''}{fn.name}({name})"
                for index, name in defaulted
                if not any(passes(call, index, name) for call in calls.get(callee, []))
            ]
    assert unpassed == []


def test_the_verdict_vocabulary_has_one_home():
    # linear_stability holds the one table of verdict codes and the one marginal-band rule, band_verdict:
    # the per-mode spectra and both sweep verdicts call it, and no other module names a verdict code or
    # verdict string at module level; sweeps keeps only the CSV's code of a missing state, -2
    package = Path(swarm_eq.__file__).parent
    functions = {
        f"{path.stem}.{name}": fn for path in sorted(package.glob("*.py")) for name, fn in _functions(path)
    }
    for name in ("linear_stability.mode_spectrum", "sweeps.cubic_mode_verdict", "sweeps.target_verdict_grid"):
        assert "band_verdict" in _calls(functions[name]), name
    verdicts = {"stable", "unstable", "marginal"}
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "linear_stability":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            strings = {n.value for n in ast.walk(stmt.value) if isinstance(n, ast.Constant)}
            missing_code = path.stem == "sweeps" and names == {"_VERDICT_MISSING"} and ast.literal_eval(stmt.value) == -2
            if (any("verdict" in name.lower() for name in names) and not missing_code) or strings & verdicts:
                offenders.append(f"{path.stem}:{stmt.lineno}: {', '.join(sorted(names))}")
    assert offenders == []
