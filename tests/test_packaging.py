"""Package checks: pyproject.toml declares only what exists, and src/ keeps its rules."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pyproject():
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)


@pytest.fixture(scope="module")
def project(pyproject):
    return pyproject["project"]


def test_declared_scripts_import(project):
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in filter(None, attr.split(".")):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_declared_readme_exists(project):
    readme = project.get("readme")
    if readme is None:
        return
    path = readme if isinstance(readme, str) else readme["file"]
    assert (ROOT / path).is_file()


def test_pytest_pythonpath_entries_exist(pyproject):
    entries = pyproject["tool"]["pytest"]["ini_options"]["pythonpath"]
    assert entries
    for entry in entries:
        assert (ROOT / entry).is_dir(), entry


def test_pytest_testpaths_entries_exist(pyproject):
    entries = pyproject["tool"]["pytest"]["ini_options"]["testpaths"]
    assert entries
    for entry in entries:
        assert (ROOT / entry).is_dir(), entry


TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def test_ci_runs_the_tier1_command():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert TIER1 in workflow
    assert TIER1 in (ROOT / "ROADMAP.md").read_text()
    for workload in ("levelstats", "wavefront", "decay"):
        assert workload in workflow


def ci_replay_loops():
    """The workflow's loops over input sets: run.py's arguments -> (workloads, seeds)."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    loops = re.findall(
        r"for w in ([\w ]+); do\s+for s in \$\(seq (\d+) (\d+)\); do\s+"
        r"last=\$\(python3 perfbench/run.py ([^|]+?) \|",
        workflow,
    )
    assert len({args for *_, args in loops}) == len(loops)
    return {args: (set(w.split()), range(int(a), int(b) + 1)) for w, a, b, args in loops}


def test_ci_replays_every_input_set_of_every_workload():
    # perfbench/run.py maps a seed to input set seed % 16.
    loops = ci_replay_loops()
    workloads, seeds = loops['--workload "$w" --seed "$s" --seconds 1 --trace 0']
    assert workloads == {"levelstats", "wavefront", "decay"}
    assert {s % 16 for s in seeds} == set(range(16))


def test_ci_replays_levelstats_and_wavefront_at_one_blas_thread():
    # decay's stretched fit misses its tolerance at one thread on two input
    # sets, so only the other two workloads are replayed there.
    loops = ci_replay_loops()
    assert len(loops) == 2
    workloads, seeds = loops['--workload "$w" --seed "$s" --threads 1 --seconds 1 --trace 0']
    assert workloads == {"levelstats", "wavefront"}
    assert {s % 16 for s in seeds} == set(range(16))


def test_ci_runs_the_traced_pass_of_every_workload():
    # The traced pass also starts the one-BLAS-thread child, which checks the
    # outputs against the references a second time.
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    traced = re.findall(
        r'for w in ([\w ]+); do\s+last=\$\(python3 perfbench/run.py --workload "\$w" '
        r"--seed 0 --seconds 1 --trace 1 \|",
        workflow,
    )
    assert len(traced) == 1
    assert set(traced[0].split()) == {"levelstats", "wavefront", "decay"}
    # One correctness gate for each call of run.py.
    assert workflow.count('["correct"] is True') == workflow.count("python3 perfbench/run.py") == 3


def test_ci_keeps_the_traced_spans():
    # ROADMAP aim 4: a reader judges a CI run from its spans without re-running
    # it, even when a gate failed.
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    traced = workflow.index("--trace 1")
    upload = re.search(
        r"\n      - name: [^\n]+\n        if: always\(\)\n"
        r"        uses: actions/upload-artifact@v4\n        with:\n"
        r"          name: [\w-]+\n          path: \.perfbench-out/\n",
        workflow,
    )
    assert upload and upload.start() > traced
    assert (ROOT / "perfbench" / "run.py").read_text().count('ROOT / ".perfbench-out"') == 1


def ci_installs():
    """The package specs of the workflow's one pip install line."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    installs = re.findall(r"pip install ([^\n]+)", workflow)
    assert len(installs) == 1
    return installs[0].split()


def package_names(specs):
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in specs}


def test_ci_installs_exactly_the_declared_dependencies(project):
    declared = project["dependencies"] + project["optional-dependencies"]["test"]
    assert package_names(ci_installs()) == package_names(declared)


def test_ci_pins_numpy_and_scipy_to_exact_versions_within_the_declared_ranges(project):
    # The benchmark replay in CI is bit-sensitive, so it runs on the numpy and
    # scipy its references were recorded with.
    pins = dict(spec.split("==") for spec in ci_installs() if "==" in spec)
    for name in ("numpy", "scipy"):
        assert re.fullmatch(r"\d+\.\d+\.\d+", pins.get(name, "")), name
        floor = next(spec for spec in project["dependencies"] if spec.startswith(name + ">="))
        version = tuple(int(x) for x in pins[name].split("."))
        assert version >= tuple(int(x) for x in floor.split(">=")[1].split(".")), name


def run_fresh(code):
    """Exit code of `code` run in a fresh interpreter that imports ladderxx from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def test_importing_the_workload_modules_leaves_scipy_optimize_unloaded():
    # Only fits.fit_mbl_form needs scipy.optimize; the import costs ~0.2 s.
    code = (
        "import sys, ladderxx.fits, ladderxx.wavefront, ladderxx.levelstats; "
        "sys.exit('scipy.optimize' in sys.modules)"
    )
    assert run_fresh(code) == 0


def test_a_wavefront_grid_leaves_scipy_linalg_unloaded():
    # Only core.diagonalize needs scipy.linalg, so a space-time grid with
    # shared fields never loads scipy's LAPACK and its own OpenBLAS copy.
    # Nor does it load scipy.sparse, whose scipy._lib._util pulls in
    # numpy.f2py, numpy.testing and numpy.ma (~0.2 s and ~20 MiB).
    code = (
        "import sys, numpy as np; "
        "from ladderxx import core, fits, levelstats, otoc, wavefront; "
        "p = core.LadderParams(L=4, h=1.0); "
        "g = wavefront.build_spacetime_grid(p, [core.sample_disorder(p, 1)], np.linspace(0, 2, 5)); "
        "assert g.values.shape == (3, 5); "
        "sys.exit(any(m in sys.modules for m in ('scipy.linalg', 'scipy.sparse', 'scipy._lib._util')))"
    )
    assert run_fresh(code) == 0


@pytest.mark.parametrize("vectors", [False, True])
def test_diagonalize_loads_scipy_linalg_in_a_fresh_process(vectors):
    code = (
        "import sys, numpy as np; "
        "from ladderxx import core; "
        "assert 'scipy.linalg' not in sys.modules; "
        "p = core.LadderParams(L=4, h=1.0); "
        "H = core.build_hamiltonian(p, core.sample_disorder(p, 1), core.SectorBasis(4)); "
        f"w = core.diagonalize(H, vectors={vectors}).eigenvalues; "
        "assert np.max(np.abs(w - np.linalg.eigvalsh(H.dense()))) < 1e-12; "
        "sys.exit('scipy.linalg' not in sys.modules)"
    )
    assert run_fresh(code) == 0


def test_src_imports_scipy_only_inside_functions():
    # A module-level scipy import is paid by every process that imports
    # ladderxx; each scipy use imports its subpackage where it is called.
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        nodes = list(ast.parse(path.read_text(), filename=str(path)).body)
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                nodes.extend(ast.iter_child_nodes(node))
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


def test_src_has_no_assert_statements():
    # Invariants must raise real exceptions: asserts vanish under python -O.
    # The library prints nothing either; results and health figures go on
    # the returned objects.
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        )
    ]
    assert found == []


def test_spectral_weight_sums_use_no_blas_dot():
    # A BLAS dot over the ~4e4 entries of H at L = 7 starts OpenBLAS's thread
    # pool, and the LAPACK eigensolve that follows it ran ~1.5x slower; so
    # ||H||_F^2 and sum(lambda^2) are numpy reductions.
    path = ROOT / "src" / "ladderxx" / "core.py"
    bodies = {
        node.name: node
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef)
    }
    found = []
    for name in ("diagonalize", "diagonalize_sectors", "_check_spectral_weight"):
        for node in ast.walk(bodies[name]):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dot", "vdot", "inner")
            ):
                found.append(f"{name}:{node.lineno} .{node.func.attr}()")
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.MatMult)
                and ast.dump(node.left) == ast.dump(node.right)
            ):
                found.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


MODULES = sorted(path.stem for path in (ROOT / "src" / "ladderxx").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # The benchmark's tracer looks up every __all__ entry of the modules it traces.
    module = importlib.import_module(f"ladderxx.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def names_read(tree, outside=None):
    """The names that `tree` reads, bare or as an attribute, outside its top-level def `outside`."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for top in tree.body
        if not (isinstance(top, ast.FunctionDef) and top.name == outside)
        for node in ast.walk(top)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_exported_function_has_a_caller():
    # ROADMAP aim 2: a public function stays while src/ or a benchmark
    # workload uses it; a helper that only tests use belongs in tests/.
    trees = {name: ast.parse((ROOT / "src" / "ladderxx" / f"{name}.py").read_text()) for name in MODULES}
    workloads = names_read(ast.parse((ROOT / "perfbench" / "bench_workloads.py").read_text()))
    uncalled = [
        f"{name}.{export}"
        for name, tree in trees.items()
        for export in importlib.import_module(f"ladderxx.{name}").__all__
        if any(isinstance(node, ast.FunctionDef) and node.name == export for node in tree.body)
        and export not in workloads
        and not any(export in names_read(t, export if t is tree else None) for t in trees.values())
    ]
    assert uncalled == []


def test_ci_tier1_job_has_a_timeout():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    job = workflow.split("\n  tier1:\n", 1)[1]
    assert re.search(r"^    timeout-minutes: 30$", job, re.M)


def test_bench_records_hold_paired_medians_quartiles_seeds_and_env():
    # A speedup counts only with a committed record of alternating parent and
    # change runs of perfbench/run.py, per workload.
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert record["env"]["numpy"] and record["env"]["threads"]
        assert set(record["workloads"]) == {"levelstats", "wavefront", "decay"}
        for name, entry in record["workloads"].items():
            assert len(entry["seeds"]) >= 10, f"{path.name} {name}"
            for side in ("parent", "change"):
                for metric in ("wall_s", "setup_s", "peak_rss_mib"):
                    stats = entry[side][metric]
                    assert len(stats["runs"]) == len(entry["seeds"])
                    assert stats["q1"] <= stats["median"] <= stats["q3"]
