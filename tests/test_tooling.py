"""Tooling contracts: the benchmark's tracer binds library functions by
name, and output does not depend on the process's hash seed."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_traced_layer_exists():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                          for t in node.targets))
    missing = [f"{module}.{name}" for module, names in layers.items()
               for name in names
               if not callable(getattr(
                   importlib.import_module(f"hornexplain.{module}"), name,
                   None))]
    assert layers and not missing, missing


def _cli_outputs(hash_seed: str, workdir: Path) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)

    def run(*args: str) -> str:
        proc = subprocess.run([sys.executable, "-m", "hornexplain.cli", *args],
                              capture_output=True, text=True, env=env,
                              check=True)
        return proc.stdout

    sat = workdir / f"sat-{hash_seed}.kb"
    run("gen", "sat", "3", "--clauses", "1 -2, 2 3, -1 -3", "-o", str(sat))
    # el-tree has many equal-valued choices: an enumeration that followed
    # set order would pick a different one under another hash seed
    tree = workdir / f"el-tree-{hash_seed}.kb"
    run("gen", "el-tree", "3", "-o", str(tree))
    demo = str(ROOT / "demo.kb")
    return [run("explain", demo, "--measure", m, "--format", "json")
            for m in ("size", "tree", "domain")] + [
        sat.read_text(),
        run("explain", str(sat), "--measure", "size", "--format", "json"),
        run("explain", str(tree), "--measure", "size", "--format", "json")]


def test_cli_output_does_not_depend_on_the_hash_seed(tmp_path):
    first = _cli_outputs("0", tmp_path)
    assert all(first)
    assert _cli_outputs("1", tmp_path) == first
