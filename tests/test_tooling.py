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
GOLDEN = Path(__file__).resolve().parent / "golden"


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


def _function_clashes(src: Path) -> list[str]:
    """Pairs of functions in one module with the same parameters and body,
    compared by AST with docstrings left out."""
    clashes = []
    for path in sorted(src.glob("*.py")):
        seen: dict[str, str] = {}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            key = ast.dump(node.args) + "".join(ast.dump(b) for b in body)
            if key in seen:
                clashes.append(f"{path.name}: {seen[key]} / {node.name}")
            seen.setdefault(key, node.name)
    return clashes


def test_no_two_functions_in_a_module_share_a_body():
    """A second name for a function is an alias, not a copy."""
    assert not _function_clashes(ROOT / "src" / "hornexplain")


def _cli_outputs(hash_seed: str, workdir: Path) -> dict[str, str]:
    """Outputs of a fixed set of CLI runs, by the name of their golden file.

    They cover the three measures on the running example, the sk->cq->sk
    round trip, the polynomial routes (el-tree 3 takes the realization
    fallback) and the cq search.
    """
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)

    def run(*args: str) -> str:
        proc = subprocess.run([sys.executable, "-m", "hornexplain.cli", *args],
                              capture_output=True, text=True, env=env,
                              check=True)
        return proc.stdout

    def explain(name: str, kb: Path, *args: str) -> None:
        out[name] = run("explain", str(kb), *args, "--format", "json")

    def write(name: str) -> Path:
        path = workdir / f"{name}-{hash_seed}"
        path.write_text(out[name], encoding="utf-8")
        return path

    out: dict[str, str] = {}
    sat = workdir / f"sat-{hash_seed}.kb"
    run("gen", "sat", "3", "--clauses", "1 -2, 2 3, -1 -3", "-o", str(sat))
    out["sat.kb"] = sat.read_text()
    # el-tree has many equal-valued choices: an enumeration that followed
    # set order would pick a different one under another hash seed
    tree = workdir / f"el-tree-{hash_seed}.kb"
    run("gen", "el-tree", "3", "-o", str(tree))
    chain = workdir / f"dllite-chain-{hash_seed}.kb"
    run("gen", "dllite-chain", "5", "-o", str(chain))
    demo = ROOT / "demo.kb"
    for m in ("size", "tree", "domain"):
        explain(f"demo-{m}.json", demo, "--measure", m)
    out["demo-tree-cq.json"] = run("convert", str(write("demo-tree.json")),
                                   "--kb", str(demo), "--to", "cq")
    out["demo-tree-cq-sk.json"] = run(
        "convert", str(write("demo-tree-cq.json")), "--kb", str(demo),
        "--to", "sk")
    explain("sat-size.json", sat, "--measure", "size")
    explain("sat-cq-tree.json", sat, "--deriver", "cq", "--measure", "tree")
    explain("el-tree-3-size.json", tree, "--measure", "size")
    explain("el-tree-3-tree.json", tree, "--measure", "tree")
    explain("dllite-chain-5-tree.json", chain, "--measure", "tree")
    explain("dllite-chain-5-size-poly.json", chain, "--measure", "size",
            "--algo", "poly")
    return out


def test_cli_output_does_not_depend_on_the_hash_seed(tmp_path):
    first = _cli_outputs("0", tmp_path)
    assert all(first.values())
    assert _cli_outputs("1", tmp_path) == first


def test_cli_output_matches_the_golden_files(tmp_path):
    """Proof JSON is the behaviour contract: a refactor keeps it byte-equal.

    The files were written from ``_cli_outputs("0", ...)``; a deliberate
    change rewrites them the same way and explains each changed file.
    """
    outputs = _cli_outputs("0", tmp_path)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(outputs)
    changed = [name for name, text in outputs.items()
               if (GOLDEN / name).read_text(encoding="utf-8") != text]
    assert not changed, changed
