"""Tooling contracts: the benchmark's tracer binds library functions by
name, and output depends neither on the process's hash seed nor on where
objects sit in memory."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from hornexplain import parser
from hornexplain.generators import (gen_dllite_chain, gen_dllite_tree_query,
                                    gen_el_abox, gen_el_tree,
                                    gen_hornalc_counter, gen_sat, gen_sat_cq)
from hornexplain.kb import ConceptAtom, Const, SkolemTerm, format_term

from conftest import EX1_TEXT

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
    """Pairs of functions anywhere in the package with the same parameters
    and body, and pairs of decorated classes (dataclasses) with the same
    body, compared by AST with docstrings left out."""
    clashes = []
    seen: dict[str, str] = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                head = ast.dump(node.args)
            elif isinstance(node, ast.ClassDef) and node.decorator_list:
                head = "class"
            else:
                continue
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            key = head + "".join(ast.dump(b) for b in body)
            name = f"{path.stem}.{node.name}"
            if key in seen:
                clashes.append(f"{seen[key]} / {name}")
            seen.setdefault(key, name)
    return clashes


def test_no_two_functions_in_a_module_share_a_body():
    """A second name for a function or a record type is an alias, not a
    copy, within a module and across the package's modules."""
    assert not _function_clashes(ROOT / "src" / "hornexplain")


def test_no_two_modules_define_one_public_name():
    """A top-level function or class is defined in one module of the
    package; a second one of the same name would leave two versions of it
    to keep in step.  Private helpers (a leading underscore) are exempt."""
    defined: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "hornexplain").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defined.setdefault(node.name, []).append(path.stem)
    assert not {name: modules for name, modules in defined.items()
                if len(modules) > 1}


def _budget_bypasses(src: Path) -> list[str]:
    """Outside the run's budget itself (``deriver_sk.Ticker``): clock reads
    other than the bench command's wall time, reads of the time a ticker
    has left, parameters that hand a phase a piece of the budget (a
    deadline, a tick callable, an atom cap) instead of the ticker, and
    tickers built with limits other than the run's (``RunConfig.ticker``)
    and the chase's own (``chase.entails``); by top-level definition, and
    by method for the tickers."""
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            if owner == "deriver_sk.Ticker":
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute)
                        and node.attr == "monotonic"
                        or isinstance(node, ast.ImportFrom)
                        and node.module == "time") \
                        and owner != "cli.cmd_bench":
                    found.append(f"{owner} reads the clock")
                if isinstance(node, ast.Attribute) \
                        and node.attr == "seconds_left":
                    found.append(f"{owner} reads the time left")
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    args = node.args
                    found += [f"{owner} takes {a.arg}" for a in
                              args.posonlyargs + args.args + args.kwonlyargs
                              if a.arg in ("deadline", "tick", "max_atoms")]
            parts = top.body if isinstance(top, ast.ClassDef) else [top]
            for part in parts:
                where = owner if part is top \
                    else f"{owner}.{getattr(part, 'name', part.lineno)}"
                if where in ("search.RunConfig.ticker", "chase.entails"):
                    continue
                found += [f"{where} builds a ticker with limits"
                          for node in ast.walk(part)
                          if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Name)
                          and node.func.id == "Ticker"
                          and (node.args or node.keywords)]
    return found


def test_one_budget_reaches_every_phase():
    """Every phase is held to the run's budget through one object, which
    alone reads the clock."""
    assert not _budget_bypasses(ROOT / "src" / "hornexplain")


def _caches_left_in_state(src: Path) -> list[str]:
    """Classes with a ``cached_property`` whose ``__getstate__`` is not
    ``state_without_caches``, so that copies and pickles would carry the
    cached values."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            cached = any(
                ast.unparse(d) in ("cached_property",
                                   "functools.cached_property")
                for f in node.body if isinstance(f, ast.FunctionDef)
                for d in f.decorator_list)
            getstate = [ast.unparse(a.value) for a in node.body
                        if isinstance(a, ast.Assign)
                        and any(isinstance(t, ast.Name)
                                and t.id == "__getstate__"
                                for t in a.targets)]
            if cached and getstate != ["state_without_caches"]:
                found.append(f"{path.stem}.{node.name}")
    return found


def test_cached_values_stay_out_of_copies_and_pickles():
    """Every class that caches a value per instance leaves it out of its
    state with the one helper, ``kb.state_without_caches``."""
    assert not _caches_left_in_state(ROOT / "src" / "hornexplain")


# the imports inside a function that break an import cycle: the module
# imported, by the function that imports it
_CYCLE_BREAKERS = {"kb.BooleanCQ.index": "matching",
                   "proofs.validate_proof": "deriver_cq",
                   "proofs.proof_from_json": "parser"}


def _imports_in_functions(src: Path) -> list[str]:
    """Each import made inside a function (by qualified name) other than a
    cycle breaker, as "<function> imports <module>"."""
    found = []

    def visit(node, prefix: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
                modules = ([child.module or ""]
                           if isinstance(child, ast.ImportFrom)
                           else [a.name for a in child.names])
                found.extend(f"{prefix} imports {m}" for m in modules
                             if _CYCLE_BREAKERS.get(prefix) != m)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                visit(child, f"{prefix}.{child.name}",
                      in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, prefix, in_function)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, False)
    return found


def test_functions_import_only_to_break_a_cycle():
    """A module's imports stand at its top, where a reader finds them; an
    import inside a function is kept only where a top-level one would close
    an import cycle."""
    assert not _imports_in_functions(ROOT / "src" / "hornexplain")


# Runs the CLI after interning a few thousand unrelated terms and atoms, so
# that every value the run builds sits at another address
_SHIFTED_CLI = """\
import runpy
from hornexplain.kb import ConceptAtom, Const, RoleAtom, SkolemTerm
ballast = []
for i in range(3000):
    t = SkolemTerm(f"ballast_{i % 7}", Const(f"ballast_{i}"))
    ballast += [t, ConceptAtom("Ballast", t), RoleAtom("ballast", t, t)]
runpy.run_module("hornexplain.cli", run_name="__main__", alter_sys=True)
"""


# The clauses of the SAT reduction's golden files
_SAT_CLAUSES = [[1, -2], [2, 3], [-1, -3]]


# An EL knowledge base whose query has two equally cheap matches in the
# fold, z=b, x=a and z=a, x=b: the route takes the least assignment with the
# variables in name order, so x=a, although z comes first in the query
_EL_TIES = """\
rule: A(x) -> exists y. r(x,y), B(y)
rule: A(x), E(x) -> F(x)
rule: s(x,y), F(y) -> G(x)
fact: A(a)
fact: A(b)
fact: E(a)
fact: E(b)
fact: s(c,a)
fact: s(c,b)
fact: t(a,b)
fact: t(b,a)
query: exists u, x, y, z. G(u), s(u,z), t(z,x), r(x,y), B(y)
"""


def _cli_outputs(hash_seed: str, workdir: Path,
                 shift_addresses: bool = False) -> dict[str, str]:
    """Outputs of a fixed set of CLI runs, by the name of their golden file.

    They cover the three measures on the running example, the sk->cq->sk
    round trip, the polynomial routes (el-tree 3 unfolds vertices with
    several real images; ``_EL_TIES`` pins the order of equally cheap
    matches, on the EL route and in the exact search), the cq search, and
    decision mode on the SAT reduction.
    With ``shift_addresses`` each run uses the system allocator and interns
    unrelated values first.
    """
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    command = [sys.executable, "-m", "hornexplain.cli"]
    if shift_addresses:
        env["PYTHONMALLOC"] = "malloc"
        command = [sys.executable, "-c", _SHIFTED_CLI]

    def run(*args: str) -> str:
        proc = subprocess.run([*command, *args], capture_output=True,
                              text=True, env=env, check=True)
        return proc.stdout

    def explain(name: str, kb: Path, *args: str) -> None:
        out[name] = run("explain", str(kb), *args, "--format", "json")

    def write(name: str) -> Path:
        path = workdir / f"{name}-{hash_seed}"
        path.write_text(out[name], encoding="utf-8")
        return path

    out: dict[str, str] = {}
    sat = workdir / f"sat-{hash_seed}.kb"
    run("gen", "sat", "3", "--clauses",
        ", ".join(" ".join(map(str, c)) for c in _SAT_CLAUSES), "-o", str(sat))
    out["sat.kb"] = sat.read_text()
    # el-tree has many equal-valued choices: an enumeration that followed
    # set order would pick a different one under another hash seed
    tree = workdir / f"el-tree-{hash_seed}.kb"
    run("gen", "el-tree", "3", "-o", str(tree))
    chain = workdir / f"dllite-chain-{hash_seed}.kb"
    run("gen", "dllite-chain", "5", "-o", str(chain))
    tree_query = workdir / f"dllite-tree-query-{hash_seed}.kb"
    run("gen", "dllite-tree-query", "4", "--seed", "10", "-o",
        str(tree_query))
    el_ties = workdir / f"el-ties-{hash_seed}.kb"
    el_ties.write_text(_EL_TIES, encoding="utf-8")
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
    # decision mode at the reductions' bounds and 3 above them: a loose
    # bound gets the first proof within it that the search finds, here one
    # that reads x2 both ways, which the stated bounds leave no room for
    for name, bound, args in (
            ("sat-size", gen_sat(_SAT_CLAUSES).bounds["size"],
             ("--measure", "size")),
            ("sat-cq-tree", gen_sat_cq(_SAT_CLAUSES).bounds["cq_tree"],
             ("--deriver", "cq", "--measure", "tree"))):
        for b in (bound, bound + 3):
            explain(f"{name}-bound-{b}.json", sat, *args, "--bound", str(b))
    explain("el-tree-3-size.json", tree, "--measure", "size")
    explain("el-tree-3-tree.json", tree, "--measure", "tree")
    explain("dllite-chain-5-tree.json", chain, "--measure", "tree")
    explain("dllite-chain-5-size-poly.json", chain, "--measure", "size",
            "--algo", "poly")
    explain("dllite-tree-query-4-10-tree.json", tree_query,
            "--measure", "tree")
    explain("el-ties-tree.json", el_ties, "--measure", "tree")
    explain("el-ties-tree-exact.json", el_ties, "--measure", "tree",
            "--algo", "exact")
    return out


def test_cli_output_does_not_depend_on_the_hash_seed(tmp_path):
    first = _cli_outputs("0", tmp_path)
    assert all(first.values())
    assert _cli_outputs("1", tmp_path) == first


def test_cli_output_does_not_depend_on_object_addresses(tmp_path):
    """Terms and atoms are interned and hash by identity, so the iteration
    order of a set of them follows their addresses."""
    outputs = _cli_outputs("0", tmp_path, shift_addresses=True)
    assert outputs == {p.name: p.read_text(encoding="utf-8")
                       for p in GOLDEN.iterdir()}


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


def test_the_exact_search_breaks_ties_as_the_el_route_does(tmp_path):
    """Both take the least of ``_EL_TIES``' two equally cheap matches, so
    their text output differs only in the algorithm's name."""
    kb = tmp_path / "el-ties.kb"
    kb.write_text(_EL_TIES, encoding="utf-8")

    def text(algo: str) -> str:
        return subprocess.run(
            [sys.executable, "-m", "hornexplain.cli", "explain", str(kb),
             "--measure", "tree", "--algo", algo], capture_output=True,
            text=True, check=True).stdout

    poly, exact = text("poly"), text("exact")
    assert "(poly-el-tree)" in poly and "r(a,f_0(a))" in poly
    assert exact == poly.replace("(poly-el-tree)", "(exact)")


def test_the_el_tree_10_proof_is_pinned(tmp_path):
    """No golden file nests Skolem terms this deep (9 levels, in 4,140
    vertices): the proof JSON of ``gen el-tree 10`` under ``explain --algo
    poly --measure tree`` is pinned by its sha256 instead of a 1.4 MB
    file."""
    kb = tmp_path / "el-tree-10.kb"
    command = [sys.executable, "-m", "hornexplain.cli"]
    subprocess.run([*command, "gen", "el-tree", "10", "-o", str(kb)],
                   check=True)
    proc = subprocess.run([*command, "explain", str(kb), "--algo", "poly",
                           "--measure", "tree", "--format", "json"],
                          capture_output=True, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "0b34f302ac66fc17e29848d25992c11ee1ceb2fa913809e214c88a8941515d83")


def test_the_scanner_reads_what_the_tool_writes():
    """The regex scanner in front of the grammar, not the grammar, reads
    every statement line the serializer writes for each generator and the
    running example, every atom text of the golden proofs, and a term
    nested 5,000 deep: a scanner edit that sends these to the slow path
    fails here."""
    instances = [gen_el_tree(4), gen_el_abox(6), gen_dllite_chain(5),
                 gen_dllite_tree_query(4, 10), gen_hornalc_counter(2),
                 gen_sat(_SAT_CLAUSES), gen_sat_cq(_SAT_CLAUSES)]
    docs = [(i.kb, [i.query]) for i in instances]
    ex1 = parser.parse_document(EX1_TEXT)
    docs.append((ex1.kb, ex1.queries))
    lines = [line for kb, queries in docs
             for line in parser.serialize_document(kb, queries).splitlines()]
    assert len(lines) > 150
    assert [line for line in lines if not parser._scan_statement(line)] \
        == []
    texts = []
    for path in sorted(GOLDEN.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for label in doc["vertices"] + [doc.get("goal", {})]:
            texts += [label["atom"]] if "atom" in label else []
            texts += [t for key in ("atoms", "body", "head")
                      for t in label.get(key, [])]
    assert len(texts) > 1000
    assert [t for t in texts if parser._scan_atom(t) is None] == []
    deep = Const("a")
    for i in range(5000):
        deep = SkolemTerm(f"f_{i % 2}", deep)
    assert parser._scan_atom(f"A({format_term(deep)})") \
        is ConceptAtom("A", deep)


def test_every_golden_sk_proof_round_trips_through_the_cq_calculus():
    """sk->cq->sk writes each golden sk proof back byte for byte: the cq
    sink is the goal as written, and the grounding re-derives the atoms
    the proof derives."""
    from hornexplain.deriver_cq import transform_cq_to_sk, transform_sk_to_cq
    from hornexplain.proofs import proof_from_json, proof_to_json

    kbs = {"demo": (ROOT / "demo.kb").read_text(encoding="utf-8"),
           "sat": (GOLDEN / "sat.kb").read_text(encoding="utf-8"),
           "el-ties": _EL_TIES,
           "el-tree-3": gen_el_tree(3).kb,
           "dllite-chain-5": gen_dllite_chain(5).kb,
           "dllite-tree-query-4-10": gen_dllite_tree_query(4, 10).kb}
    checked = []
    for path in sorted(GOLDEN.glob("*.json")):
        proof, goal = proof_from_json(path.read_text(encoding="utf-8"))
        if proof.deriver() != "sk":
            continue
        kb = next(kb for name, kb in kbs.items()
                  if path.name.startswith(name + "-"))
        if isinstance(kb, str):
            kb = parser.parse_document(kb).kb
        back = transform_cq_to_sk(transform_sk_to_cq(proof, kb), kb)
        assert proof_to_json(back, goal) == proof_to_json(proof, goal), \
            path.name
        checked.append(path.name)
    assert len(checked) == 14, checked
