"""Command-line behavior: exit codes, determinism, formats."""

import codecs
import json
import subprocess
import sys

import pytest

from conftest import EX1_TEXT


def run_cli(*args, expect=None):
    proc = subprocess.run([sys.executable, "-m", "hornexplain.cli", *args],
                          capture_output=True, text=True)
    if expect is not None:
        assert proc.returncode == expect, (proc.returncode, proc.stderr)
    return proc


@pytest.fixture()
def ex1_file(tmp_path):
    path = tmp_path / "ex1.kb"
    path.write_text(EX1_TEXT)
    return str(path)


def test_answer_yes_with_assignment(ex1_file):
    proc = run_cli("answer", ex1_file, expect=0)
    assert proc.stdout.strip() == "yes, depth 2, xp -> a, y -> f_0(a)"


def test_answer_no_and_unknown(tmp_path):
    no_file = tmp_path / "no.kb"
    no_file.write_text("fact: A(a)\nquery: B(a)\n")
    assert run_cli("answer", str(no_file)).returncode == 1

    # the chain never closes, and its fold has a loop no real element has
    unknown_file = tmp_path / "unknown.kb"
    unknown_file.write_text("rule: A(x) -> exists y. r(x,y), A(y)\n"
                            "fact: A(a)\nquery: exists x. r(x,x)\n")
    proc = run_cli("answer", str(unknown_file), "--depth-ceiling", "2")
    assert proc.returncode == 2
    assert proc.stdout.strip() == "unknown"


def test_answer_and_explain_read_the_query_modulo_merged_constants(tmp_path):
    path = tmp_path / "merged.kb"
    path.write_text("rule: Q(x) -> x = d\nfact: Q(e)\nquery: Q(e)\n")
    proc = run_cli("answer", str(path), expect=0)
    assert proc.stdout.startswith("yes, depth 0")
    proc = run_cli("explain", str(path), "--measure", "size", expect=0)
    assert proc.stdout.splitlines()[0] == "size = 1 (exact)"


def test_answer_without_variables_ends_at_the_depth(tmp_path):
    path = tmp_path / "ground.kb"
    path.write_text("rule: A(x) -> B(x)\nfact: A(a)\nquery: B(a)\n")
    proc = run_cli("answer", str(path), expect=0)
    assert proc.stdout == "yes, depth 0\n"


def test_convert_el_tree_size_proof(tmp_path):
    """A proof whose translation used to stop at a missing derivation."""
    kb = tmp_path / "el4.kb"
    run_cli("gen", "el-tree", "4", "-o", str(kb), expect=0)
    proof = tmp_path / "p.json"
    run_cli("explain", str(kb), "--measure", "size", "--format", "json",
            "-o", str(proof), expect=0)
    as_cq = tmp_path / "p_cq.json"
    run_cli("convert", str(proof), "--kb", str(kb), "--to", "cq",
            "-o", str(as_cq), expect=0)
    run_cli("convert", str(as_cq), "--kb", str(kb), "--to", "sk", expect=0)


def test_answer_json_format(ex1_file):
    proc = run_cli("answer", ex1_file, "--format", "json", expect=0)
    doc = json.loads(proc.stdout)
    assert doc == {"schema_version": 1, "verdict": "yes", "depth": 2,
                   "assignment": {"xp": "a", "y": "f_0(a)"}}


def test_gen_json_format():
    proc = run_cli("gen", "el-abox", "1", "--format", "json", expect=0)
    doc = json.loads(proc.stdout)
    assert doc["family"] == "el-abox" and "fact: A(a_0)" in doc["kb"]


def test_explain_domain_measure(ex1_file):
    proc = run_cli("explain", ex1_file, "--measure", "domain", expect=0)
    assert proc.stdout.startswith("domain = 3")


def test_explain_bound_below_optimum_exits_one(ex1_file):
    proc = run_cli("explain", ex1_file, "--measure", "domain",
                   "--bound", "2")
    assert proc.returncode == 1
    assert proc.stdout.strip() == "none"


# the poly size route minimizes tree size: it finds 16, sharing t(a, f_3(a))
# gives 15
_SHARED_PREMISE_KB = "".join(f"rule: {line}\n" for line in (
    "A(x) -> A1(x)", "A1(x) -> A2(x)", "A2(x) -> A3(x)",
    "A3(x) -> exists y. t(x,y)", "t(x,y) -> r(x,y)", "t(x,y) -> s(x,y)",
    "r0(x,y) -> r1(x,y)", "r1(x,y) -> r2(x,y)", "r2(x,y) -> r(x,y)",
    "s0(x,y) -> s1(x,y)", "s1(x,y) -> s2(x,y)", "s2(x,y) -> s(x,y)")) + (
    "fact: A(a)\nfact: r0(a,b)\nfact: s0(a,b)\n"
    "query: exists y. r(a,y), s(a,y)\n")


def test_poly_size_above_the_bound_is_not_none(tmp_path):
    path = tmp_path / "shared.kb"
    path.write_text(_SHARED_PREMISE_KB)
    args = ("explain", str(path), "--algo", "poly", "--measure", "size")
    proc = run_cli(*args, "--bound", "15", expect=0)
    assert proc.stdout.startswith("size = 15 (exact)")
    assert run_cli(*args, "--bound", "14", expect=1).stdout.strip() == "none"


def test_poly_size_without_a_bound_is_uncertified(tmp_path):
    """Unbounded, the size route only bounds the optimum from above: it
    reports 16 where the exact search certifies 15."""
    path = tmp_path / "shared.kb"
    path.write_text(_SHARED_PREMISE_KB)
    args = ("explain", str(path), "--algo", "poly", "--measure", "size")
    proc = run_cli(*args, expect=0)
    assert proc.stdout.startswith("size = 16 (poly-dllite-size, uncertified)")
    doc = json.loads(run_cli(*args, "--format", "json", expect=0).stdout)
    assert doc["value"] == 16 and doc["complete"] is False
    proc = run_cli("explain", str(path), "--algo", "exact", "--measure",
                   "size", expect=0)
    assert proc.stdout.startswith("size = 15 (exact)")


@pytest.mark.parametrize("algo", ["auto", "exact"])
def test_bound_one_is_a_usage_error_on_every_route(tmp_path, algo):
    path = tmp_path / "chain.kb"
    run_cli("gen", "dllite-chain", "5", "-o", str(path), expect=0)
    proc = run_cli("explain", str(path), "--measure", "tree", "--algo", algo,
                   "--bound", "1", expect=64)
    assert "greater than 1" in proc.stderr


def test_a_negative_depth_ceiling_is_a_usage_error(tmp_path):
    """So is a negative node or time budget; a zero one runs out."""
    path = tmp_path / "one.kb"
    path.write_text("rule: A(x) -> B(x)\nfact: A(a)\nquery: B(a)\n")
    nominal = tmp_path / "nominal.kb"
    nominal.write_text("rule: A(x) -> B(x)\nrule: B(x) -> x = a\n"
                       "fact: A(a)\nquery: B(a)\n")
    for args in (("explain", str(path), "--depth-ceiling", "-1"),
                 ("answer", str(path), "--depth-ceiling", "-1"),
                 ("answer", str(nominal), "--depth-ceiling", "-1"),
                 ("chase", str(path), "--depth", "-1")):
        proc = run_cli(*args, expect=64)
        assert proc.stderr == "error: depth bound must be non-negative\n"
    bench = ("bench", "--families", "el-abox", "--params", "1")
    for flag in ("--max-nodes", "--max-seconds"):
        for args in (("explain", str(path)), bench):
            proc = run_cli(*args, flag, "-1", expect=64)
            assert proc.stderr == "error: node and time budgets must be " \
                "non-negative\n"
        assert run_cli("explain", str(path), flag, "0",
                       expect=2).stdout == "exhausted\n"


def test_explain_poly_fallback_warns(ex1_file):
    proc = run_cli("explain", ex1_file, "--measure", "tree",
                   "--algo", "poly", expect=0)
    assert "falling back" in proc.stderr


def test_explain_json_is_byte_identical(ex1_file):
    a = run_cli("explain", ex1_file, "--measure", "size", "--format", "json",
                expect=0)
    b = run_cli("explain", ex1_file, "--measure", "size", "--format", "json",
                expect=0)
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["schema_version"] == 1
    assert doc["value"] == 12


def test_explain_dot_format(ex1_file):
    proc = run_cli("explain", ex1_file, "--measure", "size", "--format",
                   "dot", expect=0)
    assert proc.stdout.startswith("digraph proof {")
    assert "(MP)" in proc.stdout and "(G)" in proc.stdout


def test_chase_and_dot(ex1_file):
    proc = run_cli("chase", ex1_file, "--depth", "2", expect=0)
    assert "E(f_0(a))" in proc.stdout
    assert "# saturated: false" in proc.stdout
    dot = run_cli("chase", ex1_file, "--depth", "1", "--format", "dot",
                  expect=0)
    assert dot.stdout.startswith("digraph model {")


def test_gen_emits_kb_and_sidecar(tmp_path):
    out = tmp_path / "inst.kb"
    run_cli("gen", "el-abox", "2", "-o", str(out), expect=0)
    text = out.read_text()
    assert "query:" in text
    sidecar = json.loads((tmp_path / "inst.kb.predicted.json").read_text())
    assert sidecar["family"] == "el-abox"
    assert sidecar["bounds"]["size"] == 14


def test_gen_sat_needs_clauses():
    proc = run_cli("gen", "sat")
    assert proc.returncode == 65


def test_gen_unknown_family_fails():
    assert run_cli("gen", "made-up-family").returncode == 65


def test_bench_unknown_family_fails():
    proc = run_cli("bench", "--families", "dllite-chain,nope")
    assert proc.returncode == 65
    assert "unknown family 'nope'; choose from" in proc.stderr
    assert "internal error" not in proc.stderr


def test_usage_error_exit_code():
    proc = run_cli("explain")  # missing the kb argument
    assert proc.returncode == 64


def test_internal_errors_exit_70(ex1_file, tmp_path, monkeypatch, capsys):
    from hornexplain import cli

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "explain", crash)
    assert cli.main(["explain", ex1_file]) == 70
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err

    monkeypatch.undo()
    monkeypatch.setattr(cli, "validate_proof",
                        lambda *args: (False, ["bad edge"]))
    assert cli.main(["explain", ex1_file]) == 70
    assert "failed validation: bad edge" in capsys.readouterr().err

    # a conversion of an accepted proof that fails validation is ours too
    monkeypatch.undo()
    proof = tmp_path / "p.json"
    assert cli.main(["explain", ex1_file, "--measure", "size", "--format",
                     "json", "-o", str(proof)]) == 0
    monkeypatch.setattr(cli, "validate_proof",
                        lambda p, kb, goal, deriver: (deriver == "sk", [
                            "bad edge"]))
    assert cli.main(["convert", str(proof), "--kb", ex1_file,
                     "--to", "cq"]) == 70
    assert "invalid proof: bad edge" in capsys.readouterr().err


def test_the_query_comes_from_the_option_or_the_file(ex1_file, tmp_path,
                                                     capsys):
    """``--query`` overrides the file's queries; a file without one, or an
    index past its queries, is a data error that says so."""
    from hornexplain import cli

    assert cli.main(["answer", ex1_file, "--query", "B(a)"]) == 1
    assert capsys.readouterr().out == "no\n"
    bare = tmp_path / "bare.kb"
    bare.write_text("fact: A(a)\n")
    assert cli.main(["answer", str(bare), "--query", "A(a)"]) == 0
    assert capsys.readouterr().out == "yes, depth 0\n"
    assert cli.main(["answer", str(bare)]) == 65
    assert capsys.readouterr().err == \
        "error: the file declares no query; pass one with --query\n"
    for index in ("1", "-1"):
        assert cli.main(["explain", ex1_file, "--query-index", index]) == 65
        assert capsys.readouterr().err == \
            f"error: query index {index} out of range\n"


@pytest.mark.parametrize("command, query, message", [
    ("answer", "bot(a)", "'bot' cannot occur (KBs are assumed consistent)"),
    ("explain", "B(top)", "'top' is reserved"),
    ("explain", "exists x. r(x,A)",
     "'A' is used both as a predicate and an individual name"),
])
def test_the_query_option_is_read_as_a_query_line(tmp_path, capsys, command,
                                                  query, message):
    """``--query`` is checked as a 'query:' line of the file is: a reserved
    name, then a name used in two roles, is a data error with the same
    message, where the option was once answered 'no' or 'none'."""
    from hornexplain import cli

    kb = "rule: A(x) -> B(x)\nfact: A(a)\n"
    path = tmp_path / "q.kb"
    path.write_text(kb + f"query: {query}\n")
    assert cli.main([command, str(path)]) == 65
    as_line = capsys.readouterr()
    assert as_line.out == "" and as_line.err.endswith(f": {message}\n")
    path.write_text(kb)
    assert cli.main([command, str(path), "--query", query]) == 65
    as_option = capsys.readouterr()
    assert as_option.out == "" and as_option.err.endswith(f": {message}\n")


def test_explain_writes_the_status_as_json_when_nothing_is_found(tmp_path,
                                                                 capsys):
    from hornexplain import cli

    path = tmp_path / "no.kb"
    path.write_text("fact: A(a)\nquery: B(a)\n")
    assert cli.main(["explain", str(path), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"schema_version": 1,
                                                   "status": "none"}


def test_convert_and_export_round_trip(ex1_file, tmp_path):
    proof = tmp_path / "p.json"
    run_cli("explain", ex1_file, "--measure", "size", "--format", "json",
            "-o", str(proof), expect=0)
    converted = tmp_path / "p_cq.json"
    run_cli("convert", str(proof), "--kb", ex1_file, "--to", "cq",
            "-o", str(converted), expect=0)
    doc = json.loads(converted.read_text())
    assert doc["deriver"] == "cq"
    assert any(e["schema"] == "MPe" for e in doc["edges"])
    dot = run_cli("export", str(converted), expect=0)
    assert "(MPe)" in dot.stdout
    back = run_cli("convert", str(converted), "--kb", ex1_file, "--to", "sk")
    assert back.returncode == 0


@pytest.mark.parametrize("query", ["A(f_0(a))", "exists z. r(f_0(a), z)"])
def test_convert_rejects_a_goal_that_names_a_skolem_term(query, tmp_path,
                                                         capsys):
    """A query label cannot hold a Skolem term, so such a goal has no cq
    proof: bad input (65), not a translation that fails validation (70)."""
    from hornexplain import cli
    kb = tmp_path / "chain.kb"
    kb.write_text("rule: A(x) -> exists y. r(x,y), A(y)\nfact: A(a)\n"
                  f"query: {query}\n")
    proof = tmp_path / "p.json"
    assert cli.main(["explain", str(kb), "--format", "json",
                     "-o", str(proof)]) == 0
    assert cli.main(["convert", str(proof), "--kb", str(kb),
                     "--to", "cq"]) == 65
    assert "names a Skolem term" in capsys.readouterr().err


def test_export_empty_file_fails(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert run_cli("export", str(empty)).returncode == 65


def test_explain_marks_an_uncertified_optimum(tmp_path):
    """Counter n=2 under tree size: the fold bounds every proof by 589
    only, far below the 4153 found within the ceiling."""
    path = tmp_path / "counter.kb"
    run_cli("gen", "hornalc-counter", "2", "-o", str(path), expect=0)
    proc = run_cli("explain", str(path), "--measure", "tree",
                   "--depth-ceiling", "3", expect=0)
    assert proc.stdout.splitlines()[0] == "tree = 4153 (exact, uncertified)"


@pytest.mark.parametrize("measure,value", [("size", 22), ("tree", 60)])
def test_explain_certifies_the_counter_from_its_fold(tmp_path, measure,
                                                     value):
    """Counter n=1: the fold's optimum equals the one found at depth 1."""
    path = tmp_path / "counter.kb"
    run_cli("gen", "hornalc-counter", "1", "-o", str(path), expect=0)
    for ceiling in ((), ("--depth-ceiling", "3")):
        proc = run_cli("explain", str(path), "--measure", measure,
                       "--algo", "exact", *ceiling, expect=0)
        assert proc.stdout.splitlines()[0] == f"{measure} = {value} (exact)"


@pytest.mark.parametrize("measure", ["size", "tree", "domain"])
def test_a_query_without_a_match_in_the_fold_is_refuted(tmp_path, measure):
    """No saturation of the chain is complete, but its fold derives no B."""
    path = tmp_path / "chain.kb"
    path.write_text("rule: A(x) -> exists y. r(x,y), A(y)\n"
                    "rule: r(x,y), B(y) -> B(x)\n"
                    "fact: A(a)\nquery: exists x. B(x)\n")
    proc = run_cli("explain", str(path), "--measure", measure, expect=1)
    assert proc.stdout.startswith("none")
    assert run_cli("answer", str(path), expect=1).stdout.strip() == "no"


_DEEP_CHAIN = "rule: A(x) -> exists y. r(x,y), A(y)\nfact: A(a)\n"


def _skolem_chain(depth):
    return "f_0(" * depth + "a" + ")" * depth


def test_the_fold_does_not_refute_a_query_naming_a_skolem_term(tmp_path):
    """f_0(...(a)) 5 deep is derived at depth 5; the fold reads it as its
    placeholder c_f_0, so below that depth the run is left undecided."""
    path = tmp_path / "deep.kb"
    path.write_text(_DEEP_CHAIN + f"query: A({_skolem_chain(5)})\n")
    proc = run_cli("answer", str(path), "--depth-ceiling", "3", expect=2)
    assert proc.stdout == "unknown\n"
    proc = run_cli("explain", str(path), "--measure", "size",
                   "--depth-ceiling", "3", expect=2)
    assert proc.stdout == "exhausted\n"
    # under a bound, the fold's optimum is asked for as a certificate
    for measure in ("size", "tree", "domain"):
        proc = run_cli("explain", str(path), "--measure", measure,
                       "--algo", "exact", "--bound", "9", "--depth-ceiling",
                       "3", expect=2)
        assert proc.stdout == "exhausted\n"
    proc = run_cli("answer", str(path), "--depth-ceiling", "8", expect=0)
    assert proc.stdout == "yes, depth 5\n"
    proc = run_cli("explain", str(path), "--measure", "size",
                   "--depth-ceiling", "8", expect=0)
    assert proc.stdout.splitlines()[0] == "size = 7 (exact)"
    # a Skolem function no rule has names no element: still refuted
    path.write_text(_DEEP_CHAIN + "query: A(f_1(a))\n")
    assert run_cli("answer", str(path), "--depth-ceiling", "3",
                   expect=1).stdout == "no\n"
    assert run_cli("explain", str(path), "--depth-ceiling", "3",
                   expect=1).stdout == "none\n"


def test_a_query_naming_a_skolem_term_is_answered_without_a_ceiling(
        tmp_path, capsys):
    """The default depth ceiling reaches the query's own term depth, and
    the polynomial routes, which would read f_0(...) as a placeholder,
    leave the query to the exact search instead of calling it unentailed."""
    from hornexplain import cli

    path = tmp_path / "deep.kb"
    path.write_text(_DEEP_CHAIN + f"query: A({_skolem_chain(5)})\n")
    assert cli.main(["answer", str(path)]) == 0
    assert capsys.readouterr().out == "yes, depth 5\n"
    for measure, value in (("size", 7), ("tree", 11), ("domain", 6)):
        assert cli.main(["explain", str(path), "--measure", measure]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[0] == f"{measure} = {value} (exact)"
        assert out.err == ("" if measure != "tree" else
                           "warning: query names a Skolem term, which the "
                           "compressed structure folds away\n")
    assert cli.main(["explain", str(path), "--measure", "tree", "--algo",
                     "poly"]) == 0
    out = capsys.readouterr()
    assert out.out.splitlines()[0] == "tree = 11 (exact)"
    assert out.err == ("warning: polynomial algorithm failed: query names "
                       "a Skolem term, which the compressed structure folds "
                       "away; falling back to exact search\n")


def test_a_query_naming_a_deep_skolem_term_does_not_crash(tmp_path):
    path = tmp_path / "deep.kb"
    path.write_text(_DEEP_CHAIN + f"query: A({_skolem_chain(1100)})\n")
    run_cli("answer", str(path), "--depth-ceiling", "3", expect=2)
    run_cli("explain", str(path), "--depth-ceiling", "3", expect=2)


def test_answer_deepens_from_the_query_s_own_term_depth(
        tmp_path, capsys, monkeypatch):
    """Without nominal rules nothing merges, so no fragment shallower than
    the query's deepest term can match it: one chase, at that depth."""
    import importlib

    from hornexplain import cli

    chase = importlib.import_module("hornexplain.chase")
    depths = []
    real = chase.chase

    def counted(kb, depth, **kwargs):
        depths.append(depth)
        return real(kb, depth, **kwargs)

    monkeypatch.setattr(chase, "chase", counted)
    path = tmp_path / "deep.kb"
    path.write_text(_DEEP_CHAIN + f"query: A({_skolem_chain(1100)})\n")
    assert cli.main(["answer", str(path)]) == 0
    assert capsys.readouterr().out == "yes, depth 1100\n"
    assert depths == [1100]
    # a nominal rule can merge a deep term into a constant: from depth 0
    depths.clear()
    path.write_text(_DEEP_CHAIN + "rule: A(x) -> x = a\n"
                    f"query: A({_skolem_chain(3)})\n")
    assert cli.main(["answer", str(path)]) == 0
    assert capsys.readouterr().out == "yes, depth 1\n"
    assert depths == [0, 1]


def test_answer_on_a_deep_chain_keys_and_measures_each_atom_once(
        tmp_path, capsys, monkeypatch):
    """A machine-independent count on the 1,100-deep chain: each of its
    2,201 atoms computes its order key once, when it is interned, and each
    of its 1,100 Skolem terms its depth once, from its argument's.  The
    index, the sorts and the depth checks read what the values carry.  A
    fresh index for the match and a walk down every conclusion term once
    made 4,402 key and 3,305 depth computations here.  The chain grows
    from a constant of its own, so no value of it is alive before."""
    from collections import Counter

    from hornexplain import cli, kb

    keyed, measured = Counter(), Counter()

    def count(cls, record):
        real = cls._derive

        def counted(self):
            real(self)
            record(self)

        monkeypatch.setattr(cls, "_derive", counted)

    # an atom's key names it; holding the key does not keep the atom alive
    count(kb._Atom, lambda atom: keyed.update([atom.key]))
    count(kb.SkolemTerm, lambda t: measured.update(
        [t.depth] if kb.term_is_ground(t) else []))
    path = tmp_path / "deep.kb"
    path.write_text(_DEEP_CHAIN.replace("A(a)", "A(root_of_keys)")
                    + "query: A(" + _skolem_chain(1100).replace(
                        "(a)", "(root_of_keys)") + ")\n")
    assert cli.main(["answer", str(path)]) == 0
    assert capsys.readouterr().out == "yes, depth 1100\n"
    # a term's key is 2 entries per Skolem application and 2 for its base
    depth = {key: max(len(k) // 2 - 1 for k in key if type(k) is tuple)
             for key in keyed if key[-1][-2:] == (0, "root_of_keys")}
    assert sum(d <= 1100 for d in depth.values()) == 2201
    assert set(keyed.values()) == {1}
    assert all(measured[d] == 1 for d in range(1, 1101))


def test_a_path_that_cannot_be_opened_is_a_usage_error(tmp_path, ex1_file):
    missing = str(tmp_path / "missing.json")
    for args in (("explain", missing), ("convert", missing, "--kb", ex1_file,
                                        "--to", "cq"), ("export", missing)):
        proc = run_cli(*args, expect=64)
        assert proc.stderr == (f"error: cannot open {missing}: "
                               "No such file or directory\n")
    out = str(tmp_path / "no-such-dir" / "out.txt")
    proc = run_cli("explain", ex1_file, "-o", out, expect=64)
    assert out in proc.stderr


def test_explain_json_marks_an_uncertified_optimum(tmp_path, ex1_file):
    path = tmp_path / "counter.kb"
    run_cli("gen", "hornalc-counter", "2", "-o", str(path), expect=0)
    args = ("explain", str(path), "--measure", "tree", "--depth-ceiling", "3")
    doc = json.loads(run_cli(*args, "--format", "json", expect=0).stdout)
    assert doc["complete"] is False and doc["algorithm"] == "exact"
    assert "(exact, uncertified)" in run_cli(*args, expect=0).stdout
    # certified output carries no such key
    doc = json.loads(run_cli("explain", ex1_file, "--format", "json",
                             expect=0).stdout)
    assert "complete" not in doc


def test_normalize_subcommand(tmp_path):
    path = tmp_path / "wide.kb"
    path.write_text("rule: A(x) -> B(x), C(x)\nfact: A(a)\n")
    proc = run_cli("normalize", str(path), expect=0)
    assert "rule: A(x) -> B(x)" in proc.stdout
    assert "rule: A(x) -> C(x)" in proc.stdout


def test_normalize_reads_fact_and_query_lines_as_answer_does(tmp_path):
    """A line that answer would reject is an error with its line and
    column, not copied through; the lines it accepts are emitted as
    written."""
    path = tmp_path / "in.kb"
    for line, message in (
            ("fact: A(", "line 2, column 9: expected 'name', found end of "
             "line"),
            ("fact: top(a)", "line 2, column 1: 'top' is reserved"),
            ("query: exists x. bot(x)", "line 2, column 1: 'bot' cannot "
             "occur (KBs are assumed consistent)"),
            ("rule: top(x) -> B(x)", "line 2, column 1: 'top' is reserved")):
        path.write_text(f"rule: A(x) -> B(x)\n{line}\n")
        for command in ("normalize", "answer"):
            proc = run_cli(command, str(path), expect=65)
            assert proc.stderr == f"error: {message}\n", (command, line)
    path.write_text("rule: A(x) -> B(x), C(x)\nfact: A(a)  # kept\n"
                    "query: exists y.  C(y)\n")
    out = tmp_path / "out.kb"
    assert run_cli("normalize", str(path), expect=0).stdout.endswith(
        "fact: A(a)\nquery: exists y.  C(y)\n")
    run_cli("normalize", str(path), "-o", str(out), expect=0)
    assert run_cli("answer", str(out), expect=0).stdout == "yes, depth 0, " \
        "y -> a\n"


def test_bench_csv(tmp_path):
    proc = run_cli("bench", "--families", "dllite-chain", "--params", "1,2",
                   "--measure", "tree", expect=0)
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "family,parameter,measure,optimum,search_nodes,wall_ms"
    assert len(lines) == 3
    assert lines[1].startswith("dllite-chain,1,tree,17,")
    # the polynomial route's tree-size values and least step count nodes
    assert all(int(line.split(",")[4]) > 0 for line in lines[1:]), lines


@pytest.fixture(scope="module")
def ex1_proof_text(tmp_path_factory):
    from hornexplain import cli
    tmp = tmp_path_factory.mktemp("ex1-proof")
    (tmp / "ex1.kb").write_text(EX1_TEXT)
    proof = tmp / "p.json"
    assert cli.main(["explain", str(tmp / "ex1.kb"), "--measure", "size",
                     "--format", "json", "-o", str(proof)]) == 0
    return proof.read_text()


def _without_kind(doc):
    del doc["vertices"][0]["kind"]
    return doc


def _unknown_vertex(doc):
    doc["edges"][0]["premises"].append(5000)
    return doc


def _bad_atom(doc):
    doc["vertices"][0]["atom"] = "A(a"
    return doc


def _misclassified_rule(doc):
    vertex = next(v for v in doc["vertices"]
                  if v["kind"] == "skolem_rule" and v["fn"] is None)
    vertex.update(kind="rule", form="i", evars=[])
    return doc


def _cq_goal_as_atom(doc):
    doc["goal"] = {"kind": "atom", "atom": "D(a)"}
    return doc


def _unknown_schema(doc):
    doc["edges"][0]["schema"] = "MQ"
    return doc


@pytest.mark.parametrize("command", ["convert", "export"])
@pytest.mark.parametrize("spoil, problem", [
    pytest.param(_without_kind, "vertex 0: unknown label kind None",
                 id="no-kind"),
    pytest.param(_unknown_vertex, "names unknown vertex 5000",
                 id="unknown-vertex"),
    pytest.param(lambda doc: [doc], "holds a JSON object, not list",
                 id="array"),
    pytest.param(lambda doc: "{" + json.dumps(doc), "not valid JSON",
                 id="invalid-json"),
    pytest.param(lambda doc: {**doc, "schema_version": 2},
                 "unsupported proof schema version 2", id="version"),
    pytest.param(_cq_goal_as_atom, "goal must be a 'cq' label",
                 id="atom-goal"),
    pytest.param(_bad_atom, "vertex 0: atom 'A(a': line 0, column 4",
                 id="bad-atom"),
    pytest.param(_misclassified_rule, "rule form 'i' does not match",
                 id="rule-form"),
    pytest.param(_unknown_schema, "has unknown schema 'MQ'",
                 id="unknown-schema"),
])
def test_malformed_proof_files_are_bad_input(ex1_file, ex1_proof_text,
                                             tmp_path, capsys, command, spoil,
                                             problem):
    from hornexplain import cli
    spoiled = spoil(json.loads(ex1_proof_text))
    path = tmp_path / "spoiled.json"
    path.write_text(spoiled if isinstance(spoiled, str)
                    else json.dumps(spoiled))
    args = [command, str(path)] + (["--kb", ex1_file, "--to", "cq"]
                                   if command == "convert" else [])
    assert cli.main(args) == 65
    assert problem in capsys.readouterr().err


def test_convert_checks_for_a_goal_before_translating(ex1_file, ex1_proof_text,
                                                      tmp_path, monkeypatch,
                                                      capsys):
    from hornexplain import cli, deriver_cq
    doc = json.loads(ex1_proof_text)
    del doc["goal"]
    path = tmp_path / "no-goal.json"
    path.write_text(json.dumps(doc))

    def crash(*args):
        raise AssertionError("translated a proof without a goal")

    monkeypatch.setattr(deriver_cq, "transform_sk_to_cq", crash)
    assert cli.main(["convert", str(path), "--kb", ex1_file,
                     "--to", "cq"]) == 65
    assert "carries no goal" in capsys.readouterr().err


@pytest.fixture(scope="module")
def ex1_proof_texts(ex1_proof_text, tmp_path_factory):
    """The running example's size proof in each calculus, by deriver."""
    from hornexplain import cli
    tmp = tmp_path_factory.mktemp("ex1-proofs")
    (tmp / "ex1.kb").write_text(EX1_TEXT)
    (tmp / "sk.json").write_text(ex1_proof_text)
    assert cli.main(["convert", str(tmp / "sk.json"), "--kb",
                     str(tmp / "ex1.kb"), "--to", "cq", "-o",
                     str(tmp / "cq.json")]) == 0
    return {"sk": ex1_proof_text, "cq": (tmp / "cq.json").read_text()}


def _second_sink(doc):
    doc["vertices"].append({**doc["vertices"][0], "id": 5000})
    return doc


def _fact_about_b(doc):
    """The fact A(a), as the sk proof's leaf or the cq proof's first query,
    edited to A(b)."""
    for v in doc["vertices"]:
        for key in ("atom", "label"):
            if v.get(key) == "A(a)":
                v[key] = "A(b)"
        if v.get("atoms") == ["A(a)"]:
            v["atoms"] = ["A(b)"]
    return doc


@pytest.mark.parametrize("deriver, to", [("sk", "cq"), ("cq", "sk")])
@pytest.mark.parametrize("spoil, problem", [
    pytest.param(_second_sink, "expected exactly one sink, found 2",
                 id="two-sinks"),
    pytest.param(_fact_about_b, "leaf 0 (A(b)) is not a fact or rule",
                 id="edited-fact"),
])
def test_a_proof_that_does_not_hold_is_bad_input(ex1_file, ex1_proof_texts,
                                                 tmp_path, capsys, deriver,
                                                 to, spoil, problem):
    """convert checks its input before translating it, and export checks
    the proof's shape: both report a bad proof as bad input (65), never as
    a usage error (64) or an internal error (70)."""
    from hornexplain import cli
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(spoil(json.loads(ex1_proof_texts[deriver]))))
    assert cli.main(["convert", str(path), "--kb", ex1_file,
                     "--to", to]) == 65
    assert problem in capsys.readouterr().err
    shape_ok = spoil is _fact_about_b
    assert cli.main(["export", str(path)]) == (0 if shape_ok else 65)
    if not shape_ok:
        assert problem in capsys.readouterr().err


@pytest.mark.parametrize("deriver, to", [("sk", "cq"), ("cq", "sk")])
def test_a_proof_that_holds_converts_and_exports(ex1_file, ex1_proof_texts,
                                                 tmp_path, deriver, to):
    from hornexplain import cli
    path = tmp_path / "proof.json"
    path.write_text(ex1_proof_texts[deriver])
    out = tmp_path / "converted.json"
    assert cli.main(["convert", str(path), "--kb", ex1_file, "--to", to,
                     "-o", str(out)]) == 0
    assert json.loads(out.read_text())["deriver"] == to
    assert cli.main(["export", str(path), "-o",
                     str(tmp_path / "proof.dot")]) == 0


def test_a_term_nested_5000_deep_is_read_written_and_refused(tmp_path,
                                                             capsys):
    """Reading, writing, validating and exporting a proof do not recurse
    on a term: a one-vertex proof of A(f(f(...f(a)...))) goes through all
    four, and convert refuses it as bad input, for it is no fact of the
    KB."""
    from hornexplain import cli
    from hornexplain.kb import BooleanCQ, ConceptAtom, Const, SkolemTerm
    from hornexplain.parser import parse_document
    from hornexplain.proofs import (ProofGraph, proof_from_json,
                                    proof_to_json, validate_proof)
    term = Const("a")
    for _ in range(5000):
        term = SkolemTerm("f", term)
    atom = ConceptAtom("A", term)
    text = proof_to_json(ProofGraph({0: atom}, []),
                         BooleanCQ((atom,), ()))
    assert len(text) > 2 * 5000 * len("f()")
    proof, goal = proof_from_json(text)
    assert proof.vertices[0] is atom and goal.atoms == (atom,)
    assert proof_to_json(proof, goal) == text
    kb = parse_document(EX1_TEXT).kb
    ok, problems = validate_proof(proof, kb, goal, "sk")
    assert not ok and "is not a fact or rule" in problems[0]
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert cli.main(["export", str(path), "-o",
                     str(tmp_path / "deep.dot")]) == 0
    kb_path = tmp_path / "ex1.kb"
    kb_path.write_text(EX1_TEXT)
    for to in ("cq", "sk"):
        assert cli.main(["convert", str(path), "--kb", str(kb_path),
                         "--to", to]) == 65
        assert "is not a fact or rule" in capsys.readouterr().err


def test_inputs_may_start_with_a_byte_order_mark(tmp_path, ex1_proof_text,
                                                 capsys):
    """Every command that reads a KB or a proof file reads one that starts
    with a UTF-8 byte-order mark; what they write starts with none."""
    from hornexplain import cli
    kb = tmp_path / "ex1.kb"
    kb.write_bytes(codecs.BOM_UTF8 + EX1_TEXT.encode())
    assert cli.main(["answer", str(kb)]) == 0
    assert capsys.readouterr().out == "yes, depth 2, xp -> a, y -> f_0(a)\n"
    for args in (["chase", str(kb), "--depth", "1"], ["normalize", str(kb)]):
        assert cli.main(args) == 0
        assert capsys.readouterr().out.startswith(("A(a)", "rule: "))
    proof = tmp_path / "p.json"
    proof.write_bytes(codecs.BOM_UTF8 + ex1_proof_text.encode())
    out = tmp_path / "cq.json"
    assert cli.main(["convert", str(proof), "--kb", str(kb), "--to", "cq",
                     "-o", str(out)]) == 0
    assert out.read_bytes().startswith(b"{")
    assert cli.main(["export", str(proof)]) == 0
    assert capsys.readouterr().out.startswith("digraph proof {")
