"""Command-line front end.

Subcommands: ``answer`` (entailment with a witness match), ``explain``
(optimal or bounded proof search), ``chase`` (model fragments), ``gen``
(benchmark families), ``convert`` (between the two proof formats),
``export`` (proof DOT), ``normalize`` (thin rule rewriter), and ``bench``
(CSV sweeps).  Exit codes: 0 found/success, 1 definitive negative,
2 resource limit or unknown, 64 usage errors (a path that cannot be
opened included), 65 bad input data (a proof file included), 70 internal
errors (a crash, or a proof produced, or converted from a valid one, that
fails validation).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Optional

from .chase import chase, entails
from .deriver_cq import transform_cq_to_sk, transform_sk_to_cq
from .generators import FAMILIES, gen_sat, gen_sat_cq
from .kb import (BooleanCQ, ConceptAtom, KBError, KnowledgeBase, RoleAtom,
                 format_atom, term_key)
from .parser import (format_term_surface, normalize_document_text,
                     parse_document, serialize_document)
from .proofs import (Measure, check_proof_shape, format_label,
                     inference_steps, proof_from_json, proof_to_dot,
                     proof_to_json, validate_proof)
from .search import RunConfig, explain

USAGE_ERROR = 64
DATA_ERROR = 65
INTERNAL_ERROR = 70

MEASURES = {"size": Measure.SIZE, "tree": Measure.TREE_SIZE,
            "domain": Measure.DOMAIN_SIZE}


def _json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _read(path: str) -> str:
    """An input file's text, without a leading byte-order mark."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return handle.read()


def _load(path: str, query: Optional[str], query_index: int
          ) -> tuple[KnowledgeBase, BooleanCQ]:
    doc = parse_document(_read(path), query)
    if query is not None:
        return doc.kb, doc.queries[0]
    if not doc.queries:
        raise KBError("the file declares no query; pass one with --query")
    if not 0 <= query_index < len(doc.queries):
        raise KBError(f"query index {query_index} out of range")
    return doc.kb, doc.queries[query_index]


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _add_query_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("kb", help="knowledge base file")
    p.add_argument("--query", help="query text overriding the file's query")
    p.add_argument("--query-index", type=int, default=0,
                   help="which query statement of the file to use")


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth-ceiling", type=int, default=None,
                   help="term-depth ceiling for the chase and the search")
    p.add_argument("--max-nodes", type=int, default=1_000_000)
    p.add_argument("--max-seconds", type=float, default=60.0)


def cmd_answer(args) -> int:
    kb, q = _load(args.kb, args.query, args.query_index)
    result = entails(kb, q, ceiling=args.depth_ceiling)
    payload = {"schema_version": 1, "verdict": result.verdict}
    if result.verdict == "yes":
        payload["depth"] = result.at_depth
        payload["assignment"] = {
            v.name: format_term_surface(t)
            for v, t in result.witness.substitution}
    if args.format == "json":
        _emit(_json(payload), args.out)
    else:
        if result.verdict == "yes":
            parts = [f"yes, depth {result.at_depth}"] + [
                f"{v.name} -> {format_term_surface(t)}"
                for v, t in result.witness.substitution]
            _emit(", ".join(parts) + "\n", args.out)
        else:
            _emit(result.verdict + "\n", args.out)
    return {"yes": 0, "no": 1, "unknown": 2}[result.verdict]


def cmd_explain(args) -> int:
    kb, q = _load(args.kb, args.query, args.query_index)
    config = RunConfig(measure=MEASURES[args.measure], bound=args.bound,
                       algo=args.algo, deriver=args.deriver,
                       depth_ceiling=args.depth_ceiling,
                       max_nodes=args.max_nodes,
                       max_seconds=args.max_seconds,
                       strict_cg=args.strict_cg)
    result = explain(kb, q, config)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if result.status != "found":
        if args.format == "json":
            _emit(_json({"schema_version": 1, "status": result.status}),
                  args.out)
        else:
            _emit(result.status + "\n", args.out)
        return result.exit_code
    ok, problems = validate_proof(result.proof, kb, q, config.deriver)
    if not ok:
        print("internal error: produced proof failed validation: "
              + "; ".join(problems), file=sys.stderr)
        return INTERNAL_ERROR
    if args.format == "dot":
        _emit(proof_to_dot(result.proof), args.out)
    elif args.format == "json":
        extra = {"measure": args.measure, "value": result.value,
                 "algorithm": result.algorithm}
        if not result.complete:
            extra["complete"] = False
        _emit(proof_to_json(result.proof, q, extra) + "\n", args.out)
    else:
        algorithm = result.algorithm if result.complete \
            else f"{result.algorithm}, uncertified"
        lines = [f"{args.measure} = {result.value} ({algorithm})"]
        for schema, premises, conclusions in inference_steps(result.proof):
            prem = "; ".join(format_label(result.proof.vertices[v])
                             for v in premises)
            concl = "; ".join(format_label(result.proof.vertices[v])
                              for v in conclusions)
            lines.append(f"  ({schema.value}) {prem} ==> {concl}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_chase(args) -> int:
    doc = parse_document(_read(args.kb))
    state = chase(doc.kb, args.depth)
    if args.format == "dot":
        _emit(_chase_dot(state), args.out)
        return 0
    lines = [format_atom(a) for a in state.sorted_atoms()]
    lines.append(f"# saturated: {str(state.saturated_at_bound).lower()}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _chase_dot(state) -> str:
    concepts: dict = {}
    edges = []
    terms = set()
    for atom in state.sorted_atoms():
        if isinstance(atom, ConceptAtom):
            concepts.setdefault(atom.term, []).append(atom.concept)
            terms.add(atom.term)
        elif isinstance(atom, RoleAtom):
            edges.append(atom)
            terms.add(atom.subj)
            terms.add(atom.obj)
    lines = ["digraph model {", "  node [shape=box, style=rounded];"]
    names = {t: f"t{i}" for i, t in enumerate(sorted(terms, key=term_key))}
    for t, nid in names.items():
        label = format_term_surface(t)
        cs = ", ".join(sorted(concepts.get(t, [])))
        if cs:
            label += f"\\n{cs}"
        lines.append(f'  {nid} [label="{label}"];')
    for e in edges:
        lines.append(f'  {names[e.subj]} -> {names[e.obj]} '
                     f'[label="{e.role}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_clauses(text: str) -> list[list[int]]:
    clauses = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        clauses.append([int(tok) for tok in chunk.split()])
    return clauses


def _check_family(name: str, choices: list[str]) -> None:
    if name not in choices:
        raise KBError(f"unknown family {name!r}; choose from {choices}")


def cmd_gen(args) -> int:
    if args.family in ("sat", "sat-cq"):
        if not args.clauses:
            raise KBError("sat families need --clauses, e.g. "
                          "--clauses '1 -2, 2'")
        clauses = _parse_clauses(args.clauses)
        inst = gen_sat(clauses) if args.family == "sat" \
            else gen_sat_cq(clauses)
    else:
        _check_family(args.family, sorted(FAMILIES) + ["sat", "sat-cq"])
        inst = FAMILIES[args.family](args.n, seed=args.seed)
    text = serialize_document(inst.kb, [inst.query])
    meta = {"schema_version": 1, "family": inst.family,
            "parameter": inst.parameter, "predicted": inst.predicted,
            "bounds": inst.bounds}
    if args.out:
        _emit(text, args.out)
        with open(args.out + ".predicted.json", "w", encoding="utf-8") as fh:
            fh.write(_json(meta))
    elif args.format == "json":
        _emit(_json({"kb": text, **meta}), None)
    else:
        _emit(text, None)
    return 0


def cmd_convert(args) -> int:
    proof, goal = proof_from_json(_read(args.proof))
    kb = parse_document(_read(args.kb)).kb
    if goal is None:
        raise KBError("proof file carries no goal, cannot convert safely")
    current = proof.deriver()
    ok, problems = validate_proof(proof, kb, goal, current)
    if not ok:
        raise KBError("the proof file does not prove its goal from this "
                      "knowledge base: " + "; ".join(problems))
    if args.to != current:
        transform = transform_sk_to_cq if args.to == "cq" \
            else transform_cq_to_sk
        proof = transform(proof, kb)
        ok, problems = validate_proof(proof, kb, goal, args.to)
        if not ok:
            print("internal error: conversion produced an invalid proof: "
                  + "; ".join(problems), file=sys.stderr)
            return INTERNAL_ERROR
    _emit(proof_to_json(proof, goal) + "\n", args.out)
    return 0


def cmd_export(args) -> int:
    proof, _ = proof_from_json(_read(args.proof))
    ok, problems = check_proof_shape(proof)
    if not ok:
        raise KBError("the proof file does not hold a proof: "
                      + "; ".join(problems))
    _emit(proof_to_dot(proof), args.out)
    return 0


def cmd_normalize(args) -> int:
    _emit(normalize_document_text(_read(args.kb)), args.out)
    return 0


def cmd_bench(args) -> int:
    families = args.families.split(",")
    for fam in families:
        _check_family(fam, sorted(FAMILIES))
    params = [int(x) for x in args.params.split(",")]
    jobs = [(fam, n) for fam in families for n in params]

    def run(job):
        fam, n = job
        inst = FAMILIES[fam](n)
        config = RunConfig(measure=MEASURES[args.measure],
                           depth_ceiling=args.depth_ceiling,
                           max_nodes=args.max_nodes,
                           max_seconds=args.max_seconds)
        start = time.monotonic()
        result = explain(inst.kb, inst.query, config)
        wall_ms = int(1000 * (time.monotonic() - start))
        return [fam, n, args.measure,
                result.value if result.status == "found" else result.status,
                result.nodes, wall_ms]

    rows = [run(job) for job in jobs]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["family", "parameter", "measure", "optimum",
                     "search_nodes", "wall_ms"])
    writer.writerows(rows)
    _emit(buffer.getvalue(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hornexplain",
                     description="Explain answers to conjunctive queries "
                                 "over Horn ontologies with optimal proofs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("answer", help="decide entailment, show a witness")
    _add_query_args(p)
    p.add_argument("--depth-ceiling", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("explain", help="find an optimal or bounded proof")
    _add_query_args(p)
    p.add_argument("--measure", choices=sorted(MEASURES), default="size")
    p.add_argument("--bound", type=int, default=None,
                   help="decision mode: is there a proof of measure <= N "
                        "(N > 1)? The proof shown is the first one the "
                        "search finds within N, at the first depth that "
                        "has one; its value is not minimized")
    p.add_argument("--algo", choices=["auto", "poly", "exact"],
                   default="auto")
    p.add_argument("--deriver", choices=["sk", "cq"], default="sk")
    p.add_argument("--strict-cg", action="store_true",
                   help="always end proofs with explicit conjunction and "
                        "generalization steps")
    _add_budget_args(p)
    p.add_argument("--format", choices=["text", "json", "dot"],
                   default="text")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("chase", help="emit a bounded model fragment")
    p.add_argument("kb")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--format", choices=["text", "dot"], default="text")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("family")
    p.add_argument("n", type=int, nargs="?", default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--clauses", help="for sat families: '1 -2, 2 3'")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("convert", help="convert a proof between derivers")
    p.add_argument("proof", help="proof JSON file")
    p.add_argument("--kb", required=True)
    p.add_argument("--to", choices=["sk", "cq"], required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("export", help="render a proof JSON file as DOT")
    p.add_argument("proof")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("normalize", help="split wide rules into normal form")
    p.add_argument("kb")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("bench", help="sweep generator families, emit CSV")
    p.add_argument("--families", default="dllite-chain,el-abox")
    p.add_argument("--params", default="1,2,3")
    p.add_argument("--measure", choices=sorted(MEASURES), default="tree")
    _add_budget_args(p)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        if exc.filename is None:
            print(f"internal error: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return INTERNAL_ERROR
        # an input or output path the command cannot open
        print(f"error: cannot open {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
