"""Command-line front end: report emission with reproducible envelopes.

Exit codes: 0 for verdict-bearing runs (including negative verdicts), 1 for
input problems, failed certificates and golden drift, 2 when a budget or a
bounded search ran out and the report carries Unknown statuses or an error,
or an entry could not be verified.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import json
import sys
from pathlib import Path

from .algebra import load_algebra, load_order
from .criteria import (
    centre_criterion,
    classical_quotient,
    embeddability_report,
    idempotent_centre_criterion,
    order_facts,
)
from .embeddings import (
    classify,
    load_embedding,
    minimal_primes,
    minimize_to_elementary,
)
from .errors import (
    CentreNotEtale,
    GoldenMismatch,
    NotSemiprime,
    NotSemisimple,
    OrdembedError,
    SearchExhausted,
    UnmatchedComponents,
    UnresolvedSimplicity,
)
from .reports import (
    analyze_doc,
    canonical_json,
    centre_criterion_doc,
    classify_doc,
    decomposition_doc,
    embeddability_doc,
    envelope,
    error_doc,
    has_unknown_split,
    idempotent_centre_doc,
    min_primes_doc,
    minimize_chain_doc,
    quotient_doc,
    render_text,
    sha256_hex,
    subspace_doc,
)
from .wedderburn import decompose, fact_store, resolve_all

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2

CORPUS_DIR = Path(__file__).parent / "corpus"


# -- input plumbing -------------------------------------------------------------------


class _Inputs:
    """Tracks every file the run read, for the report envelope."""

    def __init__(self) -> None:
        self.entries: dict[str, dict] = {}

    def read(self, role: str, path: Path) -> dict:
        data = path.read_bytes()
        self.entries[role] = {"name": path.name, "sha256": sha256_hex(data)}
        try:
            return json.loads(data)
        except json.JSONDecodeError as exc:
            raise OrdembedError(f"{path.name}: invalid JSON ({exc})") from exc


def _sibling_resolver(base: Path, inputs: _Inputs):
    def resolve(ref: str) -> dict:
        target = base.parent / f"{ref}.json"
        return inputs.read(f"ref:{ref}", target)

    return resolve


def _load_order_file(path: Path, inputs: _Inputs) -> object:
    doc = inputs.read("order", path)
    return load_order(doc)


def _load_embedding_file(path: Path, inputs: _Inputs, args) -> object:
    doc = inputs.read("embedding", path)
    return load_embedding(doc, resolver=_sibling_resolver(path, inputs), seed=args.seed)


# -- command handlers -----------------------------------------------------------------


def _cmd_decompose(args, inputs: _Inputs) -> tuple[dict, int]:
    if args.algebra:
        doc = inputs.read("algebra", Path(args.algebra))
        alg = load_algebra(doc)
    else:
        alg = _load_order_file(Path(args.order), inputs).coord_algebra
    try:
        dec = resolve_all(decompose(alg, seed=args.seed), args.budget, seed=args.seed)
    except NotSemisimple as exc:
        body = {
            "algebra": alg.name,
            "dim": alg.dim,
            "semisimple": False,
            "radical": subspace_doc(exc.radical),
        }
        return body, EXIT_OK
    return decomposition_doc(dec), EXIT_BUDGET if has_unknown_split(dec) else EXIT_OK


def _cmd_min_primes(args, inputs: _Inputs) -> tuple[dict, int]:
    order = _load_order_file(Path(args.order), inputs)
    try:
        primes = minimal_primes(order, seed=args.seed)
    except NotSemiprime as exc:
        return min_primes_doc(order, None, witness=exc.witness), EXIT_OK
    return min_primes_doc(order, primes), EXIT_OK


def _cmd_quotient(args, inputs: _Inputs) -> tuple[dict, int]:
    order = _load_order_file(Path(args.order), inputs)
    report = classical_quotient(order_facts(order, seed=args.seed))
    dec = None
    code = EXIT_OK
    if report.semisimple:
        dec = resolve_all(report.decomposition, args.budget, seed=args.seed)
        if has_unknown_split(dec):
            code = EXIT_BUDGET
    return quotient_doc(report, dec), code


def _cmd_criteria(args, inputs: _Inputs) -> tuple[dict, int]:
    order = _load_order_file(Path(args.order), inputs)
    facts = order_facts(order, seed=args.seed)
    centre_report = centre_criterion(facts)
    embed_report = embeddability_report(facts)
    try:
        idem = idempotent_centre_doc(idempotent_centre_criterion(facts))
        idem_verdict = idem["verdict"]
    except CentreNotEtale as exc:
        idem = error_doc(exc, radical=subspace_doc(exc.radical))
        idem_verdict = False
    body = {
        "order": order.name,
        "rank": order.rank,
        "centre_criterion": centre_criterion_doc(centre_report),
        "idempotent_centre": idem,
        "embeddability": embeddability_doc(embed_report),
        "agree": centre_report.verdict == embed_report.verdict == idem_verdict
        or (centre_report.verdict == embed_report.verdict and "error" in idem),
    }
    return body, EXIT_OK


def _cmd_analyze(args, inputs: _Inputs) -> tuple[dict, int]:
    order = _load_order_file(Path(args.order), inputs)
    facts = order_facts(order, seed=args.seed)
    quotient = classical_quotient(facts)
    centre_report = centre_criterion(facts)
    embed_report = embeddability_report(facts)
    dec = None
    primes = None
    code = EXIT_OK
    if quotient.semisimple:
        dec = resolve_all(quotient.decomposition, args.budget, seed=args.seed)
        primes = quotient.minimal_primes
        if has_unknown_split(dec):
            code = EXIT_BUDGET
    body = analyze_doc(
        order,
        dec,
        quotient.radical_witness,
        primes,
        quotient,
        centre_report.verdict,
        embed_report.verdict,
    )
    return body, code


def _cmd_classify(args, inputs: _Inputs) -> tuple[dict, int]:
    emb = _load_embedding_file(Path(args.embedding), inputs, args)
    primes = minimal_primes(emb.domain, seed=args.seed)
    try:
        report = classify(emb, primes, args.budget, seed=args.seed)
    except UnmatchedComponents as exc:
        body = {
            "natural": False,
            "elementary": False,
            "reason": str(exc),
            "assignment": None,
            "per_prime": [],
        }
        return body, EXIT_OK
    body = classify_doc(report)
    return body, EXIT_BUDGET if report.elementary is None else EXIT_OK


def _cmd_minimize(args, inputs: _Inputs) -> tuple[dict, int]:
    emb = _load_embedding_file(Path(args.embedding), inputs, args)
    chain = minimize_to_elementary(emb, args.budget, seed=args.seed)
    final = resolve_all(chain.final.codomain, args.budget, seed=args.seed)
    code = EXIT_BUDGET if has_unknown_split(final) else EXIT_OK
    return minimize_chain_doc(chain, final), code


def _cmd_verify(args, inputs: _Inputs) -> tuple[dict, int]:
    return corpus_verify(Path(args.corpus))


HANDLERS = {
    "analyze": _cmd_analyze,
    "decompose": _cmd_decompose,
    "min-primes": _cmd_min_primes,
    "minimize": _cmd_minimize,
    "classify": _cmd_classify,
    "quotient": _cmd_quotient,
    "criteria": _cmd_criteria,
    "verify": _cmd_verify,
}


# -- corpus verification --------------------------------------------------------------


def run_report(command: str, argv: list[str]) -> tuple[str, int]:
    """Run one command and return (rendered report, exit code).

    This is the same path `main` uses, factored so corpus verification and
    tests can capture report bytes without a subprocess.
    """
    parser = _build_parser()
    args = parser.parse_args([command] + argv)
    return _execute(args)


def _verify_entry(corpus: Path, entry: dict) -> dict:
    name = entry["name"]
    golden = corpus / "golden" / entry["golden"]
    argv = [
        f"--{entry['input_role']}",
        str(corpus / entry["file"]),
        "--seed",
        str(entry.get("seed", 0)),
        "--budget",
        str(entry.get("budget", 1000)),
    ]
    if not golden.exists():
        return {"name": name, "status": "unverified", "golden": entry["golden"]}
    text, code = run_report(entry["command"], argv)
    expected = golden.read_text()
    if text != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=f"golden/{entry['golden']}",
                tofile=f"recomputed/{name}",
            )
        )
        raise GoldenMismatch(name, diff)
    return {"name": name, "status": "ok", "exit": code}


def corpus_verify(corpus: Path) -> tuple[dict, int]:
    """Recompute every corpus report and compare byte-for-byte with its golden."""
    manifest_path = corpus / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entries = sorted(manifest["entries"], key=lambda e: e["name"])
    results = []
    for entry in entries:
        try:
            results.append(_verify_entry(corpus, entry))
        except GoldenMismatch as exc:
            results.append({"name": exc.name, "status": "mismatch", "diff": exc.diff})
    counts = {"ok": 0, "mismatch": 0, "unverified": 0}
    for r in results:
        counts[r["status"]] += 1
    body = {
        "corpus": corpus.name,
        "entries": results,
        "passed": counts["ok"],
        "failed": counts["mismatch"],
        "unverified": counts["unverified"],
    }
    if counts["mismatch"]:
        return body, EXIT_INPUT
    if counts["unverified"]:
        return body, EXIT_BUDGET
    return body, EXIT_OK


# -- argument parsing and dispatch ----------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--budget", type=int, default=1000)
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--output", default=None)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.

    Parsing leaves it unchanged, and a parser is a web of reference cycles:
    one built per `run_report` call stays in memory until the cycle
    collector happens to run.
    """
    parser = argparse.ArgumentParser(
        prog="ordembed",
        description="Exact analysis of Z-orders and their embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full structural report for an order")
    p.add_argument("--order", required=True)
    _add_common(p)

    p = sub.add_parser("decompose", help="simple blocks of an algebra or order span")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--algebra")
    group.add_argument("--order")
    _add_common(p)

    p = sub.add_parser("min-primes", help="minimal primes of an order")
    p.add_argument("--order", required=True)
    _add_common(p)

    p = sub.add_parser("minimize", help="minimize an embedding to elementary form")
    p.add_argument("--embedding", required=True)
    _add_common(p)

    p = sub.add_parser("classify", help="natural/elementary classification")
    p.add_argument("--embedding", required=True)
    _add_common(p)

    p = sub.add_parser("quotient", help="classical quotient report")
    p.add_argument("--order", required=True)
    _add_common(p)

    p = sub.add_parser("criteria", help="semisimple-quotient criteria")
    p.add_argument("--order", required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="recompute corpus reports against goldens")
    p.add_argument("--corpus", default=str(CORPUS_DIR))
    _add_common(p)

    return parser


def _execute(args) -> tuple[str, int]:
    """Run one command with its own fact store, dropped when the command ends."""
    inputs = _Inputs()
    try:
        with fact_store():
            body, code = HANDLERS[args.command](args, inputs)
    except UnresolvedSimplicity as exc:
        body, code = error_doc(exc, budget=exc.budget), EXIT_BUDGET
    except SearchExhausted as exc:
        body, code = error_doc(exc, limit=exc.limit), EXIT_BUDGET
    except OrdembedError as exc:
        body, code = error_doc(exc), EXIT_INPUT
    except OSError as exc:
        body, code = error_doc(exc), EXIT_INPUT
    doc = envelope(args.command, args.seed, args.budget, inputs.entries, body)
    if args.format == "text":
        return render_text(doc), code
    return canonical_json(doc), code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    text, code = _execute(args)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
