"""Canonical report documents for the command-line front end.

Every report is a plain JSON-compatible dict rendered through canonical_json:
sorted keys, two-space indent, rationals as "p/q" strings, no timestamps.
Two runs with the same inputs, seed, and budget produce byte-identical text;
the envelope stamps tool version, seed, budget, and input digests so a report
names everything it depended on.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__
from .algebra import LatticeIdeal, OrderRing, rat_str
from .criteria import (
    CentreData,
    CentreCriterionReport,
    EmbeddabilityReport,
    IdempotentCentreReport,
    QuotientReport,
    SliceData,
)
from .embeddings import (
    ClassifyReport,
    MinimizeChain,
    MinimizeStepResult,
    MorphismCertificate,
    ReduceResult,
    embedding_to_doc,
)
from .linalg import MatQ, Subspace
from .wedderburn import (
    SemisimpleDecomposition,
    SimpleComponent,
    SplitStatus,
)

REPORT_VERSION = __version__


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def envelope(
    command: str,
    seed: int,
    budget: int,
    inputs: dict[str, dict],
    report: dict,
) -> dict:
    return {
        "tool": "ordembed",
        "version": REPORT_VERSION,
        "command": command,
        "seed": seed,
        "budget": budget,
        "inputs": inputs,
        "report": report,
    }


# -- low-level pieces -----------------------------------------------------------------


def vec_doc(v) -> list[str]:
    return [rat_str(x) for x in v]


def mat_doc(m: MatQ) -> list[list[str]]:
    return [vec_doc(row) for row in m.rows]


def subspace_doc(s: Subspace) -> dict:
    return {"ambient": s.ambient, "dim": s.dim, "basis": mat_doc(s.basis)}


def ideal_doc(ideal: LatticeIdeal) -> dict:
    return {
        "basis": [[int(x) for x in row] for row in ideal.lattice.basis],
        "rank": ideal.lattice.rank,
        "saturated": ideal.saturated,
    }


def split_doc(status: SplitStatus) -> dict:
    return {
        "kind": status.kind,
        "matrix_size": status.matrix_size,
        "places": [str(p) for p in status.places],
        "note": status.note,
    }


def component_doc(comp: SimpleComponent) -> dict:
    return {
        "dim": comp.algebra.dim,
        "centre_dim": comp.centre_dim,
        "reduced_degree": comp.reduced_degree,
        "matrix_size": comp.matrix_size,
        "idempotent": vec_doc(comp.idempotent),
        "block": mat_doc(comp.block_rows),
        "split": split_doc(comp.split_status),
    }


def decomposition_doc(dec: SemisimpleDecomposition) -> dict:
    return {
        "algebra": dec.parent.name,
        "dim": dec.parent.dim,
        "semisimple": True,
        "component_count": len(dec.components),
        "components": [component_doc(c) for c in dec.components],
    }


def has_unknown_split(dec: SemisimpleDecomposition) -> bool:
    return any(c.split_status.is_unknown for c in dec.components)


def certificate_doc(cert: MorphismCertificate) -> dict:
    return {
        "kind": cert.kind,
        "alpha": mat_doc(cert.alpha),
        "verified": cert.verified,
    }


def centre_doc(data: CentreData) -> dict:
    return {
        "rank": data.rank,
        "rows": [[int(x) for x in row] for row in data.rows.rows],
        "semiprime": data.semiprime,
        "radical_witness": list(data.radical_witness) if data.radical_witness else None,
        "minimal_primes": [ideal_doc(q) for q in data.minimal_primes],
        "idempotents": [vec_doc(e) for e in data.idempotents],
    }


# -- per-command report bodies ---------------------------------------------------------


def min_primes_doc(order: OrderRing, primes: tuple[LatticeIdeal, ...] | None,
                   witness=None) -> dict:
    if primes is None:
        return {
            "order": order.name,
            "rank": order.rank,
            "semiprime": False,
            "nilpotent_witness": list(witness),
            "primes": [],
        }
    return {
        "order": order.name,
        "rank": order.rank,
        "semiprime": True,
        "count": len(primes),
        "primes": [ideal_doc(p) for p in primes],
    }


def quotient_doc(report: QuotientReport,
                 dec: SemisimpleDecomposition | None) -> dict:
    body: dict = {
        "order": report.order.name,
        "rank": report.order.rank,
        "semisimple": report.semisimple,
        "centre": centre_doc(report.centre),
    }
    if report.semisimple:
        body["decomposition"] = decomposition_doc(dec)
        body["minimal_primes"] = [ideal_doc(p) for p in report.minimal_primes]
        body["prime_spans_match"] = report.prime_spans_match
    else:
        body["radical_witness"] = list(report.radical_witness)
    return body


def _slice_doc(sl: SliceData) -> dict:
    return {
        "prime_index": sl.prime_index,
        "dim": sl.algebra.dim,
        "semisimple": sl.semisimple,
        "component_count": sl.component_count,
        "centre_dim": sl.centre_dim,
        "idempotent": vec_doc(sl.idempotent),
    }


def _condition_doc(cond) -> dict:
    return {
        "name": cond.name,
        "holds": cond.holds,
        "note": cond.note,
        "witness": list(cond.witness) if cond.witness is not None else None,
    }


def centre_criterion_doc(report: CentreCriterionReport) -> dict:
    return {
        "verdict": report.verdict,
        "conditions": [_condition_doc(c) for c in report.conditions],
        "slices": [_slice_doc(sl) for sl in report.slices],
        "product_dim": report.product_algebra.dim if report.product_algebra else None,
        "product_iso": mat_doc(report.product_iso) if report.product_iso else None,
        "contraction": list(report.contraction) if report.contraction else None,
        "contraction_surjective": report.contraction_surjective,
    }


def idempotent_centre_doc(report: IdempotentCentreReport) -> dict:
    return {
        "verdict": report.verdict,
        "semiprime": report.semiprime,
        "radical_witness": list(report.radical_witness)
        if report.radical_witness
        else None,
        "factors": [_slice_doc(f) for f in report.factors],
        "product_dim": report.product_algebra.dim if report.product_algebra else None,
        "product_iso": mat_doc(report.product_iso) if report.product_iso else None,
    }


def embeddability_doc(report: EmbeddabilityReport) -> dict:
    return {
        "verdict": report.verdict,
        "witness_map": mat_doc(report.witness.map) if report.witness else None,
        "nilpotent_witness": list(report.nilpotent_witness)
        if report.nilpotent_witness
        else None,
        "prime_count": len(report.minimal_primes),
        "component_dims": list(report.component_dims),
    }


def classify_doc(report: ClassifyReport) -> dict:
    return {
        "natural": report.natural,
        "elementary": report.elementary,
        "assignment": list(report.assignment),
        "per_prime": [
            {
                "prime_index": p.prime_index,
                "component_index": p.component_index,
                "natural": p.natural,
                "simple_bimodule": p.simple_bimodule,
                "contraction_ok": p.contraction_ok,
                "witness": subspace_doc(p.witness) if p.witness is not None else None,
                "note": p.note,
            }
            for p in report.per_prime
        ],
    }


def _reduce_stage_doc(result: ReduceResult) -> dict:
    return {
        "kind": "reduce",
        "dropped_components": list(result.dropped),
        "codomain_dim": result.embedding.codomain_dim,
        "certificate": certificate_doc(result.certificate),
    }


def _minimize_stage_doc(step: MinimizeStepResult) -> dict:
    return {
        "kind": "minimize",
        "selected": [list(pair) for pair in step.selected],
        "dropped": [list(pair) for pair in step.dropped],
        "source_size": step.source_size,
        "target_size": step.target_size,
        "codomain_dim": step.embedding.codomain_dim,
        "combined_dim": step.combined.codomain_dim,
        "entries": [
            {
                "prime_index": e.prime_index,
                "component_index": e.component_index,
                "factor_index": e.factor_index,
                "carrier_dim": e.carrier.dim,
                "length": e.length,
                "dim_proxy": e.dim_proxy,
                "end_dim": e.end_algebra.dim,
            }
            for e in step.collection.entries
        ],
        "into_parent": certificate_doc(step.into_parent),
        "onto_selected": certificate_doc(step.onto_selected),
    }


def minimize_chain_doc(chain: MinimizeChain,
                       codomain: SemisimpleDecomposition) -> dict:
    """The chain's stages and its final embedding.

    `codomain` is the final codomain with its split statuses resolved, as
    resolve_all returns it.
    """
    stages = []
    for kind, payload in chain.steps:
        if kind == "reduce":
            stages.append(_reduce_stage_doc(payload))
        else:
            stages.append(_minimize_stage_doc(payload))
    return {
        "stages": stages,
        "final": {
            "embedding": embedding_to_doc(chain.final),
            "codomain_dim": chain.final.codomain_dim,
            "component_dims": [
                c.algebra.dim for c in chain.final.codomain.components
            ],
            "split_kinds": [c.split_status.kind for c in codomain.components],
            "classification": classify_doc(chain.report),
        },
    }


def analyze_doc(
    order: OrderRing,
    dec: SemisimpleDecomposition | None,
    radical_witness,
    primes: tuple[LatticeIdeal, ...] | None,
    quotient: QuotientReport,
    centre_verdict: bool,
    embeddable: bool,
) -> dict:
    body: dict = {
        "order": order.name,
        "rank": order.rank,
        "semiprime": dec is not None,
        "verdicts": {
            "quotient_semisimple": quotient.semisimple,
            "centre_criterion": centre_verdict,
            "embeddability": embeddable,
            "agree": quotient.semisimple == centre_verdict == embeddable,
        },
        "centre": centre_doc(quotient.centre),
    }
    if dec is not None:
        body["decomposition"] = decomposition_doc(dec)
        body["minimal_primes"] = [ideal_doc(p) for p in primes]
    else:
        body["radical_witness"] = list(radical_witness)
    return body


def error_doc(exc: Exception, **extra) -> dict:
    body = {"type": type(exc).__name__, "message": str(exc)}
    body.update(extra)
    return {"error": body}


# -- text rendering --------------------------------------------------------------------


def render_text(doc: dict) -> str:
    """Human-oriented flat rendering; the JSON form is the stable contract."""
    lines: list[str] = []

    def walk(value, label: str, depth: int) -> None:
        pad = "  " * depth
        if isinstance(value, dict):
            lines.append(f"{pad}{label}:")
            for key in sorted(value):
                walk(value[key], key, depth + 1)
        elif isinstance(value, list):
            if all(not isinstance(x, (dict, list)) for x in value):
                flat = ", ".join(str(x) for x in value)
                lines.append(f"{pad}{label}: [{flat}]")
            else:
                lines.append(f"{pad}{label}:")
                for i, item in enumerate(value):
                    walk(item, f"[{i}]", depth + 1)
        else:
            lines.append(f"{pad}{label}: {value}")

    for key in sorted(doc):
        walk(doc[key], key, 0)
    return "\n".join(lines) + "\n"
