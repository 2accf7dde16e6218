"""CLI: report envelopes, exit codes, corpus verification."""

import json
import math
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import ordembed
from ordembed import cli, criteria, embeddings, wedderburn
from ordembed.algebra import StructureAlgebra, algebra_to_doc, load_order, order_to_doc
from ordembed.cli import CORPUS_DIR, main, run_report
from ordembed.criteria import order_facts
from ordembed.embeddings import (
    MorphismCertificate,
    canonical_embedding,
    load_embedding,
    verify_morphism,
)
from ordembed.exact import PolyQ
from ordembed.linalg import Lattice, MatQ, Subspace
from ordembed.samples import (
    integer_matrix_order,
    integers_order,
    matrix_algebra,
    poly_quotient_algebra,
    quaternion_algebra,
    rational_algebra,
)
from ordembed.wedderburn import SimplicityResult

CORPUS = CORPUS_DIR
# `Fraction`s constructed by one `decompose --order d4`, as measured.
FRACTIONS_PER_DECOMPOSE_D4 = 2678
# `Fraction`s constructed by one `analyze --order d4`, as measured.
FRACTIONS_PER_ANALYZE_D4 = 4816


def run_json(command, argv):
    text, code = run_report(command, argv)
    return json.loads(text), code


def order_arg(name):
    return ["--order", str(CORPUS / f"{name}.json")]


def count_calls(monkeypatch, module, name, key):
    """Count calls of `module.name` by key(first argument).

    The function is replaced in every ordembed module that binds it.
    """
    original = getattr(module, name)
    counts = Counter()

    def counting(first, *args, **kwargs):
        counts[key(first)] += 1
        return original(first, *args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("ordembed") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return counts


# -- envelope -------------------------------------------------------------------------


def test_envelope_carries_reproducibility_header():
    doc, code = run_json("decompose", ["--algebra", str(CORPUS / "s3.json"),
                                       "--seed", "5", "--budget", "77"])
    assert code == 0
    assert doc["tool"] == "ordembed"
    assert doc["seed"] == 5 and doc["budget"] == 77
    assert doc["command"] == "decompose"
    digest = doc["inputs"]["algebra"]["sha256"]
    assert len(digest) == 64 and doc["inputs"]["algebra"]["name"] == "s3.json"


def test_reports_are_byte_identical_across_runs():
    argv = order_arg("d4") + ["--seed", "3"]
    first, _ = run_report("analyze", argv)
    second, _ = run_report("analyze", argv)
    assert first == second


def test_rationals_are_emitted_as_strings():
    doc, _ = run_json("decompose", ["--algebra", str(CORPUS / "c2.json")])
    idems = [c["idempotent"] for c in doc["report"]["components"]]
    assert sorted(idems) == [["1/2", "-1/2"], ["1/2", "1/2"]]


# -- structural commands --------------------------------------------------------------


def test_decompose_command_on_group_algebra():
    doc, code = run_json("decompose", ["--algebra", str(CORPUS / "s3.json")])
    assert code == 0
    report = doc["report"]
    assert report["semisimple"] and report["component_count"] == 3
    assert sorted(c["dim"] for c in report["components"]) == [1, 1, 4]
    big = max(report["components"], key=lambda c: c["dim"])
    assert big["split"]["kind"] == "split" and big["matrix_size"] == 2


def test_decompose_command_reports_radicals():
    doc, code = run_json("decompose", order_arg("dual"))
    assert code == 0
    assert doc["report"]["semisimple"] is False
    assert doc["report"]["radical"]["dim"] == 1


def test_min_primes_command():
    doc, code = run_json("min-primes", order_arg("crt"))
    assert code == 0
    assert [p["basis"] for p in doc["report"]["primes"]] == [[[1, 1]], [[1, -1]]]
    doc, code = run_json("min-primes", order_arg("dual"))
    assert code == 0
    assert doc["report"]["semiprime"] is False
    assert doc["report"]["nilpotent_witness"] == [0, 1]


def test_quotient_command():
    doc, code = run_json("quotient", order_arg("m2z"))
    assert code == 0
    report = doc["report"]
    assert report["semisimple"] and report["prime_spans_match"]
    assert report["centre"]["rank"] == 1


def test_criteria_command_agreement_field():
    doc, code = run_json("criteria", order_arg("t2z"))
    assert code == 0
    report = doc["report"]
    assert report["agree"]
    assert report["centre_criterion"]["verdict"] is False
    assert report["idempotent_centre"]["verdict"] is False
    assert report["embeddability"]["verdict"] is False


def test_criteria_command_surfaces_non_etale_centres():
    doc, code = run_json("criteria", order_arg("dual"))
    assert code == 0
    assert doc["report"]["idempotent_centre"]["error"]["type"] == "CentreNotEtale"
    assert doc["report"]["agree"]


@pytest.mark.parametrize("command", ["analyze", "criteria"])
def test_order_facts_are_computed_once_per_command(monkeypatch, command):
    centres = count_calls(monkeypatch, criteria, "centre_of", lambda order: order.name)
    decomposed = count_calls(monkeypatch, wedderburn, "decompose", lambda alg: alg.name)
    primes = count_calls(
        monkeypatch, embeddings, "primes_of_decomposition", lambda order: order.name
    )
    _, code = run_report(command, order_arg("c4"))
    assert code == 0
    assert centres == {"QC4": 1}
    assert decomposed["QC4"] == 1
    assert primes == {"QC4": 1, "Z(QC4)": 1}


@pytest.mark.parametrize("name, order, slices", [
    ("c4", "QC4", 3),
    ("d4", "QD4", 5),
])
def test_criteria_builds_each_slice_once(monkeypatch, name, order, slices):
    decomposed = count_calls(monkeypatch, wedderburn, "decompose", lambda alg: alg.name)
    isos = count_calls(monkeypatch, criteria, "_product_iso", lambda alg: alg.name)
    _, code = run_report("criteria", order_arg(name))
    assert code == 0
    sliced = {k: v for k, v in decomposed.items() if "@q" in k}
    assert sliced == {f"{order}@q{i}": 1 for i in range(slices)}
    assert isos == {order: 1}


STORED_KINDS = {"decompose", "split", "commutant", "structure", "operators"}


def count_stored_runs(monkeypatch):
    """Body runs per key of the fact store, and lookups per kind of fact.

    Each run records the store it ran in: a command's own store, or None.
    """
    original = wedderburn._recall
    runs, lookups, stores = Counter(), Counter(), []

    def counting(key, compute, *args):
        lookups[key[0]] += 1

        def counted(*inner):
            runs[key] += 1
            stores.append(wedderburn._FACTS.get())
            return compute(*inner)

        return original(key, counted, *args)

    monkeypatch.setattr(wedderburn, "_recall", counting)
    return runs, lookups, stores


def workload_embedding(workdir, name, seed):
    """The path of one embedding of the benchmark's `embeddings` workload, built from `seed`."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads

    ops = workloads.embeddings(workdir, random.Random(seed))
    return next(op.argv[1] for op in ops if op.name == f"{name}.minimize")


@pytest.mark.parametrize("embedding", ["demo-scalar", "demo-crt", "demo-split", "emb5"])
def test_each_stored_fact_is_computed_once_per_command(monkeypatch, tmp_path, embedding):
    if embedding.startswith("emb"):
        path = workload_embedding(tmp_path, embedding, 7)
    else:
        path = str(CORPUS / f"{embedding}.json")
    runs, lookups, stores = count_stored_runs(monkeypatch)
    _, code = run_report("minimize", ["--embedding", path, "--seed", "7"])
    assert code == 0
    assert set(runs.values()) == {1}
    assert {key[0] for key in runs} == set(lookups) == STORED_KINDS
    # the decompositions and operator algebras are each found more than once
    for kind in ("decompose", "operators", "structure"):
        assert lookups[kind] > sum(1 for key in runs if key[0] == kind)
    assert None not in stores and len({id(s) for s in stores}) == 1


def test_each_command_has_its_own_store(monkeypatch):
    assert wedderburn._FACTS.get() is None
    runs, _, stores = count_stored_runs(monkeypatch)
    argv = ["--embedding", str(CORPUS / "demo-crt.json")]
    first, _ = run_report("minimize", argv)
    assert wedderburn._FACTS.get() is None
    once = Counter(runs)
    second, _ = run_report("minimize", argv)
    assert wedderburn._FACTS.get() is None
    assert first == second
    assert runs == once + once
    half = len(stores) // 2
    assert not {id(s) for s in stores[:half]} & {id(s) for s in stores[half:]}


def test_verify_gives_each_entry_a_fresh_store(monkeypatch):
    runs, _, stores = count_stored_runs(monkeypatch)
    original = cli._verify_entry
    entries = []

    def watched(corpus, entry):
        outer = wedderburn._FACTS.get()
        start = len(stores)
        result = original(corpus, entry)
        assert wedderburn._FACTS.get() is outer is not None
        entries.append(stores[start:])
        return result

    monkeypatch.setattr(cli, "_verify_entry", watched)
    doc, code = run_json("verify", [])
    assert code == 0 and doc["report"]["passed"] == 15
    assert len(entries) == 15
    # an order with a radical stores nothing; the stores stay referenced by
    # `stores`, so no two can share an id
    own = [{id(s) for s in seen} for seen in entries if seen]
    assert len(own) >= 12 and all(len(ids) == 1 for ids in own)
    assert len(set().union(*own)) == len(own)
    assert None not in stores


def test_decompose_when_every_small_prime_is_bad(tmp_path):
    # x^2 - N is not squarefree modulo any prime below 400
    n = math.prod(p for p in range(2, 400) if all(p % d for d in range(2, p)))
    alg = poly_quotient_algebra(PolyQ.make([-n, 0, 1]), name="Q(sqrt N)")
    path = tmp_path / "sqrt-primorial.json"
    path.write_text(json.dumps(algebra_to_doc(alg)))
    doc, code = run_json("decompose", ["--algebra", str(path)])
    assert code == 0
    report = doc["report"]
    assert report["semisimple"] and report["component_count"] == 1
    (comp,) = report["components"]
    assert comp["dim"] == 2 and comp["centre_dim"] == 2


def test_analyze_command_summarizes_verdicts():
    doc, code = run_json("analyze", order_arg("lipschitz"))
    assert code == 0
    report = doc["report"]
    assert report["semiprime"] and report["verdicts"]["agree"]
    comp, = report["decomposition"]["components"]
    assert comp["split"]["kind"] == "quaternion_division"
    assert comp["split"]["places"] == ["2", "inf"]


# -- embedding commands ---------------------------------------------------------------


def test_classify_command_on_scalar_demo():
    doc, code = run_json("classify", ["--embedding", str(CORPUS / "demo-scalar.json")])
    assert code == 0
    report = doc["report"]
    assert report["natural"] is True and report["elementary"] is False
    assert report["per_prime"][0]["witness"]["dim"] == 2


def test_minimize_command_reaches_the_rationals():
    doc, code = run_json(
        "minimize",
        ["--embedding", str(CORPUS / "demo-scalar.json"), "--seed", "7",
         "--budget", "500"],
    )
    assert code == 0
    report = doc["report"]
    assert [s["kind"] for s in report["stages"]] == ["minimize"]
    assert report["final"]["codomain_dim"] == 1
    assert report["final"]["classification"]["elementary"] is True
    stage = report["stages"][0]
    assert stage["into_parent"]["verified"] and stage["onto_selected"]["verified"]


def test_minimize_resolves_the_final_split_kinds(tmp_path):
    # M2(Z) placed diagonally in M2(Q) x M2(Q): the chain is one reduce stage
    m2 = matrix_algebra(2)
    doc = {
        "domain": order_to_doc(integer_matrix_order(2)),
        "codomain": [algebra_to_doc(m2), algebra_to_doc(m2)],
        "map": [[str(int(i == k)) for k in range(4)] * 2 for i in range(4)],
    }
    path = tmp_path / "m2z-twice.json"
    path.write_text(json.dumps(doc))
    out, code = run_json("minimize", ["--embedding", str(path)])
    assert code == 0
    report = out["report"]
    assert [s["kind"] for s in report["stages"]] == ["reduce"]
    assert report["final"]["split_kinds"] == ["split"]


def test_embedding_refs_resolve_next_to_the_file():
    doc, code = run_json("classify", ["--embedding", str(CORPUS / "demo-crt.json")])
    assert code == 0
    assert "ref:crt" in doc["inputs"] and "ref:m2z" in doc["inputs"]


def test_failed_certificate_exits_one(monkeypatch):
    monkeypatch.setattr(
        embeddings, "verify_morphism", lambda cert, **kwargs: (False, {"triangle": False})
    )
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-scalar.json")])
    assert code == 1
    error = json.loads(text)["report"]["error"]
    assert error["type"] == "CertificateFailure"
    assert "Traceback" not in text


def test_candidate_cap_exhaustion_is_a_json_report(monkeypatch):
    monkeypatch.setattr(wedderburn, "DECOMPOSE_CANDIDATE_CAP", 0)
    text, code = run_report("decompose", order_arg("c4"))
    assert code in (1, 2)
    error = json.loads(text)["report"]["error"]
    assert error["type"] == "SearchExhausted"
    assert "Traceback" not in text


def test_corrupted_idempotent_fails_its_certificate(monkeypatch):
    original = wedderburn._crt_idempotents

    def doubled_first(block, z, factors):
        first, *rest = original(block, z, factors)
        return [tuple(2 * x for x in first)] + rest

    monkeypatch.setattr(wedderburn, "_crt_idempotents", doubled_first)
    text, code = run_report("decompose", order_arg("c4"))
    assert code == 1
    error = json.loads(text)["report"]["error"]
    assert error["type"] == "CertificateFailure"
    assert "idempotent" in error["message"]


def test_missing_idempotent_generator_fails_its_certificate(monkeypatch):
    # A left ideal whose idempotent system has no solution. The check is a
    # raise, not an assert, so it holds under `python -O` too.
    original = wedderburn.solve_row

    def unsolvable(basis, v):
        return None if basis.nrows > 1 else original(basis, v)

    monkeypatch.setattr(wedderburn, "solve_row", unsolvable)
    text, code = run_report("decompose", order_arg("m2z"))
    assert code == 1
    error = json.loads(text)["report"]["error"]
    assert error["type"] == "CertificateFailure"
    assert "idempotent generator" in error["message"]


def test_non_scalar_quaternion_square_fails_its_certificate(monkeypatch):
    # The checks of the quaternion search are raises, not asserts, so they
    # hold under `python -O` too.
    monkeypatch.setattr(wedderburn, "_as_scalar", lambda b, x: None)
    text, code = run_report("decompose", order_arg("lipschitz"))
    assert code == 1
    error = json.loads(text)["report"]["error"]
    assert error["type"] == "CertificateFailure"
    assert "not scalar" in error["message"]


def test_unsaturated_minimal_prime_fails_its_certificate(monkeypatch):
    # Twice each prime's lattice is an ideal, but not a saturated one. The
    # check is a raise, not an assert, so it holds under `python -O` too.
    original = embeddings.lattice_intersect_subspace

    def doubled(lat, sub):
        meet = original(lat, sub)
        return Lattice.from_rows(meet.ambient, [[2 * x for x in row] for row in meet.basis])

    monkeypatch.setattr(embeddings, "lattice_intersect_subspace", doubled)
    text, code = run_report("min-primes", order_arg("crt"))
    assert code == 1
    error = json.loads(text)["report"]["error"]
    assert error["type"] == "CertificateFailure"
    assert "not saturated" in error["message"]


def certificate_error(text, code):
    assert code == 1
    error = json.loads(text)["report"]["error"]
    assert error["type"] == "CertificateFailure"
    return error["message"]


def test_projection_outside_its_block_fails_its_certificate(monkeypatch):
    # The first component's idempotent becomes the whole unit, so a central
    # projection leaves its block. The check is a raise, not an assert, so
    # it holds under `python -O` too.
    original = embeddings._product_decomposition

    def leaky(parts, *, name):
        dec = original(parts, name=name)
        first = replace(dec.components[0], idempotent=dec.parent.unit)
        return replace(dec, components=(first,) + dec.components[1:])

    monkeypatch.setattr(embeddings, "_product_decomposition", leaky)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-crt.json")])
    assert "leaves its own block" in certificate_error(text, code)


def test_redundant_component_after_reduction_fails_its_certificate(monkeypatch, tmp_path):
    # Z into M2(Q) x M2(Q) by scalars: either component alone is injective.
    # Each family projects to zero the first time it is tried, so the greedy
    # pass keeps both components and the irredundance re-check must object.
    m2 = matrix_algebra(2)
    doc = {
        "domain": order_to_doc(integers_order()),
        "codomain": [algebra_to_doc(m2)] * 2,
        "map": [["1", "0", "0", "1", "1", "0", "0", "1"]],
    }
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    original = embeddings._project_rows
    tried = set()

    def late(codomain, rows, keep):
        out = original(codomain, rows, keep)
        if tuple(keep) in tried:
            return out
        tried.add(tuple(keep))
        return MatQ.from_rows(tuple(tuple(0 * x for x in r) for r in out.rows))

    monkeypatch.setattr(embeddings, "_project_rows", late)
    text, code = run_report("minimize", ["--embedding", str(path)])
    assert "redundant after reduction" in certificate_error(text, code)


def test_minimization_that_does_not_shrink_fails_its_certificate(monkeypatch):
    # A step that hands back its own input would loop forever; the strict
    # shrink check stops it.
    original = embeddings.minimize_step

    def stalled(f, *args, **kwargs):
        return replace(original(f, *args, **kwargs), embedding=f)

    monkeypatch.setattr(embeddings, "minimize_step", stalled)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-scalar.json")])
    assert "did not shrink" in certificate_error(text, code)


def test_left_action_outside_the_commutant_fails_its_certificate(monkeypatch):
    # The step's endomorphism rings come back as zero matrices, so the left
    # action of the domain has no coordinates in them. `_simple_summands`
    # names its commutants "End" and keeps the true ones.
    original = embeddings.simple_commutant

    def zeroed(e, budget, *, name, seed=0):
        alg, comp, mats = original(e, budget, name=name, seed=seed)
        return alg, comp, mats if name == "End" else tuple(m.scale(0) for m in mats)

    monkeypatch.setattr(embeddings, "simple_commutant", zeroed)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-crt.json")])
    assert "does not commute" in certificate_error(text, code)


def test_collection_embedding_that_is_not_natural_fails_its_certificate(monkeypatch):
    # In the kept product (named "<codomain>.min") the right annihilator of
    # each prime's image becomes everything, not just its matched block.
    original = embeddings.right_annihilator

    def widened(a, s):
        return Subspace.full(a.dim) if a.name.endswith(".min") else original(a, s)

    monkeypatch.setattr(embeddings, "right_annihilator", widened)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-crt.json")])
    assert "not natural" in certificate_error(text, code)


def test_carriers_that_overfill_their_component_fail_its_certificate(monkeypatch):
    # Each ladder lists its last factor twice, so one component stacks more
    # carrier rows than it has dimensions.
    original = embeddings.bimodule_ladder

    def repeated(*args, **kwargs):
        ladder = original(*args, **kwargs)
        return replace(ladder, factors=ladder.factors + ladder.factors[-1:])

    monkeypatch.setattr(embeddings, "bimodule_ladder", repeated)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-crt.json")])
    assert "do not fill their component" in certificate_error(text, code)


def with_ladder_factors(monkeypatch, change):
    """Pass every factor of every ladder through change(order, factor)."""
    original = embeddings.bimodule_ladder

    def changed(order, *args, **kwargs):
        ladder = original(order, *args, **kwargs)
        return replace(ladder, factors=tuple(change(order, fac) for fac in ladder.factors))

    monkeypatch.setattr(embeddings, "bimodule_ladder", changed)


def test_annihilators_that_do_not_meet_in_zero_fail_their_certificate(monkeypatch):
    # Every factor claims the whole order as its annihilator.
    def whole(order, fac):
        return replace(fac, annihilator=replace(fac.annihilator, lattice=Lattice.standard(order.rank)))

    with_ladder_factors(monkeypatch, whole)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-crt.json")])
    assert "do not intersect to zero" in certificate_error(text, code)


class BorrowedLattice:
    """An annihilator that shows another one's lattice and keeps its own span."""

    def __init__(self, own, lattice):
        self.own, self.lattice, self.saturated = own, lattice, True

    def span(self):
        return self.own.span()


def test_equal_kept_annihilators_fail_their_certificate(monkeypatch):
    # The spans still meet in zero and pick one factor per prime, but every
    # kept factor shows the first annihilator's lattice.
    original = embeddings._annihilator_ideal
    first = []

    def borrowed(order, left_mats):
        ideal = original(order, left_mats)
        first.append(ideal.lattice)
        return BorrowedLattice(ideal, first[0])

    monkeypatch.setattr(embeddings, "_annihilator_ideal", borrowed)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-crt.json")])
    assert "two kept annihilators are equal" in certificate_error(text, code)


def test_annihilators_that_are_not_the_minimal_primes_fail_their_certificate(monkeypatch):
    # Twice each annihilator has the same span, so the kept family is the
    # same, but its lattices are not the minimal primes.
    original = embeddings._annihilator_ideal

    def doubled(order, left_mats):
        ideal = original(order, left_mats)
        rows = [[2 * x for x in row] for row in ideal.lattice.basis]
        return replace(ideal, lattice=Lattice.from_rows(order.rank, rows))

    monkeypatch.setattr(embeddings, "_annihilator_ideal", doubled)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-crt.json")])
    assert "do not enumerate the minimal primes" in certificate_error(text, code)


def test_matched_prime_that_acts_on_its_carrier_fails_its_certificate(monkeypatch):
    # Each basis element of the domain acts on every carrier as the identity,
    # so no nonzero prime annihilates one.
    def identities(order, fac):
        d = fac.carrier.dim
        return replace(fac, left_action=(MatQ.identity(d),) * order.rank)

    with_ladder_factors(monkeypatch, identities)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-crt.json")])
    assert "does not annihilate its carrier" in certificate_error(text, code)


def test_other_prime_without_full_image_fails_its_certificate(monkeypatch):
    # Each basis element of the domain acts on every carrier as zero, so the
    # unmatched primes have zero image.
    def zeros(order, fac):
        d = fac.carrier.dim
        return replace(fac, left_action=(MatQ.zeros(d, d),) * order.rank)

    with_ladder_factors(monkeypatch, zeros)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-crt.json")])
    assert "without full image" in certificate_error(text, code)


def test_carriers_larger_than_their_component_fail_their_certificate(monkeypatch):
    # Each factor claims a carrier three times its size, so the one kept
    # factor of M2(Q) claims 6 of its 4 dimensions. The check is a raise,
    # not an assert, so it holds under `python -O` too.
    def inflated(order, fac):
        return replace(fac, carrier=Subspace.full(3 * fac.carrier.dim))

    with_ladder_factors(monkeypatch, inflated)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-scalar.json")])
    assert "do not fit inside their component" in certificate_error(text, code)


def test_non_integral_carrier_length_fails_its_certificate(monkeypatch):
    # M2(Q) claims matrix size 3, so a 2-dimensional carrier of its 4
    # dimensions would have length 3/2.
    original = embeddings.resolve_split_status

    def size_three(comp, *args, **kwargs):
        comp = original(comp, *args, **kwargs)
        return replace(comp, split_status=replace(comp.split_status, matrix_size=3))

    monkeypatch.setattr(embeddings, "resolve_split_status", size_three)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-scalar.json")])
    assert "length is not integral" in certificate_error(text, code)


def with_end_size(monkeypatch, size):
    """The step's endomorphism rings claim matrix size `size`.

    `_simple_summands` names its commutants "End" and keeps the true ones.
    """
    original = embeddings.simple_commutant

    def resized(e, budget, *, name, seed=0):
        alg, comp, mats = original(e, budget, name=name, seed=seed)
        if name != "End":
            comp = replace(comp, split_status=replace(comp.split_status, matrix_size=size))
        return alg, comp, mats

    monkeypatch.setattr(embeddings, "simple_commutant", resized)


def test_endomorphism_size_other_than_the_length_fails_its_certificate(monkeypatch):
    # A length-1 carrier claims an endomorphism ring of matrix size 2, which
    # the total size 2 of M2(Q) still allows.
    with_end_size(monkeypatch, 2)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-scalar.json")])
    assert "differs from its length" in certificate_error(text, code)


def test_matrix_size_that_grows_fails_its_certificate(monkeypatch):
    # The kept endomorphism ring claims matrix size 3, more than the size 2
    # of the M2(Q) it comes from.
    with_end_size(monkeypatch, 3)
    text, code = run_report("minimize", ["--embedding", str(CORPUS / "demo-scalar.json")])
    assert "matrix size grew" in certificate_error(text, code)


def test_not_simple_verdict_without_a_witness_fails_its_certificate(monkeypatch):
    # Every module is declared not simple, with no proper submodule shown.
    monkeypatch.setattr(embeddings, "certify_simple_module",
                        lambda *args, **kwargs: SimplicityResult("not_simple", note="unshown"))
    text, code = run_report("classify", ["--embedding", str(CORPUS / "demo-scalar.json")])
    assert "carries no witness" in certificate_error(text, code)


def test_decompose_of_d4_constructs_a_bounded_number_of_fractions(monkeypatch):
    # The integer echelon is the stored form of every subspace; `Fraction`s
    # appear at the document boundary and in polynomial arithmetic. A change
    # may lower this bound, never raise it.
    made = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    text, code = run_report("decompose", order_arg("d4"))
    monkeypatch.undo()
    assert code == 0
    assert made[0] <= FRACTIONS_PER_DECOMPOSE_D4


def test_analyze_of_d4_constructs_a_bounded_number_of_fractions(monkeypatch):
    # Matrices are integer rows over one denominator, so `analyze`, which
    # multiplies, restricts and closes operators, builds `Fraction`s only
    # for documents and element vectors. A change may lower this bound,
    # never raise it.
    made = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    text, code = run_report("analyze", order_arg("d4"))
    monkeypatch.undo()
    assert code == 0
    assert made[0] <= FRACTIONS_PER_ANALYZE_D4


def test_reports_never_read_the_rational_table(monkeypatch):
    # The integer table is the stored form; only documents read `table`.
    def unreadable(self):
        raise AssertionError("rational table read outside the document boundary")

    monkeypatch.setattr(StructureAlgebra, "table", property(unreadable))
    text, code = run_report("analyze", order_arg("d4") + ["--seed", "0", "--budget", "1000"])
    assert code == 0
    assert text == (CORPUS / "golden" / "d4.analyze.json").read_text()
    _, code = run_report("classify", ["--embedding", str(CORPUS / "demo-crt.json")])
    assert code == 0


def test_budget_exhaustion_exits_two(tmp_path):
    hidden = quaternion_algebra(1, 3)
    doc = {
        "domain": order_to_doc(integers_order()),
        "codomain": [algebra_to_doc(hidden)],
        "map": [["1", "0", "0", "0"]],
    }
    path = tmp_path / "hidden.json"
    path.write_text(json.dumps(doc))
    out, code = run_json("classify", ["--embedding", str(path), "--budget", "0"])
    assert code == 2
    assert out["report"]["elementary"] is None
    out, code = run_json("minimize", ["--embedding", str(path), "--budget", "0"])
    assert code == 2
    assert out["report"]["error"]["type"] == "UnresolvedSimplicity"
    out, code = run_json("minimize", ["--embedding", str(path), "--budget", "1000"])
    assert code == 0
    assert out["report"]["final"]["codomain_dim"] == 1


# -- input errors ---------------------------------------------------------------------


def test_missing_file_exits_one():
    doc, code = run_json("analyze", order_arg("nosuch"))
    assert code == 1
    assert doc["report"]["error"]["type"] == "FileNotFoundError"


def test_malformed_json_exits_one(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    doc, code = run_json("analyze", ["--order", str(path)])
    assert code == 1
    assert "invalid JSON" in doc["report"]["error"]["message"]


def _zero_unit(doc):
    doc["unit"] = ["1/0"]


def _zero_table_entry(doc):
    doc["table"][0]["c"] = ["2/0"]


@pytest.mark.parametrize("command, role, corrupt", [
    ("decompose", "--algebra", _zero_unit),
    ("analyze", "--order", _zero_table_entry),
], ids=["algebra-unit", "order-table"])
def test_zero_denominators_exit_one(tmp_path, command, role, corrupt):
    doc = order_to_doc(integers_order())
    corrupt(doc)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    out, code = run_json(command, [role, str(path)])
    assert code == 1
    assert out["report"]["error"]["type"] == "ParseError"


def test_non_injective_embedding_exits_one(tmp_path):
    doc = {
        "domain": order_to_doc(integers_order()),
        "codomain": [algebra_to_doc(integers_order().coord_algebra)],
        "map": [["0"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out, code = run_json("classify", ["--embedding", str(path)])
    assert code == 1
    assert out["report"]["error"]["type"] == "ParseError"


# crt = Z[x]/(x^2 - 1) on the basis 1, x, into Q x Q: the rows are the images of
# 1 and x, and only 1 -> (1, 1), x -> (1, -1) (or its swap) is an injective ring map
@pytest.mark.parametrize("rows, message, unital, failing_pair", [
    ([["1", "0"], ["-1", "0"]], "map does not send the unit to the unit", False, None),
    ([["1", "1"], ["1", "2"]], "map is not multiplicative at basis pair (1, 1)", True, (1, 1)),
], ids=["non-unital", "non-multiplicative"])
def test_bad_ring_maps_exit_one(tmp_path, rows, message, unital, failing_pair):
    crt = json.loads((CORPUS / "crt.json").read_text())
    codomain = [algebra_to_doc(rational_algebra())] * 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"domain": crt, "codomain": codomain, "map": rows}))
    out, code = run_json("classify", ["--embedding", str(path)])
    assert code == 1
    assert out["report"]["error"] == {"type": "ParseError", "message": message}

    # the same matrix as a morphism out of the span of crt
    source = canonical_embedding(order_facts(load_order(crt)))
    target = load_embedding({"domain": crt, "codomain": codomain,
                             "map": [["1", "1"], ["1", "-1"]]})
    cert = MorphismCertificate(source, target, MatQ.from_rows(rows), "iso")
    ok, diag = verify_morphism(cert)
    assert not ok
    assert diag["unital"] is unital
    assert diag.get("failing_pair") == failing_pair


# -- output modes ---------------------------------------------------------------------


def test_text_format_renders_lines():
    text, code = run_report("min-primes", order_arg("crt") + ["--format", "text"])
    assert code == 0
    assert "command: min-primes" in text
    assert "semiprime: True" in text


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["quotient", *order_arg("z"), "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["command"] == "quotient"


# -- corpus verification --------------------------------------------------------------


def test_verify_passes_on_pristine_corpus():
    doc, code = run_json("verify", [])
    assert code == 0
    report = doc["report"]
    assert report["failed"] == 0 and report["unverified"] == 0
    assert report["passed"] == len(report["entries"])


def test_verify_passes_with_asserts_stripped():
    """`python -O` drops every assert, so no computation a report needs may hide in one."""
    env = dict(os.environ, PYTHONPATH=str(Path(ordembed.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-O", "-m", "ordembed", "verify"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    entries = json.loads(done.stdout)["report"]["entries"]
    assert [e["status"] for e in entries] == ["ok"] * 15


def test_verify_detects_golden_drift(tmp_path):
    drift = tmp_path / "corpus"
    shutil.copytree(CORPUS, drift)
    golden = drift / "golden" / "z.analyze.json"
    golden.write_text(golden.read_text().replace('"rank": 1', '"rank": 9', 1))
    doc, code = run_json("verify", ["--corpus", str(drift)])
    assert code == 1
    entry = next(e for e in doc["report"]["entries"] if e["name"] == "z")
    assert entry["status"] == "mismatch"
    assert entry["diff"].startswith("--- golden/z.analyze.json")


def test_verify_reports_missing_goldens(tmp_path):
    drift = tmp_path / "corpus"
    shutil.copytree(CORPUS, drift)
    (drift / "golden" / "c3.analyze.json").unlink()
    doc, code = run_json("verify", ["--corpus", str(drift)])
    assert code == 2
    entry = next(e for e in doc["report"]["entries"] if e["name"] == "c3")
    assert entry["status"] == "unverified"
