"""Acceptance suite: one criterion per test, timed, with a PASS line each.

Oracles here are either classical facts (group algebra decompositions,
Hilbert symbols) or values derived independently before the implementation
was written; nothing is read back from the code under test.
"""

import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from ordembed.algebra import build_order, is_regular, load_order
from ordembed.cli import CORPUS_DIR, corpus_verify, run_report
from ordembed.criteria import (
    centre_criterion,
    classical_quotient,
    embeddability_report,
    order_facts,
)
from ordembed.embeddings import (
    _check_ring_map,
    canonical_embedding,
    classify,
    load_embedding,
    localization_unit_check,
    minimal_primes,
    minimize_step,
    minimize_to_elementary,
    reduce_redundant,
    verify_morphism,
)
from ordembed.hilbert import hilbert_symbol
from ordembed.linalg import (
    Lattice,
    MatQ,
    lattice_intersect_subspace,
    rank,
    row_times_mat,
    vec,
)
from ordembed.samples import (
    dihedral4_group_algebra,
    cyclic_group_algebra,
    lipschitz_order,
    padded_split_embedding,
    planted_radical_instance,
    seeded_semiprime_order,
    symmetric3_group_algebra,
)
from ordembed.wedderburn import (
    commutant_matrices,
    decompose,
    operator_algebra,
    radical,
    resolve_all,
    semisimple_quotient,
)

F = Fraction
BUDGET = 1000

SEMIPRIME_CORPUS = (
    "z", "zxz", "crt", "m2z", "c2", "c3", "c4", "s3", "d4", "lipschitz",
)
DEMOS = ("demo-scalar", "demo-crt", "demo-split")


def _corpus_doc(name: str) -> dict:
    return json.loads((CORPUS_DIR / f"{name}.json").read_text())


def corpus_order(name: str):
    return load_order(_corpus_doc(name))


def corpus_embedding(name: str):
    return load_embedding(_corpus_doc(name), resolver=_corpus_doc)


@lru_cache(maxsize=None)
def demo_steps():
    steps = {}
    for name in DEMOS:
        f = corpus_embedding(name)
        steps[name] = minimize_step(f, minimal_primes(f.domain), BUDGET)
    return steps


def _passline(n: int, elapsed: float, limit: float, detail: str) -> None:
    assert elapsed < limit, f"criterion {n} took {elapsed:.2f}s, limit {limit}s"
    print(f"criterion {n}: PASS in {elapsed:.2f}s (limit {limit:.0f}s): {detail}")


def _intersects_to_zero(ambient: int, spans) -> bool:
    acc = Lattice.standard(ambient)
    for span in spans:
        acc = lattice_intersect_subspace(acc, span)
        if acc.rank == 0:
            return True
    return acc.rank == 0


# -- criterion 1: Wedderburn goldens --------------------------------------------------


def test_criterion_01_wedderburn_goldens():
    start = time.monotonic()

    c2 = decompose(cyclic_group_algebra(2))
    assert [c.algebra.dim for c in c2.components] == [1, 1]
    assert sorted(c.idempotent for c in c2.components) == [
        (F(1, 2), F(-1, 2)),
        (F(1, 2), F(1, 2)),
    ]

    s3 = resolve_all(decompose(symmetric3_group_algebra()), BUDGET)
    assert sorted(c.algebra.dim for c in s3.components) == [1, 1, 4]
    big = max(s3.components, key=lambda c: c.algebra.dim)
    assert big.split_status.kind == "split" and big.matrix_size == 2

    d4 = decompose(dihedral4_group_algebra())
    assert sorted(c.algebra.dim for c in d4.components) == [1, 1, 1, 1, 4]

    lip = resolve_all(decompose(lipschitz_order().coord_algebra), BUDGET)
    comp, = lip.components
    assert comp.split_status.kind == "quaternion_division"
    assert comp.split_status.places == (2, "inf")
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, "inf") == -1

    _passline(1, time.monotonic() - start, 5, "C2, S3, D4, Lipschitz goldens exact")


# -- criterion 2: planted radicals ----------------------------------------------------


def test_criterion_02_planted_radicals():
    start = time.monotonic()
    for seed in range(200):
        planted = planted_radical_instance(seed)
        assert planted.algebra.dim <= 8
        rad = radical(planted.algebra)
        assert rad == planted.radical, f"seed {seed}: wrong radical"
        quotient, _ = semisimple_quotient(planted.algebra)
        assert radical(quotient).dim == 0, f"seed {seed}: quotient not semisimple"
    _passline(2, time.monotonic() - start, 60, "200 planted radicals recovered exactly")


# -- criterion 3: minimization of the bundled demos -----------------------------------


def test_criterion_03_minimize_step_demos():
    start = time.monotonic()
    expected_sizes = {"demo-scalar": (2, 1), "demo-crt": (4, 2), "demo-split": (4, 2)}
    for name, step in demo_steps().items():
        ok_mono, diag_mono = verify_morphism(step.into_parent)
        ok_epi, diag_epi = verify_morphism(step.onto_selected)
        assert ok_mono, (name, diag_mono)
        assert ok_epi, (name, diag_epi)

        domain = step.collection.parent.domain
        primes = minimal_primes(domain)
        kept_anns = [e.prime.lattice.basis for e in step.collection.entries]
        assert sorted(kept_anns) == sorted(p.lattice.basis for p in primes)
        assert len(set(kept_anns)) == len(kept_anns) == len(primes)

        codomain = step.collection.parent.codomain
        for ci, comp in enumerate(codomain.components):
            kept_dim = sum(
                e.carrier.dim
                for e in step.collection.entries
                if e.component_index == ci
            )
            assert kept_dim <= comp.algebra.dim

        assert (step.source_size, step.target_size) == expected_sizes[name]
    _passline(3, time.monotonic() - start, 10,
              "three demos: certificates, bijection, proxy bound, s(B) <= s(A)")


# -- criterion 4: canonical embeddings are the elementary fixpoint --------------------


def test_criterion_04_fixpoint_and_elementariness():
    start = time.monotonic()
    for name in SEMIPRIME_CORPUS:
        order = corpus_order(name)
        facts = order_facts(order)
        sigma = canonical_embedding(facts)
        report = classify(sigma, facts.minimal_primes, BUDGET)
        assert report.natural and report.elementary is True, name
        chain = minimize_to_elementary(sigma, BUDGET)
        assert chain.steps == (), name
        assert chain.final is sigma

    scalar = corpus_embedding("demo-scalar")
    report = classify(scalar, minimal_primes(scalar.domain), BUDGET)
    assert report.natural is True and report.elementary is False
    witness = report.per_prime[0].witness
    comp = scalar.codomain.components[0]
    assert witness is not None and 0 < witness.dim < comp.algebra.dim
    parent = comp.algebra
    for w in witness.basis.rows:
        for i in range(scalar.domain.rank):
            row = [0] * scalar.domain.rank
            row[i] = 1
            moved = parent.mul(row_times_mat(vec(row), scalar.map), w)
            assert witness.coords_of(moved) is not None, "not left-stable"
        for j in range(parent.dim):
            moved = parent.mul(w, parent.basis_vec(j))
            assert witness.coords_of(moved) is not None, "not right-stable"

    chain = minimize_to_elementary(scalar, BUDGET)
    assert [kind for kind, _ in chain.steps] == ["minimize"]
    assert chain.final.codomain_dim == 1
    assert chain.final.map == MatQ.identity(1)
    _passline(4, time.monotonic() - start, 5,
              "sigma elementary on semiprime corpus; scalar demo drops to Q in one step")


# -- criterion 5: minimal primes and irredundant families -----------------------------


def test_criterion_05_minimal_prime_families():
    start = time.monotonic()
    for seed in range(100):
        order = seeded_semiprime_order(seed)
        primes = minimal_primes(order, seed=seed)
        spans = [p.lattice.span() for p in primes]
        n = order.rank
        assert _intersects_to_zero(n, spans)
        for i in range(len(primes)):
            rest = [s for j, s in enumerate(spans) if j != i]
            assert not _intersects_to_zero(n, rest), f"seed {seed}: prime {i} droppable"

        canon = sorted(p.lattice.basis for p in primes)
        for trial in range(50):
            rng = random.Random(seed * 997 + trial)
            family = list(spans)
            family += [spans[rng.randrange(len(spans))]
                       for _ in range(rng.randrange(3))]
            rng.shuffle(family)
            kept = list(family)
            order_of_attack = list(range(len(kept)))
            rng.shuffle(order_of_attack)
            for idx in sorted(order_of_attack, reverse=True):
                candidate = kept[:idx] + kept[idx + 1:]
                if _intersects_to_zero(n, candidate):
                    kept = candidate
            got = sorted(
                lattice_intersect_subspace(Lattice.standard(n), s).basis
                for s in kept
            )
            assert got == canon, f"seed {seed} trial {trial}: family differs"
    _passline(5, time.monotonic() - start, 120,
              "100 orders, 50 fuzzed irredundant families each, all equal min(R)")


# -- criterion 6: redundancy always reduced -------------------------------------------


def test_criterion_06_reduce_redundant():
    start = time.monotonic()
    for seed in range(100):
        emb = padded_split_embedding(seed)
        result = reduce_redundant(emb)
        assert result.dropped, f"seed {seed}: nothing dropped"
        assert reduce_redundant(result.embedding).dropped == ()
    _passline(6, time.monotonic() - start, 60,
              "100 padded embeddings reduced; results irredundant")


# -- criterion 7: localization units --------------------------------------------------


def test_criterion_07_localization_units():
    start = time.monotonic()
    for name in SEMIPRIME_CORPUS:
        order = corpus_order(name)
        facts = order_facts(order)
        sigma = canonical_embedding(facts)
        data = facts.centre
        rng = random.Random(hash(name) & 0xFFFF)
        elements = []
        while len(elements) < 20:
            coeffs = [rng.randint(-3, 3) for _ in range(data.rank)]
            z = tuple(int(x) for x in data.to_parent(coeffs))
            if is_regular(order, z):
                elements.append(z)
        assert localization_unit_check(sigma, elements, BUDGET) is True, name
    _passline(7, time.monotonic() - start, 30,
              "20 central regular denominators per corpus order all map to units")


# -- criterion 8: centre criterion agreement ------------------------------------------


def test_criterion_08_centre_criterion_agreement():
    start = time.monotonic()
    corpus_names = SEMIPRIME_CORPUS + ("dual", "t2z")
    for name in corpus_names:
        order = corpus_order(name)
        facts = order_facts(order)
        quotient = classical_quotient(facts)
        criterion = centre_criterion(facts)
        embed = embeddability_report(facts)
        assert quotient.semisimple == criterion.verdict == embed.verdict, name
        if criterion.verdict:
            alg = order.coord_algebra
            assert criterion.product_algebra.dim == alg.dim
            assert rank(criterion.product_iso) == alg.dim
            _check_ring_map(alg, criterion.product_algebra, criterion.product_iso)
            assert criterion.contraction_surjective, name
    _passline(8, time.monotonic() - start, 30,
              "verdicts agree on all 12 corpus orders; isos and surjections verified")


# -- criterion 9: double centralizer --------------------------------------------------


def test_criterion_09_double_centralizer():
    start = time.monotonic()
    for name, step in demo_steps().items():
        for entry in step.collection.entries:
            right = operator_algebra(entry.right_action, entry.carrier.dim)
            first = operator_algebra(
                commutant_matrices(right), entry.carrier.dim
            )
            second = operator_algebra(
                commutant_matrices(first), entry.carrier.dim
            )
            assert second.spanned == right.spanned, (name, entry.prime_index)
    _passline(9, time.monotonic() - start, 10,
              "commutant(commutant(right action)) equals the right action algebra")


# -- criterion 10: reproducibility ----------------------------------------------------


def test_criterion_10_reproducibility():
    start = time.monotonic()
    runs = [
        ("analyze", ["--order", str(CORPUS_DIR / "s3.json"), "--seed", "11"]),
        ("decompose", ["--algebra", str(CORPUS_DIR / "d4.json")]),
        ("min-primes", ["--order", str(CORPUS_DIR / "crt.json")]),
        ("minimize", ["--embedding", str(CORPUS_DIR / "demo-crt.json"),
                      "--seed", "7", "--budget", "500"]),
        ("classify", ["--embedding", str(CORPUS_DIR / "demo-split.json")]),
        ("quotient", ["--order", str(CORPUS_DIR / "dual.json")]),
        ("criteria", ["--order", str(CORPUS_DIR / "t2z.json")]),
    ]
    for command, argv in runs:
        first = run_report(command, argv)
        second = run_report(command, argv)
        assert first == second, f"{command} not byte-identical"
    summary, code = corpus_verify(Path(CORPUS_DIR))
    assert code == 0 and summary["failed"] == 0 and summary["unverified"] == 0
    _passline(10, time.monotonic() - start, 60,
              "reports byte-identical; corpus_verify pristine")
