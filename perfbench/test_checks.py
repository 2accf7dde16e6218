"""Each report check accepts the program's own report and rejects a corrupted one.

    python3 -m pytest perfbench
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure  # noqa: E402
from ordembed.cli import run_report  # noqa: E402
from workloads import CORPUS  # noqa: E402


def _golden(name: str) -> dict:
    return json.loads((CORPUS / "golden" / name).read_text())["report"]


def _doc(name: str) -> dict:
    return json.loads((CORPUS / name).read_text())


def _analyze(name: str) -> dict:
    return _golden(f"{name}.analyze.json")


def _check_analyze(name: str, report: dict) -> None:
    checks.check_corpus_analyze(name, report, _doc(f"{name}.json"))


def test_program_reports_pass(tmp_path):
    for name in checks.CORPUS_COMPONENTS | dict.fromkeys(checks.CORPUS_NOT_SEMIPRIME):
        _check_analyze(name, _analyze(name))
    checks.check_final_embedding(_golden("demo-crt.minimize.json"), _doc("crt.json"))
    ops = [op for op in workloads.embeddings(tmp_path, random.Random(5))
           if op.name.startswith("emb10.")]  # Qi into M2(Qi) as scalars
    for op in ops:
        text, code = run_report(op.command, op.argv)
        assert code == 0
        op.verify(text)


def test_dropped_prime_is_rejected():
    report = _analyze("d4")
    report["minimal_primes"].pop()
    with pytest.raises(CheckFailure, match="number of minimal primes"):
        _check_analyze("d4", report)


def test_replaced_prime_is_rejected():
    report = _analyze("d4")
    primes = report["minimal_primes"]
    primes[0] = dict(primes[1])
    with pytest.raises(CheckFailure, match="do not meet in zero"):
        _check_analyze("d4", report)
    report = _analyze("d4")
    basis = report["minimal_primes"][4]["basis"]
    basis[0] = [2 * x for x in basis[0]]
    with pytest.raises(CheckFailure, match="not saturated"):
        _check_analyze("d4", report)
    report = _analyze("c4")
    report["minimal_primes"][2]["basis"] = [[1, 0, 0, 0], [0, 1, 0, 0]]
    with pytest.raises(CheckFailure, match="not a two-sided ideal"):
        _check_analyze("c4", report)


def test_final_map_not_multiplicative_is_rejected():
    report = _golden("demo-crt.minimize.json")
    report["final"]["embedding"]["map"][1] = ["-1", "2"]  # x -> (-1, 2), x^2 = 1 -> (1, 1)
    with pytest.raises(CheckFailure, match="not multiplicative"):
        checks.check_final_embedding(report, _doc("crt.json"))


def test_final_map_not_unital_is_rejected():
    report = _golden("demo-crt.minimize.json")
    report["final"]["embedding"]["map"][0] = ["1", "0"]  # 1 -> (1, 0)
    with pytest.raises(CheckFailure, match="not unital"):
        checks.check_final_embedding(report, _doc("crt.json"))


def test_final_codomain_larger_than_rank_is_rejected():
    report = _golden("demo-scalar.minimize.json")
    final = report["final"]
    final["embedding"]["codomain"] *= 2
    final["embedding"]["map"] = [row * 2 for row in final["embedding"]["map"]]
    final["component_dims"] *= 2
    final["codomain_dim"] *= 2
    with pytest.raises(CheckFailure, match="not the domain rank"):
        checks.check_final_embedding(report, _doc("z.json"))


@pytest.mark.parametrize("name, field, value", [
    ("s3", "dim", 2),
    ("s3", "kind", "quaternion_division"),
    ("lipschitz", "kind", "split"),
    ("lipschitz", "places", ["3", "inf"]),
])
def test_wrong_block_dimension_or_split_kind_is_rejected(name, field, value):
    report = _analyze(name)
    comp = max(report["decomposition"]["components"], key=lambda c: c["dim"])
    (comp if field == "dim" else comp["split"])[field] = value
    with pytest.raises(CheckFailure, match="differ from the known"):
        _check_analyze(name, report)


@pytest.mark.parametrize("name", checks.CORPUS_NOT_SEMIPRIME)
def test_witness_not_nilpotent_is_rejected(name):
    report = _analyze(name)
    report["radical_witness"] = [1] + [0] * (len(report["radical_witness"]) - 1)
    with pytest.raises(CheckFailure, match="not nilpotent"):
        _check_analyze(name, report)
