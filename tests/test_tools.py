"""Byte-identity checks: the corpus inputs and the report digests stay fixed.

A refactor that keeps every report byte passes both. A change that means to
alter reports regenerates the corpus with `python3 tools/build_corpus.py`
and the digest list with `python3 tools/report_digests.py > tests/report_digests.txt`.
"""

import sys
from pathlib import Path

from ordembed.cli import CORPUS_DIR, run_report

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import build_corpus  # noqa: E402
import report_digests  # noqa: E402


def test_corpus_inputs_are_rebuilt_byte_for_byte(tmp_path):
    orders = build_corpus.corpus_orders()
    docs = {name: build_corpus.order_to_doc(order) for name, order in orders.items()}
    docs.update(build_corpus.corpus_embeddings(orders))
    for name, doc in sorted(docs.items()):
        path = tmp_path / f"{name}.json"
        build_corpus.write_json(path, doc)
        assert path.read_bytes() == (CORPUS_DIR / f"{name}.json").read_bytes(), name


def test_report_digests_match_the_checked_in_list():
    lines = list(report_digests.digests(CORPUS_DIR, run_report))
    lines += report_digests.workload_digests(run_report)
    expected = (Path(__file__).parent / "report_digests.txt").read_text().splitlines()
    assert len(expected) == 184
    assert lines == expected
