"""Byte-identity checks: the corpus inputs and the report digests stay fixed.

A refactor that keeps every report byte passes both. A change that means to
alter reports regenerates the corpus with `python3 tools/build_corpus.py`
and the digest list with `python3 tools/report_digests.py > tests/report_digests.txt`.
"""

import importlib.util
import json
import subprocess
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


def test_traced_benchmark_run_counts_every_target():
    # The smallest traced run: --seconds 0 still makes whole passes until the
    # tail percentile has its samples, and checks every report afterwards.
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "corpus",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    calls = {f"{t}.calls" for t in layers.TARGETS}
    assert calls <= set(result["metrics"])
    assert result["metrics"]["cli.run_report.calls"]["value"] == 15
