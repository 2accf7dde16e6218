"""Print one digest line per report of the bundled corpus and the `embeddings` workload.

Run from anywhere:

    python3 tools/report_digests.py [--src DIR] > digests.txt

Each line is `command entry seed exit sha256`, where sha256 is the digest of
the report text exactly as `ordembed` emits it. The reports are:

* `analyze`, `criteria`, `quotient`, `min-primes` and `decompose --order` on
  the 12 corpus orders, and `classify` and `minimize` on the 3 corpus
  embeddings, each at seeds 0 and 7: 132 lines;
* the 26 operations of the benchmark's `embeddings` workload (`classify` and
  `minimize` on 13 generated embeddings `emb0`..`emb12`) built from workload
  seeds 0 and 7: 52 lines. The documents come from `perfbench/workloads.py`,
  which is imported and not changed, and are written to a temporary
  directory.

184 lines in all. Two checkouts produce the same reports exactly when `diff`
finds nothing between their outputs. `--src` names the directory that holds
the `ordembed` package to run (default: this checkout's `src`); the workload
documents always come from this checkout's `perfbench`.
"""

import argparse
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORDER_COMMANDS = ("analyze", "criteria", "quotient", "min-primes", "decompose")
EMBEDDING_COMMANDS = ("classify", "minimize")
SEEDS = (0, 7)


def _line(command: str, entry: str, seed: int, run_report, argv) -> str:
    text, code = run_report(command, argv)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"{command} {entry} {seed} {code} {digest}"


def digests(corpus: Path, run_report):
    manifest = json.loads((corpus / "manifest.json").read_text())
    entries = sorted(manifest["entries"], key=lambda e: e["name"])
    orders = [e["file"] for e in entries if e["input_role"] == "order"]
    embeddings = [e["file"] for e in entries if e["input_role"] == "embedding"]
    jobs = [(cmd, "--order", f) for cmd in ORDER_COMMANDS for f in orders]
    jobs += [(cmd, "--embedding", f) for cmd in EMBEDDING_COMMANDS for f in embeddings]
    for command, role, file in jobs:
        for seed in SEEDS:
            argv = [role, str(corpus / file), "--seed", str(seed)]
            yield _line(command, Path(file).stem, seed, run_report, argv)


def workload_digests(run_report):
    """Digests of the `embeddings` workload's operations, per workload seed in pass order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            for op in workloads.embeddings(Path(workdir), random.Random(seed)):
                entry = op.name.rpartition(".")[0]
                yield _line(op.command, entry, seed, run_report, op.argv)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from ordembed.cli import CORPUS_DIR, run_report

    for line in digests(CORPUS_DIR, run_report):
        print(line, flush=True)
    for line in workload_digests(run_report):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
