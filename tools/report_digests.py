"""Print one digest line per report of the bundled corpus, for byte-identity checks.

Run from anywhere:

    python3 tools/report_digests.py [--src DIR] > digests.txt

Each line is `command entry seed exit sha256`, where sha256 is the digest of
the report text exactly as `ordembed` emits it. The reports are `analyze`,
`criteria`, `quotient`, `min-primes` and `decompose --order` on the 12 corpus
orders, and `classify` and `minimize` on the 3 corpus embeddings, each at
seeds 0 and 7: 132 lines. Two checkouts produce the same reports exactly when
`diff` finds nothing between their outputs. `--src` names the directory that
holds the `ordembed` package to run (default: this checkout's `src`).
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORDER_COMMANDS = ("analyze", "criteria", "quotient", "min-primes", "decompose")
EMBEDDING_COMMANDS = ("classify", "minimize")
SEEDS = (0, 7)


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
            text, code = run_report(command, argv)
            digest = hashlib.sha256(text.encode()).hexdigest()
            yield f"{command} {Path(file).stem} {seed} {code} {digest}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from ordembed.cli import CORPUS_DIR, run_report

    for line in digests(CORPUS_DIR, run_report):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
