"""The benchmark's workloads: the operations of one pass and how to check them.

An operation is one `ordembed.cli.run_report` call. Each workload builder
writes the documents its operations read into a work directory and returns
the operations in pass order, each with the check its report must pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen


@dataclass
class Op:
    name: str
    command: str
    argv: list[str]
    check: Callable[[dict], None]  # raises checks.CheckFailure on the report body
    golden: Path | None = None  # a byte-for-byte copy the report must equal

    def verify(self, text: str) -> None:
        if self.golden is not None:
            checks.require(text == self.golden.read_text(),
                           f"{self.name}: report differs from its golden")
        try:
            self.check(json.loads(text)["report"])
        except checks.CheckFailure as exc:
            raise checks.CheckFailure(f"{self.name}: {exc}") from exc


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return str(path)


# -- corpus ----------------------------------------------------------------------------


CORPUS = Path(__file__).resolve().parent.parent / "src" / "ordembed" / "corpus"


def corpus(workdir: Path, rng: random.Random) -> list[Op]:
    """The 15 manifest entries of the bundled corpus, read in place; the seed orders them."""
    entries = json.loads((CORPUS / "manifest.json").read_text())["entries"]
    rng.shuffle(entries)
    ops = []
    for e in entries:
        path = CORPUS / e["file"]
        doc = json.loads(path.read_text())
        if e["command"] == "analyze":
            check = lambda r, n=e["name"], d=doc: checks.check_corpus_analyze(n, r, d)
        else:
            dom = json.loads((CORPUS / f"{doc['domain']}.json").read_text())
            check = lambda r, d=dom: checks.check_final_embedding(r, d)
        argv = [f"--{e['input_role']}", str(path),
                "--seed", str(e["seed"]), "--budget", str(e["budget"])]
        ops.append(Op(e["name"], e["command"], argv, check, CORPUS / "golden" / e["golden"]))
    return ops


# -- generated embeddings --------------------------------------------------------------

# Domain blocks and codomain placements: (block index, "copy" | "scalar").
# A scalar placement puts a block of dimension at most 2 into M2 of itself.
EMBEDDINGS = (
    (("Q", "Q"), ((0, "scalar"), (1, "scalar"))),
    (("M2",), ((0, "copy"), (0, "copy"))),
    (("H",), ((0, "copy"), (0, "copy"))),
    (("Q", "Qr2"), ((0, "scalar"), (1, "copy"), (1, "copy"))),
    (("Q", "M2"), ((0, "scalar"), (1, "copy"))),
    (("Q", "Q", "Qi"), ((0, "copy"), (1, "scalar"), (2, "copy"), (2, "copy"))),
    (("Qi", "Q"), ((0, "copy"), (0, "copy"), (1, "scalar"))),
    (("H", "Q"), ((0, "copy"), (1, "scalar"), (1, "copy"))),
    (("Qr2", "Q", "Q"), ((0, "copy"), (1, "copy"), (1, "copy"), (2, "scalar"))),
    (("M2", "Q"), ((0, "copy"), (0, "copy"), (1, "copy"))),
    (("Qi",), ((0, "scalar"),)),
    (("Q", "Q", "Q"), ((0, "copy"), (1, "copy"), (2, "copy"), (2, "copy"))),
    (("Qi", "Qr2"), ((0, "copy"), (1, "copy"), (1, "copy"))),
)


def embeddings(workdir: Path, rng: random.Random) -> list[Op]:
    """`classify` and `minimize` on each of EMBEDDINGS; the seed draws the domain bases.

    The codomain order is fixed: it decides which of two redundant
    components `reduce` keeps, and with it whether a minimize stage follows.
    """
    ops = []
    for idx, (names, placements) in enumerate(EMBEDDINGS):
        name = f"emb{idx}"
        blocks = [gen.BLOCKS[n] for n in names]
        built = gen.build_order(f"{name}.dom", blocks, rng)
        doc, codomain = gen.build_embedding(name, built, list(placements))
        _write(workdir / f"{name}.dom.json", built.doc)
        for ref, alg_doc in codomain.items():
            _write(workdir / f"{ref}.json", alg_doc)
        argv = ["--embedding", _write(workdir / f"{name}.json", doc)]
        ops.append(Op(f"{name}.classify", "classify", argv, checks.check_classify))
        ops.append(Op(f"{name}.minimize", "minimize", argv,
                      lambda r, d=built.doc: checks.check_final_embedding(r, d)))
    return ops


BUILDERS = {"corpus": corpus, "embeddings": embeddings}
