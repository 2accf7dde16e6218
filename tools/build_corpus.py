"""Regenerate the bundled corpus: inputs, manifest, and golden reports.

Run from the repository root after any change that affects report content:

    python3 tools/build_corpus.py

Inputs are rebuilt from the sample constructors, then every manifest entry is
recomputed through the same code path `ordembed verify` uses, so the goldens
are byte-identical to what verification will recompute.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ordembed.algebra import build_order, order_to_doc, product_algebra  # noqa: E402
from ordembed.cli import CORPUS_DIR, run_report  # noqa: E402
from ordembed.embeddings import build_embedding, embedding_to_doc  # noqa: E402
from ordembed.exact import PolyQ  # noqa: E402
from ordembed.linalg import MatQ  # noqa: E402
from ordembed.samples import (  # noqa: E402
    cyclic_group_algebra,
    dihedral4_group_algebra,
    integer_matrix_order,
    integers_order,
    lipschitz_order,
    matrix_algebra,
    poly_quotient_algebra,
    split_integers_order,
    symmetric3_group_algebra,
    upper_triangular_algebra,
)
from ordembed.wedderburn import decompose  # noqa: E402


def corpus_orders() -> dict:
    return {
        "z": integers_order(),
        "zxz": split_integers_order(2),
        "crt": build_order(
            poly_quotient_algebra(PolyQ.make([-1, 0, 1]), name="Q[x]/(x^2-1)"),
            name="Z[x]/(x^2-1)",
        ),
        "dual": build_order(
            poly_quotient_algebra(PolyQ.make([0, 0, 1]), name="Q[x]/(x^2)"),
            name="Z[x]/(x^2)",
        ),
        "m2z": integer_matrix_order(2),
        "t2z": build_order(upper_triangular_algebra(2), name="T2(Z)"),
        "c2": build_order(cyclic_group_algebra(2), name="ZC2"),
        "c3": build_order(cyclic_group_algebra(3), name="ZC3"),
        "c4": build_order(cyclic_group_algebra(4), name="ZC4"),
        "s3": build_order(symmetric3_group_algebra(), name="ZS3"),
        "d4": build_order(dihedral4_group_algebra(), name="ZD4"),
        "lipschitz": lipschitz_order(),
    }


def corpus_embeddings(orders: dict) -> dict:
    m2 = matrix_algebra(2)
    scalar = build_embedding(
        orders["z"], decompose(m2), MatQ.from_rows([m2.unit])
    )
    prod = product_algebra(
        [m2, m2], name="M2xM2", labels=[f"{s}.{side}" for side in "lr" for s in m2.basis_labels]
    )
    dec = decompose(prod)
    crt_demo = build_embedding(
        orders["crt"],
        dec,
        MatQ.from_rows([list(prod.unit), [1, 0, 0, 1, -1, 0, 0, -1]]),
    )
    split_demo = build_embedding(
        orders["zxz"],
        dec,
        MatQ.from_rows(
            [[1, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 1]]
        ),
    )
    return {
        "demo-scalar": embedding_to_doc(
            scalar,
            name="Z into M2(Q) by scalars",
            domain_ref="z",
            codomain_refs=["m2z"],
        ),
        "demo-crt": embedding_to_doc(
            crt_demo,
            name="Z[x]/(x^2-1) into M2(Q) x M2(Q)",
            domain_ref="crt",
            codomain_refs=["m2z", "m2z"],
        ),
        "demo-split": embedding_to_doc(
            split_demo,
            name="Z x Z block-diagonal in M2(Q) x M2(Q)",
            domain_ref="zxz",
            codomain_refs=["m2z", "m2z"],
        ),
    }


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n")


def main() -> None:
    corpus = CORPUS_DIR
    golden = corpus / "golden"
    corpus.mkdir(parents=True, exist_ok=True)
    golden.mkdir(exist_ok=True)

    orders = corpus_orders()
    entries = []
    for name, order in sorted(orders.items()):
        write_json(corpus / f"{name}.json", order_to_doc(order))
        entries.append(
            {
                "name": name,
                "file": f"{name}.json",
                "input_role": "order",
                "command": "analyze",
                "golden": f"{name}.analyze.json",
                "seed": 0,
                "budget": 1000,
            }
        )
    for name, doc in sorted(corpus_embeddings(orders).items()):
        write_json(corpus / f"{name}.json", doc)
        entries.append(
            {
                "name": name,
                "file": f"{name}.json",
                "input_role": "embedding",
                "command": "minimize",
                "golden": f"{name}.minimize.json",
                "seed": 0,
                "budget": 1000,
            }
        )

    write_json(corpus / "manifest.json", {"entries": entries})

    for entry in entries:
        argv = [
            f"--{entry['input_role']}",
            str(corpus / entry["file"]),
            "--seed",
            str(entry["seed"]),
            "--budget",
            str(entry["budget"]),
        ]
        text, code = run_report(entry["command"], argv)
        if code != 0:
            raise SystemExit(
                f"corpus entry {entry['name']} exited {code}; refusing to freeze"
            )
        (golden / entry["golden"]).write_text(text)
        print(f"{entry['name']}: {entry['command']} golden written")


if __name__ == "__main__":
    main()
