#!/usr/bin/env python3
"""One sha256 over a workload's traces, results and prompts, for byte-identity checks.

    python3 tools/same_traces.py SRC_DIR --workload qa_hub --seed 101 --items 1500

``SRC_DIR`` is the directory that holds the ``groundedqa`` package (the
``src`` directory of a checkout). The workload comes from this checkout's
``bench/datagen.py``, and ``bench/responder.py`` answers it; both are only
imported. Each dataset file runs through ``run_eval`` (the baseline for
``baseline_rr``) in a temporary directory. The hash covers every prompt
sent to the responder, in order, and for every item its ``results.jsonl``
line without the ``trace`` path, which names the temporary directory,
followed by its trace file's bytes. Two source trees that print the same
hash for a workload, seed and item count gave the same prompts, answers and
trace bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class _HashingBackend:
    """Feeds each request's role and prompt to ``digest``, then asks ``backend``."""

    def __init__(self, backend, digest):
        self.backend, self.digest = backend, digest

    def complete(self, request):
        self.digest.update(f"{request.role}\n{request.rendered_prompt}\n".encode("utf-8"))
        return self.backend.complete(request)


def same_traces(src_dir: Path, workload: str, seed: int, items: int) -> tuple[str, int]:
    """The hex digest of one run and the number of items it hashed."""
    for path in (str(ROOT / "bench"), str(src_dir)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import datagen
    import groundedqa as gq
    from responder import RuleResponder

    if Path(gq.__file__).resolve().parent != (src_dir / "groundedqa").resolve():
        raise SystemExit(f"error: imported groundedqa from {gq.__file__}, not {src_dir}")
    digest = hashlib.sha256()
    hashed = 0
    with tempfile.TemporaryDirectory() as tmp:
        gen = datagen.generate(workload, seed, Path(tmp) / "data", n_items=items)
        kg = gq.KnowledgeGraph.load(gen.kg_file, gen.labels_file)
        backend = _HashingBackend(RuleResponder(gen.plans), digest)
        embedder = gq.HashedEmbedder()
        for i, dataset in enumerate(gen.dataset_files):
            out = Path(tmp) / f"out_{i:04d}"
            gq.run_eval(dataset, kg, backend, embedder, gq.SearchConfig(), out_dir=out,
                        baseline=workload == "baseline_rr")
            for line in (out / "results.jsonl").read_text(encoding="utf-8").splitlines():
                result = json.loads(line)
                trace = Path(result.pop("trace"))
                digest.update(json.dumps(result, sort_keys=True).encode("utf-8") + b"\n")
                digest.update(trace.read_bytes())
                hashed += 1
    return digest.hexdigest(), hashed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("src_dir", type=Path, help="directory holding the groundedqa package")
    parser.add_argument("--workload", required=True, choices=(
        "qa_hub", "qa_sparse", "pref_eval", "baseline_rr"))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--items", type=int, default=1500)
    args = parser.parse_args(argv)
    hexdigest, hashed = same_traces(args.src_dir, args.workload, args.seed, args.items)
    print(f"{hexdigest}  {args.workload} seed {args.seed}, {hashed} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
