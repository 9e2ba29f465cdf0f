"""Freeze the reference outputs that ``run.py`` checks against.

    python3 perfbench/freeze.py

Runs every input of every workload's grid once, at both scales, with the
program in ``src/`` and writes the output digests to ``reference.json``.
Run it only on code whose outputs are the accepted reference.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, Program
from workloads import SCALES, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    gfm = Program()
    workdir = ROOT / ".bench_out" / "freeze"
    workdir.mkdir(parents=True, exist_ok=True)
    reference: dict = {}
    try:
        for scale in SCALES:
            for workload in WORKLOADS.values():
                frozen = reference.setdefault(scale, {}).setdefault(workload.name, {})
                for key, spec in workload.grid(scale).items():
                    output = workload.build(gfm, spec, workdir)()
                    digest, work, problems = workload.inspect(gfm, spec, output, workdir)
                    if problems:
                        print(f"{scale} {workload.name} {key}: {problems}", file=sys.stderr)
                        return 1
                    frozen[key] = digest
                    print(f"{scale} {workload.name} {key}: {work}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(_dump(reference) + "\n")
    return 0


def _dump(reference: dict) -> str:
    """JSON with one line per input, so a re-freeze diffs input by input."""
    scales = []
    for scale, workloads in sorted(reference.items()):
        blocks = []
        for name, digests in sorted(workloads.items()):
            lines = ",\n".join(f"   {json.dumps(key)}: {json.dumps(d, sort_keys=True)}" for key, d in sorted(digests.items()))
            blocks.append(f"  {json.dumps(name)}: {{\n{lines}\n  }}")
        scales.append(f" {json.dumps(scale)}: {{\n" + ",\n".join(blocks) + "\n }")
    return "{\n" + ",\n".join(scales) + "\n}"


if __name__ == "__main__":
    sys.exit(main())
