"""Defect probe: the known slow or failing invocations, each run once in its
own subprocess, one at a time, and killed at a fixed timeout.

    python3 bench/run.py --probe

Each case reports its time, ``timeout`` or its exit code, and whether stderr
holds a traceback.  The probe is not a gated workload: it only shows where
the defects stand.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

TIMEOUT_S = 60

AFFINE_2_7_3 = {"kind": "affine-unitriangular", "params": {"p": 2, "k": 7, "m": 3}}
CASES = (
    ("construct sylow-wreath(2,5)",
     ["construct", "--blueprint", '{"kind":"sylow-wreath","params":{"p":2,"k":5}}'], None),
    ("bound --k 40 --c 8", ["bound", "--p", "2", "--k", "40", "--c", "8"], None),
    ("analyze affine-unitriangular(2,7,3)", ["analyze", "--group", "-"], AFFINE_2_7_3),
    ("search --k 0 --audit", ["search", "--p", "2", "--k", "0", "--audit"], None),
)


def run_case(src: Path, argv: list[str], stdin: str | None) -> dict:
    cmd = [sys.executable, "-c",
           "import sys; sys.path.insert(0, sys.argv[1]); from nilbound.cli import main; "
           "sys.exit(main(sys.argv[2:]))", str(src), *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        stderr = exc.stderr.decode() if isinstance(exc.stderr, bytes) else exc.stderr or ""
        return {"outcome": "timeout", "seconds": TIMEOUT_S, "traceback": "Traceback" in stderr}
    return {
        "outcome": proc.returncode,
        "seconds": time.perf_counter() - t0,
        "traceback": "Traceback" in proc.stderr,
        "stderr_tail": proc.stderr.strip().splitlines()[-1:] if proc.stderr.strip() else [],
    }


def probe(out_dir: Path) -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from nilbound import blueprint_from_json, realize

    results = {}
    for name, argv, blueprint in CASES:
        stdin = None
        if blueprint is not None:
            stdin = json.dumps(realize(blueprint_from_json(blueprint)).to_json())
        results[name] = run_case(src, argv, stdin)
        print(f"{name:40s} {json.dumps(results[name])}", flush=True)
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "probe.json", "w", encoding="utf-8") as fh:
        json.dump({"timeout_s": TIMEOUT_S, "cases": results}, fh, indent=1, sort_keys=True)
    print(json.dumps({"timeout_s": TIMEOUT_S, "cases": results}))
    return 0
