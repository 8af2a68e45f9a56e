"""Self-test of the benchmark at tiny size.

For every workload it runs one operation untraced twice and traced once, and
checks that every metric BENCHMARK.json names appears with its unit, that the
untraced report names every end-to-end figure, that the traced run prints a
layer line for every per-layer metric, that all outputs pass their check with
no failed operation, and that the work fingerprint is the same across the two
untraced invocations and the traced one.

    python3 bench/selftest.py

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

ATTACK_REPORT = ("attack_s_p50", "attacks_per_min", "flip_rate", "flip_s_p50",
                 "capped_ratio", "setup_s", "unit_ms", "peak_rss_mb", "failed_ratio")
REPORT = {
    "grid-2px": ATTACK_REPORT,
    "deep-1px": ATTACK_REPORT,
    "smt-1px": ATTACK_REPORT,
    "shapley-8x8": ("influence_s_p50", "relevance_s_p50", "abstract_path_s",
                    "setup_s", "unit_ms", "peak_rss_mb", "failed_ratio"),
}


def invoke(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    unknown = {w["name"] for w in spec["workloads"]} - set(REPORT)
    if unknown:
        errors.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    for workload, report_names in REPORT.items():
        fingerprints = []
        for trace in (0, 0, 1):
            result, lines = invoke(workload, trace)
            where = f"{workload} trace={trace}"
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if units != expected[trace]:
                errors.append(f"{where}: metrics {units} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: {json.dumps(result)[:300]}")
            reported = {line.split()[1] for line in lines if line.startswith("report ")}
            missing = set(report_names) - reported
            if missing and trace == 0:
                errors.append(f"{where}: report lacks {sorted(missing)}")
            layers = {line.split()[1] for line in lines if line.startswith("layer ")}
            if trace == 1 and layers != set(tracing.PER_LAYER_UNITS):
                errors.append(f"{where}: layer lines differ from the per-layer table")
            fingerprints += [line for line in lines if line.startswith("fingerprint ")]
        if len(set(fingerprints)) != 1 or len(fingerprints) != 3:
            errors.append(f"{workload}: fingerprints differ: {fingerprints}")
        print(f"{workload}: {fingerprints[0] if fingerprints else 'no fingerprint'}")
    for error in errors:
        print("FAIL", error)
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
