"""Compare benchmark reports of a parent commit and a change.

    python3 perfbench/compare.py --base parent/*.json --new change/*.json

Each file is one ``run.py --report`` result (one workload, one seed).  For
every workload and metric on both sides this prints each side's median
and quartiles over its runs, the relative change of the medians, and for
end-to-end metrics a verdict against the bound in BENCHMARK.json:

  worse       the change's median is worse by more than the bound
  unresolved  the parent's own spread (IQR / median) exceeds the bound
  gain        the change wins at least 9 in 10 seed-matched pairs and the
              medians differ by more than the parent's IQR
  same        none of the above

Reports whose environment fingerprints differ (apart from the commit and
source hash) are flagged: their timings are not comparable.  Exits with 1
if any metric is worse or any fingerprint differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
IDENTITY_KEYS = {"git_commit", "source_sha256"}
QUALITY = ("error_rate", "purity_law_err", "recon_trace_distance")


def _load(paths) -> list:
    reports = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return reports


def _values(report) -> dict:
    values = {name: m["value"] for name, m in report["result"]["metrics"].items()}
    values.update((k, v) for k, v in report["quality"].items())
    values["error_rate"] = report["error_rate"]
    return values


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def fingerprint_flags(reports) -> list:
    flags = []
    keys = sorted({k for r in reports for k in r["fingerprint"]} - IDENTITY_KEYS)
    for key in keys:
        seen = {json.dumps(r["fingerprint"].get(key), sort_keys=True) for r in reports}
        if len(seen) > 1:
            flags.append(f"{key}: {' vs '.join(sorted(seen))}")
    return flags


def compare(base: list, new: list, spec: dict) -> tuple:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = dict({m["name"]: m["better"] for m in spec["per_layer"]},
                  **{m["name"]: m["better"] for m in spec["end_to_end"]},
                  **{q: "lower" for q in QUALITY})
    rows, worse = [], False
    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in groups:
        b_runs = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        n_runs = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        if not b_runs or not n_runs:
            rows.append(f"{workload} trace={trace}: missing on one side, skipped")
            continue
        b_vals = [_values(r) for r in b_runs]
        n_vals = [_values(r) for r in n_runs]
        for name in [k for k in b_vals[0] if all(k in v for v in b_vals + n_vals)]:
            bs = [v[name] for v in b_vals]
            ns = [v[name] for v in n_vals]
            b_med, n_med = statistics.median(bs), statistics.median(ns)
            sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
            change = (n_med - b_med) / b_med if b_med else 0.0
            verdict = ""
            if name in bounds:
                q1, q3 = _quartiles(bs)
                spread = (q3 - q1) / b_med if b_med else 0.0
                pairs = [(b, n) for rb, b in zip(b_runs, bs) for rn, n in zip(n_runs, ns)
                         if rb["seed"] == rn["seed"]]
                wins = sum(sign * (n - b) < 0 for b, n in pairs)
                if sign * change > bounds[name]["bound"]:
                    verdict, worse = "worse", True
                elif spread > bounds[name]["bound"]:
                    verdict = "unresolved"
                elif pairs and wins >= 0.9 * len(pairs) and abs(n_med - b_med) > q3 - q1:
                    verdict = f"gain ({wins}/{len(pairs)} pairs)"
                else:
                    verdict = "same"
            bq, nq = _quartiles(bs), _quartiles(ns)
            rows.append(f"{workload:16s} {name:46s} {b_med:12.6g} [{bq[0]:.4g}, {bq[1]:.4g}]"
                        f" -> {n_med:12.6g} [{nq[0]:.4g}, {nq[1]:.4g}] "
                        f"{100 * change:+7.2f}% {verdict}")
    return rows, worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="parent reports")
    parser.add_argument("--new", nargs="+", required=True, help="change reports")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    base, new = _load(args.base), _load(args.new)
    flags = fingerprint_flags(base + new)
    for flag in flags:
        print(f"FLAG fingerprints differ, timings are not comparable: {flag}")
    print(f"{'workload':16s} {'metric':46s} {'base median [q1, q3]':>28s} -> "
          f"{'new median [q1, q3]':>28s}  change verdict")
    rows, worse = compare(base, new, spec)
    print("\n".join(rows))
    return 1 if worse or flags else 0


if __name__ == "__main__":
    raise SystemExit(main())
