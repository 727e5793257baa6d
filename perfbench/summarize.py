"""Medians and quartiles of recorded benchmark runs.

    python3 perfbench/summarize.py [--trace 0|1]

Reads `.perfbench/runs.jsonl` (one record per run of perfbench/run.py) and
prints, per workload and metric, the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, the spread (interquartile
distance over the median), the seeds and the run count, as JSON.  Records
are grouped by code identity, `<src/pchgrav digest>/<perfbench digest>`.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RUNS_FILE = Path(__file__).resolve().parent.parent / ".perfbench" / "runs.jsonl"


def summarize(records, trace: int) -> dict:
    groups = defaultdict(list)
    for rec in records:
        fp = rec["fingerprint"]
        if fp["trace"] == trace:
            code = f"{fp['source_digest']}/{fp.get('bench_digest')}"
            groups[(code, fp["workload"])].append(rec)
    out = defaultdict(dict)
    for (code, workload), recs in sorted(groups.items()):
        metrics = defaultdict(list)
        for rec in recs:
            for name, m in rec["result"]["metrics"].items():
                metrics[name].append(m["value"])
        summary = {"runs": len(recs), "seeds": [r["fingerprint"]["seed"] for r in recs],
                   "correct": all(r["result"]["correct"] for r in recs),
                   "fingerprint": {k: v for k, v in recs[-1]["fingerprint"].items()
                                   if k not in ("seed", "workload", "trace")},
                   "metrics": {}}
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": (q3 - q1) / med if med else 0.0}
        out[code][workload] = summary
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    records = []
    with open(RUNS_FILE) as fh:
        for line in fh:
            try:
                records.append(json.loads(line))
            except ValueError:
                print(f"skipping unreadable record: {line[:60]!r}", file=sys.stderr)
    print(json.dumps(summarize(records, args.trace), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
