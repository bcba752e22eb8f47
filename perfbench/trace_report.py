"""Summarize a span file written by a traced run, per measured operation.

    python3 perfbench/trace_report.py .perfbench-work/trace-train.tsv

Only spans inside the traced operations (``bench.op``) count; set-up, gates
and warm-up are left out. For every span name it prints the number of calls
per operation, the mean inclusive time per call, and the self time per
operation, with the self time as a share of the operation's wall time.
"""

from __future__ import annotations

import sys
from collections import defaultdict

from tracer import self_times


def read_spans(path) -> list[list]:
    with open(path) as fh:
        next(fh)
        return [[name, float(start), float(end), int(parent)]
                for _, name, start, end, parent in (line.rstrip("\n").split("\t") for line in fh)]


def report(spans) -> str:
    own = self_times(spans)
    in_op = [False] * len(spans)
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        in_op[i] = name == "bench.op" or (parent >= 0 and in_op[parent])
        if in_op[i]:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own[i]
    n_ops = calls.pop("bench.op", 0)
    if not n_ops:
        return "no traced operations in this file"
    op_time = total.pop("bench.op") / n_ops
    lines = [f"{n_ops} operations, {op_time:.4f} s each on average",
             f"{'span':34s} {'calls/op':>9s} {'ms/call':>9s} {'self s/op':>10s} {'share':>7s}"]
    for name in sorted(total, key=lambda k: -self_s[k]):
        lines.append(
            f"{name:34s} {calls[name] / n_ops:9.1f} {1e3 * total[name] / calls[name]:9.3f}"
            f" {self_s[name] / n_ops:10.4f} {self_s[name] / n_ops / op_time:7.1%}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(report(read_spans(sys.argv[1])))
