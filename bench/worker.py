"""One round of one workload in a fresh process; prints one JSON line.

Run by run.py as ``python3 bench/worker.py WORKLOAD SEED TRACE``
with the checkout root as the working directory. Set-up is the qindlab import
plus building the round's schemes, strategies and inputs. The round, the
workload's own work with the certificate groups it calls for, is one span;
the groups' operations are recorded apart from the rest, and the outputs are
checked afterwards.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qindlab
    from qindlab import cli  # noqa: F401  (loads every module the wrappers touch)

    import_s = time.perf_counter() - t0
    if SRC not in Path(qindlab.__file__).resolve().parents:
        print(f"error: qindlab imported from {qindlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing

    rec = tracing.Recorder()
    tracing.install_probes(rec)
    if trace:
        tracing.install_layers(rec)
    import workloads

    t1 = time.perf_counter()
    work = workloads.WORKLOADS[workload](seed)
    setup_s = import_s + time.perf_counter() - t1

    block: set[int] = set()  # indices of the certificate groups' operations

    def between() -> None:
        first = len(rec.ops)
        work.certificates.group()
        block.update(range(first, len(rec.ops)))

    rec.active = True
    rec.wrap(tracing.ROOT, work.run)(between)
    rec.active = False
    round_s = rec.duration(0)  # the root span is the first one recorded
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for kind, config, count, _, marked, _ in rec.ops:
        if kind not in tracing.CERTIFICATES and marked != count:
            # the slices rest on one call of the given runner per trial
            print(f"error: {kind} {config} ran {count} trials in {marked} runner calls", file=sys.stderr)
            return 3
    attempted, failed, problems = work.check()
    out: dict = dict(
        setup_s=setup_s,
        round_s=round_s,
        maxrss_mb=maxrss_mb,
        attempted=attempted,
        failed=failed,
        problems=problems,
        ops=[op for i, op in enumerate(rec.ops) if i not in block],
        certificates=[op for i, op in enumerate(rec.ops) if i in block],
        criteria={str(n): [rec.duration(i), ceiling] for n, ceiling, i in rec.criteria},
    )
    if trace:
        out["trace"] = summary = tracing.summarize(rec)
        if abs(summary["self_total_s"] - round_s) > 1e-6 * round_s:
            problems.append(f"self times add up to {summary['self_total_s']}, not {round_s}")
        SPANS_DIR.mkdir(exist_ok=True)
        tracing.write_spans(rec, SPANS_DIR / f"spans-{workload}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
