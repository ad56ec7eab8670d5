"""The benchmark's tracer still installs on the package and traces a round.

``bench/tracing.py`` wraps package functions and methods by name, so deleting
or renaming one of them breaks ``bench/run.py --trace 1`` while every other
test and the untraced benchmark pass. This test installs both its probe and
layer spans in a fresh process, as ``bench/worker.py`` does, and plays a few
trials of each sampled game plus one sampled certificate under them.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = ["src", "bench"]
from qindlab import attacks, channels, cli, games, schemes  # noqa: F401
import tracing

rec = tracing.Recorder()
tracing.install_probes(rec)
tracing.install_layers(rec)


def round_():
    prf = schemes.prf_scheme(2, 2)
    prp = schemes.prp_scheme(2, 4, schemes.ideal_prp_family(6))
    for runner, scheme, strategy in (
        (games.run_fqind_qcpa, prf, attacks.bz_adversary()),
        (games.run_qind_qcpa, prf, attacks.qlp_distinguisher()),
        (games.run_gqind_qcpa, schemes.block_scheme(prp, 2), attacks.EntangledBlockProbe(2)),
    ):
        games.estimate_advantage(runner, scheme, strategy, trials=8, seed=17)
    channels.certify_lemma_bound(1, 2, samples=4, n_perm=50, seed=17)


rec.active = True
rec.wrap(tracing.ROOT, round_)()
rec.active = False
summary = tracing.summarize(rec)
print(json.dumps({
    "ops": [op[:3] + [op[4]] for op in rec.ops],
    "calls": {group: entry[0] for group, entry in summary["groups"].items()},
    "self_total_s": summary["self_total_s"],
    "round_s": rec.duration(0),
}))
"""


def test_tracer_installs_and_traces_every_game():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    kinds = [(kind, count, marked) for kind, _, count, marked in out["ops"]]
    assert kinds == [("fqind", 8, 8), ("qind", 8, 8), ("gqind", 8, 8), ("sampled", 1, 0)]
    calls = out["calls"]
    assert calls["games.trial"] == 24
    for group in ("schemes.gen", "schemes.enc", "quantum_core.prepare", "attacks.start",
                  "attacks.hooks", "games.estimate_advantage", "channels.certify"):
        assert calls.get(group, 0) > 0, group
    assert abs(out["self_total_s"] - out["round_s"]) <= 1e-6 * out["round_s"]
