"""Golden CLI documents: fixed commands must keep reproducing saved output.

Each file under golden/ is the --no-timing document of the command listed
for it here. Floats compare within 1e-12, every other value exactly.
"""

import json
import math
from pathlib import Path

import pytest

from qindlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "attack_bz_exact_m3": [
        "attack", "--name", "bz", "--game", "fqind", "--scheme", "prf", "--m", "3",
        "--mode", "exact",
    ],
    "attack_qlp_qind_prf_m2": [
        "attack", "--name", "qlp", "--game", "qind", "--scheme", "prf", "--m", "2",
        "--tau", "2", "--trials", "200", "--seed", "7",
    ],
    "secure_prp_m2_tau4": [
        "secure", "--scheme", "prp", "--m", "2", "--tau", "4", "--family", "ideal",
        "--game", "qind", "--trials", "500", "--seed", "3",
    ],
    "lemma_exact_m1_tau1": ["lemma", "--m", "1", "--tau", "1", "--mode", "exact"],
    "equiv_prf_m2_tau2": [
        "equiv", "--scheme", "prf", "--m", "2", "--tau", "2", "--keys", "8", "--seed", "5",
    ],
    "attack_qlp_gqind_prf_m2_exact": [
        "attack", "--name", "qlp", "--game", "gqind", "--scheme", "prf", "--m", "2",
        "--tau", "2", "--mode", "exact",
    ],
    "attack_hadamard_bit_gqind_prf_m1": [
        "attack", "--name", "hadamard-bit", "--game", "gqind", "--scheme", "prf",
        "--m", "1", "--tau", "2", "--trials", "300", "--seed", "9",
    ],
    "secure_entangled_blocks_mu2": [
        "secure", "--adversary", "entangled-blocks", "--scheme", "block", "--mu", "2",
        "--m", "2", "--tau", "4", "--game", "gqind", "--trials", "500", "--seed", "8",
    ],
    "lemma_sampled_m1_tau3": [
        "lemma", "--m", "1", "--tau", "3", "--samples", "50", "--n-perm", "500",
        "--seed", "11",
    ],
    "lemma_taken_sampled_m2_tau3": [
        "lemma", "--m", "2", "--tau", "3", "--taken", "3,17,22,30", "--samples", "4",
        "--n-perm", "500", "--seed", "2",
    ],
    "lemma_taken_exact_m2_tau2": [
        "lemma", "--m", "2", "--tau", "2", "--taken", "0,1,6,11,12,13,14,15",
        "--mode", "exact",
    ],
}


def mismatches(got, want, path="$"):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            found = sorted(got) if isinstance(got, dict) else got
            return [f"{path}: keys {found} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got} != {want}"]
        pairs = enumerate(zip(got, want))
        return [m for i, (g, w) in pairs for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        close = math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12)
        return [] if close else [f"{path}: {got} != {want}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)


def test_cli_documents_match_the_golden_files(capsys):
    problems = []
    for name, argv in COMMANDS.items():
        assert cli.main(argv + ["--no-timing"]) == 0, name
        got = json.loads(capsys.readouterr().out)
        want = json.loads((GOLDEN / f"{name}.json").read_text())
        problems += [f"{name} {m}" for m in mismatches(got, want)]
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(
    "name",
    [
        "attack_qlp_qind_prf_m2",
        "secure_entangled_blocks_mu2",
        "lemma_taken_sampled_m2_tau3",
        "equiv_prf_m2_tau2",
    ],
)
def test_config_file_entries_reproduce_the_flag_documents(capsys, tmp_path, name):
    argv = COMMANDS[name]
    kept, entries = argv[:1], {"no_timing": True}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag in ("--name", "--game"):
            kept += [flag, value]
        elif flag == "--taken":
            entries["taken"] = [int(t) for t in value.split(",")]
        else:
            entries[flag[2:].replace("-", "_")] = int(value) if value.isdigit() else value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    assert cli.main(argv + ["--no-timing"]) == 0
    from_flags = capsys.readouterr().out
    assert cli.main(kept + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == from_flags
