"""Command-line interface: exit codes, JSON shape, reproducibility."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qindlab
from qindlab import acceptance, cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_attack_exact_bz_reports_the_closed_form_rate(capsys):
    code, out, _ = run_cli(
        capsys,
        ["attack", "--name", "bz", "--scheme", "prf", "--m", "3",
         "--game", "fqind", "--mode", "exact", "--no-timing"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "attack"
    est = doc["results"]["estimate"]
    assert est["win_rate"] == pytest.approx(0.9375, abs=1e-10)
    assert est["method"] == "exact"
    assert doc["results"]["expected_win_rate"] == pytest.approx(0.9375)


def test_attack_game_mismatch_exits_2(capsys):
    code, out, err = run_cli(
        capsys,
        ["attack", "--name", "bz", "--scheme", "prf", "--m", "3", "--game", "qind"],
    )
    assert code == 2
    assert out == ""
    assert "bz requires fqind" in err


def test_attack_sampled_needs_a_seed(capsys, monkeypatch):
    monkeypatch.delenv("QINDLAB_SEED", raising=False)
    argv = ["attack", "--name", "qlp", "--scheme", "prf", "--m", "2", "--tau", "2",
            "--game", "qind", "--trials", "50"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "seed" in err
    monkeypatch.setenv("QINDLAB_SEED", "7")
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 7


def test_attack_sampled_qlp_wins_every_trial(capsys):
    code, out, _ = run_cli(
        capsys,
        ["attack", "--name", "qlp", "--scheme", "prf", "--m", "2", "--tau", "2",
         "--game", "qind", "--trials", "100", "--seed", "7", "--no-timing"],
    )
    assert code == 0
    est = json.loads(out)["results"]["estimate"]
    assert est["wins"] == 100
    assert est["method"] == "hoeffding"


def test_lemma_exact_output_is_byte_identical_across_runs(capsys):
    argv = ["lemma", "--m", "1", "--tau", "1", "--mode", "exact", "--no-timing"]
    code_a, out_a, _ = run_cli(capsys, argv)
    code_b, out_b, _ = run_cli(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    results = json.loads(out_a)["results"]
    assert results["vacuous"] is True
    assert results["satisfied"] is True
    assert results["chi_c_trace_norm"] == pytest.approx(0.5, abs=1e-10)


def test_lemma_sampled_run_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["lemma", "--m", "1", "--tau", "3", "--samples", "50", "--n-perm", "500",
         "--seed", "11", "--no-timing"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["bound"] == 0.5
    assert results["satisfied"] is True
    assert results["bound_kind"] == "taken-free"


def test_lemma_sampled_run_is_judged_by_the_exact_channel(capsys):
    code, out, _ = run_cli(
        capsys,
        ["lemma", "--m", "2", "--tau", "4", "--n-perm", "500", "--samples", "50",
         "--seed", "4", "--no-timing"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["exact_trace_distance"] < results["bound"] < results["max_trace_distance"]


def test_lemma_taken_outputs_flow_through(capsys):
    code, out, _ = run_cli(
        capsys,
        ["lemma", "--m", "1", "--tau", "3", "--taken", "3,6", "--samples", "20",
         "--n-perm", "300", "--seed", "2", "--no-timing"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["taken_count"] == 2
    assert results["bound_kind"] == "taken-excluded"


def test_lemma_exit_1_when_not_satisfied(capsys, monkeypatch):
    import dataclasses

    real = cli.channels.certify_corollary_bound

    def fake(*args, **kwargs):
        return dataclasses.replace(real(1, 1, samples=1), satisfied=False)

    monkeypatch.setattr(cli.channels, "certify_corollary_bound", fake)
    code, out, _ = run_cli(
        capsys, ["lemma", "--m", "1", "--tau", "1", "--mode", "exact", "--no-timing"]
    )
    assert code == 1
    assert json.loads(out)["results"]["satisfied"] is False


def test_secure_prp_within_bound(capsys):
    code, out, _ = run_cli(
        capsys,
        ["secure", "--scheme", "prp", "--m", "2", "--tau", "4", "--family", "ideal",
         "--game", "qind", "--trials", "400", "--seed", "3", "--no-timing"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["within_bound"] is True
    assert results["effective_bound"] == pytest.approx(0.25)
    assert results["taken_count"] == 0


def test_secure_learning_queries_grow_the_taken_count(capsys):
    code, out, _ = run_cli(
        capsys,
        ["secure", "--scheme", "prp", "--m", "2", "--tau", "4", "--q", "2",
         "--trials", "100", "--seed", "5", "--no-timing"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["taken_count"] == 2 * 1 * 4
    assert results["corollary_bound"] == pytest.approx(4 / (16 - 8 / 4))


def test_secure_block_scheme_with_entangled_probe(capsys):
    code, out, _ = run_cli(
        capsys,
        ["secure", "--scheme", "block", "--m", "2", "--tau", "4", "--mu", "2",
         "--game", "gqind", "--adversary", "entangled-blocks", "--trials", "60",
         "--seed", "8", "--no-timing"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["mu"] == 2
    assert results["effective_bound"] == pytest.approx(2 * 0.25)


def test_secure_adversary_game_mismatch_exits_2(capsys):
    code, _, err = run_cli(
        capsys,
        ["secure", "--scheme", "prp", "--m", "2", "--tau", "4",
         "--adversary", "entangled-blocks", "--game", "qind",
         "--trials", "10", "--seed", "1"],
    )
    assert code == 2
    assert "requires" in err


def test_secure_refuses_a_saturated_taken_set_before_any_trial(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("played trials for a bound that does not exist")

    monkeypatch.setattr(cli.games, "estimate_advantage", refuse)
    code, _, err = run_cli(
        capsys,
        ["secure", "--scheme", "prp", "--m", "2", "--tau", "1", "--q", "5",
         "--trials", "3000", "--seed", "1"],
    )
    assert code == 2
    assert "taken set saturates" in err


def test_equiv_reports_per_key_agreement(capsys):
    code, out, _ = run_cli(
        capsys,
        ["equiv", "--scheme", "prf", "--m", "2", "--tau", "2", "--keys", "8",
         "--seed", "5", "--no-timing"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results["per_key"]) == 8
    assert results["max_entrywise_deviation"] <= 1e-12
    assert results["passed"] is True


def test_equiv_rejects_oversized_parameters(capsys):
    code, _, err = run_cli(
        capsys, ["equiv", "--scheme", "prf", "--m", "4", "--tau", "2", "--seed", "1"]
    )
    assert code == 2
    assert "m, tau <= 3" in err


def test_suite_wiring_and_exit_codes(capsys, monkeypatch):
    def passing(seconds=(0.01, 0.02)):
        return lambda: [
            acceptance.CriterionResult(1, "one", True, seconds[0], {}),
            acceptance.CriterionResult(2, "two", True, seconds[1], {}),
        ]

    monkeypatch.setattr(cli.acceptance, "run_all", passing())
    code, out, _ = run_cli(capsys, ["suite", "--no-timing"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["all_passed"] is True
    assert len(results["criteria"]) == 2

    # wall-clock lives in the timing block only
    monkeypatch.setattr(cli.acceptance, "run_all", passing((1.5, 2.75)))
    code, slower, _ = run_cli(capsys, ["suite", "--no-timing"])
    assert code == 0
    assert slower == out
    code, timed, _ = run_cli(capsys, ["suite"])
    timing = json.loads(timed)["timing"]
    assert timing["criteria"] == [{"number": 1, "seconds": 1.5}, {"number": 2, "seconds": 2.75}]
    assert timing["total_seconds"] == 4.25

    def failing():
        return [acceptance.CriterionResult(1, "one", False, 0.01, {"error": "x"})]

    monkeypatch.setattr(cli.acceptance, "run_all", failing)
    code, out, _ = run_cli(capsys, ["suite", "--no-timing"])
    assert code == 1
    assert json.loads(out)["results"]["all_passed"] is False


def test_out_writes_the_document_to_a_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["attack", "--name", "bz", "--scheme", "prf", "--m", "2", "--game", "fqind",
         "--mode", "exact", "--no-timing", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["estimate"]["win_rate"] == pytest.approx(0.875, abs=1e-10)


def test_csv_flattens_config_and_results(capsys, tmp_path):
    import csv as csv_mod

    target = tmp_path / "row.csv"
    code, _, _ = run_cli(
        capsys,
        ["attack", "--name", "bz", "--scheme", "prf", "--m", "1", "--game", "fqind",
         "--mode", "exact", "--no-timing", "--csv", str(target)],
    )
    assert code == 0
    with open(target, newline="") as fh:
        rows = list(csv_mod.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["results.estimate.win_rate"]) == pytest.approx(0.75, abs=1e-10)
    assert rows[0]["config.m"] == "1"


def test_config_file_layers_under_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 50, "seed": 7}))
    argv = ["attack", "--name", "qlp", "--scheme", "prf", "--m", "1", "--tau", "1",
            "--game", "qind", "--config", str(cfg), "--no-timing"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["config"]["trials"] == 50
    code, out, _ = run_cli(capsys, argv + ["--trials", "25"])
    assert code == 0
    assert json.loads(out)["config"]["trials"] == 25


def test_config_file_rejects_unknown_keys_and_adversaries(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 5, "jobs": 4, "trails": 5}))
    code, out, err = run_cli(
        capsys,
        ["attack", "--name", "bz", "--game", "fqind", "--mode", "exact", "--config", str(cfg)],
    )
    assert code == 2
    assert out == ""
    assert "jobs, trails" in err
    # config values pass argparse's choices
    cfg.write_text(json.dumps({"adversary": "bz"}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["secure", "--seed", "1", "--config", str(cfg)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --adversary: invalid choice: 'bz'" in err


def test_config_file_values_pass_the_flag_choices(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    for argv, values in (
        (["secure", "--seed", "1", "--trials", "20"], {"family": "nope"}),
        (["secure", "--seed", "1", "--trials", "20"], {"scheme": "bogus"}),
        # secure takes only the prp and block schemes
        (["secure", "--seed", "1", "--trials", "20"], {"scheme": "prf"}),
        (["lemma", "--seed", "1"], {"mode": "nope"}),
    ):
        cfg.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(cfg)])
        assert exc.value.code == 2, values
        out, err = capsys.readouterr()
        assert out == ""
        (key, value), = values.items()
        assert f"argument --{key}: invalid choice: {value!r}" in err


@pytest.mark.parametrize(
    "values",
    [{"m": "x"}, {"trials": 2.5}, {"seed": "abc"}, {"force": "yes"}, {"seed": None}],
)
def test_config_values_of_the_wrong_type_exit_2(capsys, tmp_path, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    argv = ["attack", "--name", "qlp", "--game", "qind", "--mode", "exact", "--no-timing",
            "--config", str(cfg)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2, values
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_failed_output_writes_exit_2(capsys, tmp_path, flag):
    target = tmp_path / "missing" / "report"
    code, _, err = run_cli(
        capsys,
        ["attack", "--name", "bz", "--game", "fqind", "--mode", "exact", "--m", "1",
         "--no-timing", flag, str(target)],
    )
    assert code == 2
    assert err.startswith("error:")
    assert str(target) in err


def test_too_few_keys_for_distinct_keys_is_a_usage_error(capsys):
    # the identity family has a single key
    for argv in (
        ["attack", "--name", "qlp", "--scheme", "prp", "--family", "identity", "--m", "2",
         "--tau", "0", "--game", "qind", "--mode", "exact"],
        ["equiv", "--scheme", "prp", "--family", "identity", "--m", "1", "--tau", "1",
         "--seed", "1"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert "distinct keys requested" in err


def test_timing_key_is_present_unless_suppressed(capsys):
    argv = ["attack", "--name", "bz", "--scheme", "prf", "--m", "1", "--game", "fqind",
            "--mode", "exact"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert "timing" in json.loads(out)
    code, out, _ = run_cli(capsys, argv + ["--no-timing"])
    assert "timing" not in json.loads(out)


def test_bad_flag_values_exit_2_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["attack", "--name", "unknown", "--game", "qind"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["attack", "--name", "bz", "--game", "fqind", "--trials", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_no_subcommand_prints_usage_and_exits_2(capsys):
    code = cli.main([])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err.lower()


def test_wire_budget_is_checked_before_running(capsys):
    code, _, err = run_cli(
        capsys,
        ["attack", "--name", "bz", "--scheme", "prf", "--m", "5", "--tau", "5",
         "--game", "fqind", "--mode", "exact"],
    )
    assert code == 2
    assert "wires" in err


_OVER_WIDE = {
    # 2m + ell = 20 wires
    "fqind": ["attack", "--name", "bz", "--scheme", "prf", "--m", "5", "--tau", "5"],
    # ell = 15 wires
    "qind": ["attack", "--name", "qlp", "--scheme", "prf", "--m", "7", "--tau", "8"],
    "gqind": ["attack", "--name", "qlp", "--scheme", "prf", "--m", "7", "--tau", "8"],
}


@pytest.mark.parametrize("mode", ["sampled", "exact"])
@pytest.mark.parametrize("game", sorted(_OVER_WIDE))
def test_an_over_wide_attack_exits_2_with_empty_stdout(capsys, game, mode):
    argv = _OVER_WIDE[game] + ["--game", game, "--mode", mode, "--seed", "1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "wires" in err


@pytest.mark.parametrize(
    "argv",
    [
        # two 8-wire message registers: a 16-wire template
        ["attack", "--name", "qlp", "--scheme", "prf", "--m", "8", "--tau", "1",
         "--game", "gqind"],
        # two 8-wire message registers of four blocks each
        ["secure", "--scheme", "block", "--mu", "4", "--game", "gqind"],
    ],
)
def test_an_over_wide_gqind_template_exits_2_with_empty_stdout(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--seed", "1", "--trials", "10"])
    assert (code, out) == (2, "")
    assert "wires" in err


def test_exact_gqind_reports_the_qind_value_past_a_template_it_never_builds(capsys):
    # the exact evaluator scores the qind challenge: 9 wires at m = 8, tau = 1
    argv = ["attack", "--name", "qlp", "--scheme", "prf", "--m", "8", "--tau", "1",
            "--mode", "exact", "--no-timing"]
    estimates = []
    for game in ("gqind", "qind"):
        code, out, _ = run_cli(capsys, argv + ["--game", game])
        assert code == 0
        estimates.append(json.loads(out)["results"]["estimate"])
    assert estimates[0] == estimates[1]
    assert estimates[0]["win_rate"] == pytest.approx(1.0, abs=1e-12)


def test_lemma_above_the_dense_cap_exits_2_before_building(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built a channel above the dense cap")

    monkeypatch.setattr(cli.channels, "avg_permutation_channel", never)
    code, out, err = run_cli(capsys, ["lemma", "--m", "1", "--tau", "9", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert "certification needs 11 wires" in err


def test_exact_lemma_runs_past_the_dense_cap_without_building(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an exact run at m >= 2 built a channel")

    monkeypatch.setattr(cli.channels, "avg_permutation_channel", never)
    monkeypatch.setattr(cli.channels, "constant_mixed_channel", never)
    code, out, _ = run_cli(
        capsys, ["lemma", "--m", "2", "--tau", "8", "--mode", "exact", "--no-timing"]
    )
    assert code == 0
    results = json.loads(out)["results"]
    m, tau = 2, 8
    expected = 2 * (2**m - 1) / (2**m * 2 ** (m + tau))
    assert results["max_trace_distance"] == pytest.approx(expected, abs=1e-15)
    assert results["exact_trace_distance"] == pytest.approx(expected, abs=1e-15)
    assert results["satisfied"]


@pytest.mark.parametrize(
    "m, tau, message",
    [
        ("2", "13", "certification needs 15 wires; states are capped at 14"),
        ("1", "10", "dense matrices are capped at 10 wires"),
    ],
)
def test_exact_lemma_above_its_cap_exits_2(capsys, m, tau, message):
    code, out, err = run_cli(capsys, ["lemma", "--m", m, "--tau", tau, "--mode", "exact"])
    assert code == 2
    assert out == ""
    assert message in err


def test_exact_lemma_at_one_message_bit_runs_up_to_the_dense_cap(capsys):
    # only the (1 + tau)-wire coherence block is dense: 10 wires at tau = 9
    argv = ["lemma", "--m", "1", "--tau", "9", "--mode", "exact", "--no-timing"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    results = json.loads(out)["results"]
    m, tau = 1, 9
    expected = 2 * (2**m - 1) / (2**m * 2 ** (m + tau))
    assert expected == 2.0**-10
    assert results["exact_trace_distance"] == pytest.approx(expected, abs=1e-15)
    assert results["satisfied"]


def _declared_console_script():
    """The `qindlab` console-script entry point as the project declares it.

    An installed distribution's metadata wins; from a checkout the
    `[project.scripts]` table of `pyproject.toml` is read instead.
    """
    try:
        dist = importlib.metadata.distribution("qindlab")
    except importlib.metadata.PackageNotFoundError:
        pass
    else:
        for ep in dist.entry_points:
            if ep.group == "console_scripts" and ep.name == "qindlab":
                return ep
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qindlab"]
    return importlib.metadata.EntryPoint(
        name="qindlab", value=target, group="console_scripts"
    )


def test_console_script_round_trips():
    ep = _declared_console_script()
    # Start the target the way pip's wrapper script does, and the installed
    # script itself wherever there is one on PATH.
    commands = [[
        sys.executable, "-c",
        f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())",
    ]]
    script = shutil.which("qindlab")
    if script is not None:
        commands.append([script])
    env = dict(os.environ)
    import_root = str(Path(qindlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (import_root, env.get("PYTHONPATH")) if p
    )
    args = ["attack", "--name", "bz", "--scheme", "prf", "--m", "1",
            "--game", "fqind", "--mode", "exact", "--no-timing"]
    for command in commands:
        proc = subprocess.run(
            command + args,
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["results"]["estimate"]["win_rate"] == pytest.approx(0.75, abs=1e-10)


def test_module_entry_point_matches_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "qindlab.cli", "lemma", "--m", "1", "--tau", "1",
         "--mode", "exact", "--no-timing"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["satisfied"] is True


def test_readme_quick_tour_prints_what_it_promises():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ)
    import_root = str(Path(qindlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (import_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    bz, qlp, certificate = proc.stdout.splitlines()
    assert float(bz) == pytest.approx(0.875, abs=1e-12)
    assert float(qlp.split()[0]) == pytest.approx(1.0, abs=1e-12)
    distance, bound, satisfied = certificate.split()
    assert float(distance) == pytest.approx(0.25, abs=1e-12)
    assert float(bound) == pytest.approx(2.0, abs=1e-12)
    assert satisfied == "True"
