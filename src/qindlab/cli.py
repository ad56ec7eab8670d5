"""Command-line front end: seeded experiments with machine-readable output.

Subcommands: attack (run a named adversary in a chosen game), secure
(advantage of a probe against the permutation-based constructions, compared
to the applicable bound), lemma (channel-distance certification), equiv
(oracle interconversion comparison), suite (the full acceptance battery).

One JSON document per run on stdout (or --out). Everything in the document
is a pure function of the echoed config; wall-clock lives in a separate
"timing" key that --no-timing omits, so reruns are byte-comparable.
Exit codes: 0 pass, 1 bound or acceptance violation, 2 usage error. The
library checks its own inputs and size caps, so a request too wide to
simulate is the library's refusal, reported as a usage error.

Flag values beat --config file entries, which are read as the flags of the
same name and beat the flags' defaults; the effective values are echoed
under "config". QINDLAB_SEED serves as a
fallback seed; sampled runs refuse to start without one.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from typing import Callable

from . import __version__, acceptance, attacks, channels, games, schemes
from .games import GameSetupError

SCHEMA_VERSION = 1


class UsageError(ValueError):
    """Bad parameters or incompatible selections; maps to exit code 2."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


# --family name -> permutation family on (block bits, feistel rounds)
_FAMILIES: dict[str, Callable[[int, int], schemes.PermutationFamily]] = {
    "ideal": lambda bits, rounds: schemes.ideal_prp_family(bits),
    "feistel": lambda bits, rounds: schemes.feistel_prp_family(bits, rounds=rounds),
    "identity": lambda bits, rounds: schemes.identity_permutation_family(bits),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qindlab",
        description="Exact desk-scale experiments on quantum encryption oracles.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="experiment seed")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")
        p.add_argument("--csv", default=None, help="also write a flat CSV row here")
        p.add_argument(
            "--no-timing",
            action="store_true",
            help="omit the timing field for byte-identical reruns",
        )
        p.add_argument("--config", default=None, help="JSON file with default flag values")

    def scheme_flags(p: argparse.ArgumentParser, kinds: tuple[str, ...], tau: int) -> None:
        p.add_argument("--scheme", choices=kinds, default=kinds[0])
        p.add_argument("--m", type=_positive_int, default=2, help="message bits")
        p.add_argument("--tau", type=_nonnegative_int, default=tau, help="randomness bits")
        p.add_argument("--mu", type=_positive_int, default=1, help="block count")
        p.add_argument("--family", choices=tuple(_FAMILIES), default="ideal")
        p.add_argument("--rounds", type=_positive_int, default=4, help="feistel rounds")

    p_attack = sub.add_parser("attack", help="run a named adversary in a game")
    p_attack.add_argument("--name", choices=tuple(attacks.ATTACKS), required=True)
    p_attack.add_argument("--game", choices=games.GAME_NAMES, required=True)
    p_attack.add_argument("--mode", choices=("sampled", "exact"), default="sampled")
    p_attack.add_argument("--trials", type=_positive_int, default=1000)
    p_attack.add_argument(
        "--keys",
        type=_positive_int,
        default=4,
        help="keys drawn from the seed for exact mode: the value is exact for those keys and "
        "at most 8 r values, and is the key average only if the win rate ignores the key",
    )
    p_attack.add_argument(
        "--q", type=_nonnegative_int, default=0, help="learning queries to pad in"
    )
    p_attack.add_argument("--force", action="store_true")
    scheme_flags(p_attack, ("prf", "prp", "block"), tau=2)
    common(p_attack)

    p_secure = sub.add_parser("secure", help="probe a construction against its bound")
    p_secure.add_argument("--game", choices=("qind", "gqind"), default="qind")
    p_secure.add_argument("--adversary", choices=tuple(_SECURE_ADVERSARIES), default="qlp")
    p_secure.add_argument("--trials", type=_positive_int, default=5000)
    p_secure.add_argument("--q", type=_nonnegative_int, default=0, help="learning queries")
    scheme_flags(p_secure, ("prp", "block"), tau=4)
    common(p_secure)

    p_lemma = sub.add_parser("lemma", help="certify the channel-distance bound")
    p_lemma.add_argument("--m", type=_positive_int, default=1)
    p_lemma.add_argument("--tau", type=int, default=1)
    p_lemma.add_argument("--mode", choices=("sampled", "exact"), default="sampled")
    p_lemma.add_argument("--samples", type=_positive_int, default=None)
    p_lemma.add_argument("--n-perm", type=_positive_int, default=5000, dest="n_perm")
    p_lemma.add_argument(
        "--taken", type=_int_list, default=(), help="comma-separated taken outputs"
    )
    common(p_lemma)

    p_equiv = sub.add_parser("equiv", help="compare interconversion circuits")
    p_equiv.add_argument("--scheme", choices=("prf", "prp"), default="prf")
    p_equiv.add_argument("--m", type=_positive_int, default=1)
    p_equiv.add_argument("--tau", type=_nonnegative_int, default=1)
    p_equiv.add_argument("--keys", type=_positive_int, default=8)
    p_equiv.add_argument("--family", choices=tuple(_FAMILIES), default="ideal")
    p_equiv.add_argument("--rounds", type=_positive_int, default=4)
    common(p_equiv)

    p_suite = sub.add_parser("suite", help="run the full acceptance battery")
    common(p_suite)

    return parser


def _resolve_config(parser: argparse.ArgumentParser, argv: list[str]) -> dict:
    """flags > config file > defaults, echoed in full.

    Each config file entry is read as the flag of the same name, placed
    before the command line's own flags so those still win. The parser's
    types, choices and defaults then hold for both sources alike.
    """
    args = parser.parse_args(argv)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - (set(vars(args)) - {"command", "config"}))
        if unknown:
            raise UsageError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
        tokens = []
        for key, value in loaded.items():
            flag = "--" + key.replace("_", "-")
            if value is None:
                raise UsageError(f"config key {key} is null")
            if isinstance(getattr(args, key), bool):  # a store_true switch
                if not isinstance(value, bool):
                    raise UsageError(f"config key {key} takes true or false, not {value!r}")
                tokens += [flag] if value else []
            elif isinstance(value, list):
                tokens.append(f"{flag}={','.join(map(str, value))}")
            else:
                tokens.append(f"{flag}={value}")
        args = parser.parse_args([args.command] + tokens + argv[1:])
    return {k: v for k, v in vars(args).items() if k != "config"}


def _resolve_seed(cfg: dict, required: bool) -> int | None:
    seed = cfg.get("seed")
    if seed is None:
        env = os.environ.get("QINDLAB_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise UsageError(f"QINDLAB_SEED must be an integer, got {env!r}")
    if seed is None and required:
        raise UsageError("seed required for sampled mode (--seed or QINDLAB_SEED)")
    cfg["seed"] = seed
    return seed


def _build_scheme(cfg: dict) -> schemes.ClassicalScheme:
    kind = cfg["scheme"]
    m, tau, mu = cfg["m"], cfg["tau"], cfg["mu"]
    if kind != "block" and mu != 1:
        raise UsageError("mu applies to the block scheme only")
    if kind == "prf":
        return schemes.prf_scheme(m, tau)
    base = schemes.prp_scheme(m, tau, _FAMILIES[cfg["family"]](m + tau, cfg["rounds"]))
    if kind == "prp":
        return base
    return schemes.block_scheme(base, mu)


def cmd_attack(cfg: dict) -> tuple[dict, int]:
    name, game = cfg["name"], cfg["game"]
    attack = attacks.ATTACKS[name]
    if game not in attack.games:
        raise UsageError(f"{name} requires {'/'.join(attack.games)}")
    scheme = _build_scheme(cfg)
    strategy = attack(force=cfg["force"]) if name == "qlp" else attack()
    strategy = games.with_learning_queries(strategy, cfg["q"])
    expected = attack.expected_win_rate(scheme)
    if cfg["mode"] == "exact":
        if cfg["q"]:
            raise UsageError("learning-query padding is sampled-mode only")
        seed = _resolve_seed(cfg, required=False)
        estimate = games.exact_advantage(
            scheme, strategy, key_count=cfg["keys"], seed=seed if seed is not None else 0
        )
    else:
        seed = _resolve_seed(cfg, required=True)
        runner = games.GAME_RUNNERS[game]
        estimate = games.estimate_advantage(runner, scheme, strategy, cfg["trials"], seed)
    results = {
        "attack": name,
        "game": game,
        "scheme": scheme.name,
        "estimate": asdict(estimate),
        "expected_win_rate": None if expected is None else float(expected),
        "expected_win_rate_exact": None if expected is None else str(expected),
    }
    return results, 0


# secure --adversary name -> strategy built from the config
_SECURE_ADVERSARIES: dict[str, Callable[[dict], games.AdversaryStrategy]] = {
    "qlp": lambda cfg: attacks.qlp_distinguisher(force=True),
    "hadamard-bit": lambda cfg: attacks.hadamard_bit_distinguisher(),
    "random": lambda cfg: games.RandomGuesser(),
    "entangled-blocks": lambda cfg: attacks.EntangledBlockProbe(cfg["mu"]),
}


def cmd_secure(cfg: dict) -> tuple[dict, int]:
    scheme = _build_scheme(cfg)
    game = cfg["game"]
    name = cfg["adversary"]
    strategy = _SECURE_ADVERSARIES[name](cfg)
    if game not in strategy.games:
        raise UsageError(f"{name} requires {'/'.join(strategy.games)}")
    strategy = games.with_learning_queries(strategy, cfg["q"])
    seed = _resolve_seed(cfg, required=True)
    taken_count = cfg["q"] * cfg["mu"] * 2 ** cfg["m"]
    # a saturated taken set has no bound: refuse before playing any trial
    per_block = channels.corollary_bound(cfg["m"], cfg["tau"], taken_count)
    runner = games.GAME_RUNNERS[game]
    estimate = games.estimate_advantage(runner, scheme, strategy, cfg["trials"], seed)
    effective = cfg["mu"] * per_block
    ci_half_width = 2.0 * estimate.half_width
    within = abs(estimate.advantage) <= effective + ci_half_width
    results = {
        "adversary": strategy.name,
        "game": game,
        "scheme": scheme.name,
        "estimate": asdict(estimate),
        "q": cfg["q"],
        "mu": cfg["mu"],
        "taken_count": taken_count,
        "corollary_bound": per_block,
        "effective_bound": effective,
        "ci_half_width": ci_half_width,
        "within_bound": within,
    }
    return results, 0 if within else 1


def cmd_lemma(cfg: dict) -> tuple[dict, int]:
    m, tau, taken = cfg["m"], cfg["tau"], cfg["taken"]
    exact = cfg["mode"] == "exact"
    samples = cfg["samples"] if cfg.get("samples") is not None else (1 if exact else 500)
    cfg["samples"] = samples
    seed = _resolve_seed(cfg, required=(not exact) or samples > 1)
    n_perm = None if exact else cfg["n_perm"]
    report = channels.certify_corollary_bound(
        m, tau, taken, samples=samples, n_perm=n_perm, seed=seed
    )
    results = asdict(report)
    results["bound_kind"] = "taken-excluded" if taken else "taken-free"
    return results, 0 if report.satisfied else 1


def cmd_equiv(cfg: dict) -> tuple[dict, int]:
    import numpy as np

    from . import oracles

    m, tau = cfg["m"], cfg["tau"]
    if m > 3 or tau > 3:
        raise UsageError("equiv runs at m, tau <= 3")
    cfg["mu"] = 1
    scheme = _build_scheme(cfg)
    seed = _resolve_seed(cfg, required=True)
    keys = games.distinct_keys(scheme, cfg["keys"], np.random.default_rng(seed))
    r_values = list(range(2**tau)) if tau <= 2 else [0, 1, 2**tau - 1]
    per_key = []
    worst = 0.0
    for key in keys:
        # a mismatched permutation matrix differs by exactly 1 in some entry
        matches = [oracles.interconversions_match(scheme, key, r) for r in r_values]
        dev1 = float(not all(t1 for t1, _ in matches))
        dev2 = float(not all(t2 for _, t2 in matches))
        per_key.append(
            {"key": int(key), "type1_deviation": dev1, "type2_y0_deviation": dev2}
        )
        worst = max(worst, dev1, dev2)
    passed = worst <= 1e-12
    results = {
        "scheme": scheme.name,
        "keys": [int(k) for k in keys],
        "randomness_values": r_values,
        "per_key": per_key,
        "max_entrywise_deviation": worst,
        "passed": passed,
    }
    return results, 0 if passed else 1


def cmd_suite(cfg: dict) -> tuple[dict, int, dict]:
    outcomes = acceptance.run_all()
    total = sum(o.seconds for o in outcomes)
    within_time = total <= acceptance.SUITE_TIME_LIMIT
    all_passed = all(o.passed for o in outcomes) and within_time
    results = {
        "criteria": [
            {"number": o.number, "name": o.name, "passed": o.passed, "details": o.details}
            for o in outcomes
        ],
        "time_limit_seconds": acceptance.SUITE_TIME_LIMIT,
        "within_time_limit": within_time,
        "all_passed": all_passed,
    }
    # wall-clock stays out of results so --no-timing reruns are byte-identical
    timing = {
        "criteria": [{"number": o.number, "seconds": round(o.seconds, 3)} for o in outcomes],
        "total_seconds": round(total, 3),
    }
    return results, 0 if all_passed else 1, timing


_COMMANDS = {
    "attack": cmd_attack,
    "secure": cmd_secure,
    "lemma": cmd_lemma,
    "equiv": cmd_equiv,
    "suite": cmd_suite,
}


def _json_clean(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, set)):
        return list(value)
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _flatten(prefix: str, value, row: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}{k}." if prefix else f"{k}.", v, row)
        return
    key = prefix.rstrip(".")
    if isinstance(value, (list, tuple)):
        row[key] = json.dumps(value, default=_json_clean)
    else:
        row[key] = value


def _emit(doc: dict, cfg: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, default=_json_clean)
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    csv_path = cfg.get("csv")
    if csv_path:
        row: dict = {}
        _flatten("", {"config": doc["config"], "results": doc["results"]}, row)
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=sorted(row))
            writer.writeheader()
            writer.writerow(row)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if not argv:  # the top-level parser takes nothing but a command
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _resolve_config(parser, argv)
        start = time.perf_counter()
        results, code, *suite_timing = _COMMANDS[cfg["command"]](cfg)
        elapsed = time.perf_counter() - start
        echo = {k: v for k, v in cfg.items() if k not in ("out", "csv", "no_timing")}
        doc = {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "command": cfg["command"],
            "config": echo,
            "results": results,
        }
        if not cfg["no_timing"]:
            doc["timing"] = {"wall_seconds": round(elapsed, 6)}
            for extra in suite_timing:
                doc["timing"].update(extra)
        _emit(doc, cfg)
    except (UsageError, GameSetupError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
