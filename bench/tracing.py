"""Spans around the package's public functions, installed from the benchmark.

The package is not modified. Wrappers replace each function or method at
every qindlab module that binds it (``from .quantum_core import ...`` copies
the name into games, attacks, oracles and channels), and in the module-level
dicts and tuples that hold it (``GAME_RUNNERS``, ``ALL_CRITERIA``).

A span records its name, parent, start and end in flat arrays kept in memory;
the worker writes them out when its round ends. A span's self time is its
duration minus the durations of its children. Calls are synchronous and
single-threaded, so children never overlap one another and always lie inside
their parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from array import array
from dataclasses import replace

ROOT = "bench.round"

# Metric groups with calls and self time. A span belongs to the group that
# equals its name or prefixes it followed by a dot.
TIMED_GROUPS = (
    "quantum_core.state_init",
    "quantum_core.density_init",
    "quantum_core.apply_unitary",
    "quantum_core.apply_basis_permutation",
    "quantum_core.measure",
    "quantum_core.prepare",
    "quantum_core.trace_norm",
    "schemes.gen",
    "schemes.enc",
    "schemes.completion",
    "oracles.build",
    "oracles.apply",
    "games.trial",
    "attacks.start",
    "attacks.hooks",
    "attacks.exact",
    "channels.build",
    "channels.apply",
)
# Groups reported by self time only.
SELF_GROUPS = (
    "games.estimate_advantage",
    "channels.certify",
    "acceptance",
    "cli",
)
GAMES = ("fqind", "qind", "gqind")
# operation kinds of the certify calls; every other kind is a game
CERTIFICATES = ("sampled", "exhaustive")
# trials per timed slice of an estimate_advantage call
SLICE = 8
CEILING_CRITERIA = (1, 2, 5)

_HOOKS = frozenset({"receive_challenge", "final_guess"})


def group_of(name: str) -> str | None:
    """The metric group a span name counts toward (None for the root)."""
    for group in TIMED_GROUPS + SELF_GROUPS:
        if name == group or name.startswith(group + "."):
            return group
    return None


class Recorder:
    """Spans in flat arrays plus the few counts that are not spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = False
        self.counts: dict[str, int] = {}
        # timed operations: [kind, config, count, wall_s, trials marked, slice seconds]
        self.ops: list[list] = []
        # trial end times of the operation in progress, or None
        self.marks: list[float] | None = None
        # (criterion number, runtime ceiling or None, span index)
        self.criteria: list[tuple[int, float | None, int]] = []
        self.keys: set = set()
        self._pairs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn, args, kwargs, after=None):
        """Run fn inside a span named by nid; ``after`` may replace the result."""
        if not self.active:
            return fn(*args, **kwargs)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()
        return result if after is None else after(i, args, kwargs, result)

    def wrap(self, name: str, fn, after=None):
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(nid, fn, args, kwargs, after)

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def in_span_named(self, i: int, name: str) -> bool:
        """True when span i's parent carries ``name``."""
        p = self.parent[i]
        return p >= 0 and self.names[self.name_id[p]] == name


def self_times(parent, start, end):
    """Per-span duration minus the summed durations of its direct children."""
    import numpy as np

    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    inner = parent >= 0
    covered = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
    return dur - covered


def summarize(rec: Recorder) -> dict:
    """Per-group calls and self seconds, and trial durations per game."""
    import numpy as np

    ids = np.frombuffer(rec.name_id, dtype=np.int32)
    selfs = self_times(rec.parent, rec.start, rec.end)
    calls = np.bincount(ids, minlength=len(rec.names))
    self_by_name = np.bincount(ids, weights=selfs, minlength=len(rec.names))
    groups: dict[str, list] = {}
    root_self = 0.0
    for nid, name in enumerate(rec.names):
        group = group_of(name)
        if group is None:
            root_self += float(self_by_name[nid])
            continue
        entry = groups.setdefault(group, [0, 0.0])
        entry[0] += int(calls[nid])
        entry[1] += float(self_by_name[nid])
    dur = np.frombuffer(rec.end) - np.frombuffer(rec.start)
    trial_ms = {}
    for game in GAMES:
        nid = rec._ids.get(f"games.trial.{game}")
        trial_ms[game] = [] if nid is None else (dur[ids == nid] * 1e3).tolist()
    return {
        "groups": groups,
        "root_self_s": root_self,
        "self_total_s": float(selfs.sum()),
        "spans": int(len(ids)),
        "trial_ms": trial_ms,
        "counts": dict(rec.counts),
        "distinct_keys": len(rec.keys),
    }


def write_spans(rec: Recorder, path) -> None:
    import numpy as np

    np.savez(
        path,
        names=np.array(rec.names),
        name_id=np.frombuffer(rec.name_id, dtype=np.int32),
        parent=np.frombuffer(rec.parent, dtype=np.int32),
        start=np.frombuffer(rec.start),
        end=np.frombuffer(rec.end),
    )


# -- installation ---------------------------------------------------------------


def _modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "qindlab" or name.startswith("qindlab."))
    ]


def rebind(original, replacement) -> None:
    """Point every qindlab binding of ``original`` at ``replacement``."""
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
            elif type(value) is tuple and any(v is original for v in value):
                setattr(mod, attr, tuple(replacement if v is original else v for v in value))


def _wrap_function(rec: Recorder, name: str, fn, after=None) -> None:
    rebind(fn, rec.wrap(name, fn, after))


def _wrap_method(rec: Recorder, name: str, cls, attr: str, after=None) -> None:
    setattr(cls, attr, rec.wrap(name, cls.__dict__[attr], after))


def _game_of(runner) -> str:
    from qindlab import games

    return next(game for game, fn in games.GAME_RUNNERS.items() if fn is runner)


def _operation(rec: Recorder, name: str, fn, describe) -> None:
    """Span plus an operation record: the call's wall time and its trial slices."""
    nid = rec.intern(name)

    @functools.wraps(fn)
    def op(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        outer, rec.marks = rec.marks, []
        marks = rec.marks
        start = time.perf_counter()
        try:
            result = rec.call(nid, fn, args, kwargs)
        finally:
            end = time.perf_counter()
            rec.marks = outer
        kind, config, count = describe(args, kwargs, result)
        rec.ops.append([kind, config, count, end - start, len(marks), trial_slices(marks)])
        return result

    rebind(fn, op)


def trial_slices(marks: list[float]) -> list[float]:
    """Durations of whole slices of SLICE consecutive trials.

    ``marks`` are the trials' end times. The first trial, which also carries
    the call's set-up, and the trials after the last whole slice are left out.
    """
    return [marks[j + SLICE] - marks[j] for j in range(0, len(marks) - SLICE, SLICE)]


def _mark_trials(rec: Recorder, runner) -> None:
    """Stamp the end of every trial: each call of a game runner."""

    @functools.wraps(runner)
    def marked(*args, **kwargs):
        result = runner(*args, **kwargs)
        if rec.marks is not None:
            rec.marks.append(time.perf_counter())
        return result

    rebind(runner, marked)


def install_probes(rec: Recorder) -> None:
    """What the end-to-end metrics need; installed in every run.

    Operations are estimate_advantage calls, whose trials are marked at the
    runner they are given, and certify calls. Criteria are timed for their
    headroom.
    """
    from qindlab import acceptance, channels, games

    signature = inspect.signature(games.estimate_advantage)

    def describe_game(args, kwargs, result):
        call = signature.bind(*args, **kwargs).arguments
        config = [call["scheme"].name, call["strategy"].name]
        return _game_of(call["runner"]), config, int(result.trials)

    def describe_certificate(args, kwargs, result):
        kind = "exhaustive" if result.n_perm is None else "sampled"
        config = [result.message_bits, result.tau, result.taken_count, result.samples, result.n_perm]
        return kind, config, 1

    def note_criterion(i, args, kwargs, result):
        ceiling = result.details.get("runtime_limit_seconds")
        rec.criteria.append((int(result.number), ceiling, i))
        return result

    for runner in set(games.GAME_RUNNERS.values()):
        _mark_trials(rec, runner)
    _operation(rec, "games.estimate_advantage", games.estimate_advantage, describe_game)
    for fn in (channels.certify_lemma_bound, channels.certify_corollary_bound):
        _operation(rec, "channels.certify", fn, describe_certificate)
    for number, fn in enumerate(acceptance.ALL_CRITERIA, start=1):
        _wrap_function(rec, f"acceptance.c{number:02d}", fn, note_criterion)


class _TracedTrial:
    """Per-trial adversary whose challenge hooks run inside spans."""

    __slots__ = ("_inner", "_rec", "_nid")

    def __init__(self, inner, rec: Recorder, nid: int) -> None:
        self._inner = inner
        self._rec = rec
        self._nid = nid

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if name in _HOOKS or name.endswith("_template"):
            rec, nid = self._rec, self._nid

            def hook(*args, **kwargs):
                return rec.call(nid, value, args, kwargs)

            return hook
        return value


def _strategy_classes(base) -> list:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def install_layers(rec: Recorder) -> None:
    """Spans for every per-layer metric; installed only in traced runs."""
    from qindlab import acceptance, channels, cli, games, oracles, schemes
    from qindlab import quantum_core as qc

    for cls, name in ((qc.StateVector, "state_init"), (qc.DensityMatrix, "density_init")):
        _wrap_method(rec, f"quantum_core.{name}", cls, "__post_init__")
    functions = {
        "quantum_core.apply_unitary": (qc.apply_unitary,),
        "quantum_core.apply_basis_permutation": (qc.apply_basis_permutation,),
        "quantum_core.measure": (qc.measure_computational, qc.measure_and_remove),
        "quantum_core.prepare": (qc.run_gates, qc.sample_description, qc.append_wires, qc.zero_state),
        "quantum_core.trace_norm": (qc.trace_norm,),
        "oracles.build": (
            oracles.type1_unitary,
            oracles.type1_decryption_unitary,
            oracles.type2_unitary,
            oracles.type1_from_type2,
            oracles.type2_from_type1,
        ),
        "channels.build": (channels.avg_permutation_channel, channels.constant_mixed_channel),
        "channels.apply": (channels.apply_channel_bipartite,),
        "acceptance.run_all": (acceptance.run_all,),
        "cli.main": (cli.main,),
    }
    for name, fns in functions.items():
        for fn in fns:
            _wrap_function(rec, name, fn)
    _wrap_method(rec, "oracles.apply", oracles.EncryptionUnitary, "apply")
    _wrap_method(rec, "channels.apply", channels.QuantumChannel, "apply")

    def note_queries(i, args, kwargs, result):
        rec.count("games.learning_queries", int(result.query_count))
        return result

    for game, runner in list(games.GAME_RUNNERS.items()):
        _wrap_function(rec, f"games.trial.{game}", runner, note_queries)

    pair_action = channels.QuantumChannel.pair_action

    @functools.wraps(pair_action)
    def counted_pair_action(channel, s, t):
        if rec.active:
            rec.count("channels.pair_action.calls")
            seen = rec._pairs.setdefault(channel, set())
            if (s, t) not in seen:
                seen.add((s, t))
                rec.count("channels.pair_action.distinct")
        return pair_action(channel, s, t)

    channels.QuantumChannel.pair_action = counted_pair_action

    _install_schemes(rec, schemes)
    _install_strategies(rec, games.AdversaryStrategy)


def _install_schemes(rec: Recorder, schemes) -> None:
    """Scheme closures live in each scheme value, so wrap what the factories return."""

    def traced_scheme(scheme):
        def note_key(name):
            def after(i, args, kwargs, result):
                if not rec.in_span_named(i, name):  # skip a block scheme's call into its base
                    rec.keys.add((scheme.name, args[0]))
                return result

            return after

        def closure(name, fn, after=None):
            return None if fn is None else rec.wrap(name, fn, after)

        return replace(
            scheme,
            gen=closure("schemes.gen", scheme.gen),
            enc=closure("schemes.enc", scheme.enc, note_key("schemes.enc")),
            dec=closure("schemes.enc", scheme.dec, note_key("schemes.enc")),
            type2_completion=closure(
                "schemes.completion", scheme.type2_completion, note_key("schemes.completion")
            ),
        )

    for factory in (schemes.prf_scheme, schemes.prp_scheme, schemes.block_scheme):

        def build(*args, _factory=factory, **kwargs):
            return traced_scheme(_factory(*args, **kwargs))

        rebind(factory, functools.wraps(factory)(build))


def _install_strategies(rec: Recorder, base) -> None:
    hooks_id = rec.intern("attacks.hooks")

    def proxy(i, args, kwargs, result):
        if rec.in_span_named(i, "attacks.start"):  # a wrapper strategy's inner start
            return result
        return _TracedTrial(result, rec, hooks_id)

    for cls in _strategy_classes(base):
        if "start" in cls.__dict__:
            _wrap_method(rec, "attacks.start", cls, "start", proxy)
        if "exact_win_probability" in cls.__dict__:
            _wrap_method(rec, "attacks.exact", cls, "exact_win_probability")
