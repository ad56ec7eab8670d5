"""Averaged encryption channels and the distance bound certificates."""

import itertools
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from qindlab import channels
from qindlab.channels import (
    BoundReport,
    _channel_image,
    apply_channel_bipartite,
    avg_permutation_channel,
    certify_corollary_bound,
    certify_lemma_bound,
    constant_mixed_channel,
    corollary_bound,
    lemma_bound,
)
from qindlab.quantum_core import (
    DensityMatrix,
    StateVector,
    apply_unitary,
    hadamard_all,
    maximally_entangled,
    random_pure_bipartite,
    state_from_bits,
    trace_norm,
    zero_state,
)

from dense_reference import partial_trace


def test_lemma_bound_values():
    assert lemma_bound(1) == 2.0
    assert lemma_bound(2) == 1.0
    assert lemma_bound(3) == 0.5
    assert lemma_bound(4) == 0.25


def test_corollary_bound_values_and_saturation():
    assert corollary_bound(1, 3, 0) == pytest.approx(0.5)
    assert corollary_bound(1, 3, 4) == pytest.approx(4 / 6)
    assert corollary_bound(2, 4, 8) == pytest.approx(4 / 14)
    with pytest.raises(ValueError, match="saturates"):
        corollary_bound(1, 1, 4)
    with pytest.raises(ValueError):
        corollary_bound(1, 1, -1)


def test_corollary_bound_reduces_to_lemma_without_taken_outputs():
    for m in (1, 2):
        for tau in (1, 2, 3):
            assert corollary_bound(m, tau, 0) == pytest.approx(lemma_bound(tau))


def test_exact_channel_holds_only_the_free_set():
    ch = avg_permutation_channel(1, 2, (1, 5, 5))
    assert ch.injections is None
    assert ch.free.tolist() == [0, 2, 3, 4, 6, 7]
    assert ch.input_wires == 1
    assert ch.output_wires == 3


def test_exhaustive_channel_sends_basis_states_to_uniform():
    ch = avg_permutation_channel(1, 1)
    for bits in ("0", "1"):
        rho = ch.apply(state_from_bits(bits).to_density())
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)


def test_exact_channel_builds_at_any_size():
    # 1024P4 injections; the closed form never lists them
    ch = avg_permutation_channel(2, 8)
    assert len(ch.free) == 1024
    off = ch.pair_action(0, 3)
    assert off[5, 9] == 1 / (1024 * 1023) and off[5, 5] == 0
    ch = avg_permutation_channel(2, 3, n_perm=50, rng=np.random.default_rng(0))
    assert ch.injections.shape == (50, 4)
    with pytest.raises(ValueError, match="fewer free"):
        avg_permutation_channel(2, 1, taken=range(5))


def test_sampling_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        avg_permutation_channel(1, 2, n_perm=10)


def test_sampled_channel_diagonal_is_uniform_within_4_sigma():
    n_perm = 2000
    ch = avg_permutation_channel(1, 3, n_perm=n_perm, rng=np.random.default_rng(77))
    p = 1 / 16
    sigma = math.sqrt(p * (1 - p) / n_perm)
    for bits in ("0", "1"):
        rho = ch.apply(state_from_bits(bits).to_density())
        diag = np.diag(rho.matrix).real
        assert np.trace(rho.matrix).real == pytest.approx(1.0)
        assert np.max(np.abs(diag - p)) <= 4 * sigma


def test_taken_outputs_never_appear():
    taken = (0, 5)
    ch = avg_permutation_channel(1, 2, taken, n_perm=200, rng=np.random.default_rng(3))
    rho = ch.apply(state_from_bits("1").to_density())
    diag = np.diag(rho.matrix).real
    assert diag[0] == pytest.approx(0.0, abs=1e-15)
    assert diag[5] == pytest.approx(0.0, abs=1e-15)


def test_constant_channel_ignores_its_input():
    ch = constant_mixed_channel(1, 1)
    a = ch.apply(state_from_bits("0").to_density())
    plus = apply_unitary(hadamard_all(1), zero_state(1))
    b = ch.apply(plus.to_density())
    assert np.allclose(a.matrix, b.matrix)
    assert np.allclose(a.matrix, np.eye(4) / 4)


def test_constant_channel_with_almost_full_taken_set_is_a_point_mass():
    taken = tuple(range(1, 4))  # leaves only output 0 free
    ch = constant_mixed_channel(1, 1, taken)
    rho = ch.apply(state_from_bits("1").to_density())
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho.matrix, expected)


def test_bipartite_application_reduces_to_product_on_product_inputs():
    ch = avg_permutation_channel(1, 1)
    ref = apply_unitary(hadamard_all(1), zero_state(1)).to_density()
    inp = state_from_bits("1").to_density()
    joint = DensityMatrix(2, np.kron(ref.matrix, inp.matrix))
    out = apply_channel_bipartite(ch, joint, ref_wires=1)
    assert out.num_wires == 3
    expected = np.kron(ref.matrix, ch.apply(inp).matrix)
    assert np.allclose(out.matrix, expected, atol=1e-12)


def test_bipartite_application_preserves_trace_on_entangled_inputs():
    ch = avg_permutation_channel(1, 2, n_perm=100, rng=np.random.default_rng(8))
    probe = random_pure_bipartite(1, 1, np.random.default_rng(9)).to_density()
    out = apply_channel_bipartite(ch, probe, ref_wires=1)
    assert np.trace(out.matrix).real == pytest.approx(1.0)
    evals = np.linalg.eigvalsh(out.matrix)
    assert evals.min() >= -1e-12


def test_entangled_probe_output_has_the_closed_form():
    # reference kept, constant part uniform, plus the traceless coherence block
    ch = avg_permutation_channel(1, 1)
    phi = maximally_entangled(1).to_density()
    out = apply_channel_bipartite(ch, phi, ref_wires=1)
    marginal = partial_trace(phi, keep=(0,))
    constant = np.kron(marginal.matrix, np.eye(4) / 4)
    chi = out.matrix - constant
    assert abs(np.trace(chi)) <= 1e-12
    # the coherence block is what the certificates extract; frozen spectrum
    c = 1 / 12
    block = 2 * chi[0:4, 4:8]
    sym = (block + block.conj().T) / 2
    evals = np.sort(np.linalg.eigvalsh(sym))
    assert np.allclose(evals, [-c, -c, -c, 3 * c], atol=1e-10)


def test_lemma_certificate_exhaustive_small_case():
    report = certify_lemma_bound(1, 1, samples=1)
    assert isinstance(report, BoundReport)
    assert report.bound == 2.0
    assert report.vacuous  # nothing to violate when the bound exceeds 1
    assert report.satisfied
    assert report.worst_input == "maximally-entangled"
    assert report.max_trace_distance == pytest.approx(0.25, abs=1e-10)
    assert report.max_difference_trace_norm == pytest.approx(0.5, abs=1e-10)
    assert report.chi_c_trace_norm == pytest.approx(0.5, abs=1e-10)
    evals = np.sort(report.chi_c_eigenvalues)
    c = 1 / 12
    assert np.allclose(evals, [-c, -c, -c, 3 * c], atol=1e-10)


@pytest.mark.parametrize(
    "tau,taken",
    [(0, ()), (1, ()), (3, ()), (2, (1, 6)), (3, (0, 5, 9, 14)), (4, tuple(range(1, 30)))],
)
def test_exact_one_bit_certificate_applies_no_channel(monkeypatch, tau, taken):
    # the dense reference: twice the (ref=0, ref=1) block of the difference
    # of both channels applied to the maximally entangled probe
    rho = maximally_entangled(1).to_density()
    enc, ideal = avg_permutation_channel(1, tau, taken), constant_mixed_channel(1, tau, taken)
    n = enc.out_dim
    images = (apply_channel_bipartite(ch, rho, 1).matrix for ch in (enc, ideal))
    eigs = np.linalg.eigvalsh(2 * np.subtract(*images)[:n, n:])

    def refuse(*args, **kwargs):
        raise AssertionError("an exact certificate applied a channel")

    for name in ("_channel_image", "constant_mixed_channel"):
        monkeypatch.setattr(channels, name, refuse)
    monkeypatch.setattr(StateVector, "to_density", refuse)
    report = certify_corollary_bound(1, tau, taken, samples=1)
    assert report.chi_c_eigenvalues == tuple(float(e) for e in eigs)
    assert report.chi_c_trace_norm == float(np.sum(np.abs(eigs)))


def test_lemma_certificate_sampled_run_is_satisfied():
    report = certify_lemma_bound(1, 3, samples=60, n_perm=800, seed=5)
    assert report.bound == 0.5
    assert not report.vacuous
    assert report.satisfied
    assert report.margin == pytest.approx(report.bound - report.max_trace_distance)
    assert report.max_difference_trace_norm == pytest.approx(
        2 * report.max_trace_distance
    )


def test_certificates_are_seed_reproducible():
    a = certify_lemma_bound(1, 2, samples=30, n_perm=400, seed=9)
    b = certify_lemma_bound(1, 2, samples=30, n_perm=400, seed=9)
    assert asdict(a) == asdict(b)


def test_corollary_certificate_excludes_taken_outputs():
    taken = (3, 6)
    report = certify_corollary_bound(1, 3, taken, samples=50, n_perm=500, seed=12)
    assert report.taken_count == 2
    assert report.bound == pytest.approx(4 / (8 - 2 / 2))
    assert report.satisfied


def test_corollary_certificate_with_no_taken_set_equals_the_lemma_run():
    a = certify_lemma_bound(1, 2, samples=25, n_perm=300, seed=31)
    b = certify_corollary_bound(1, 2, (), samples=25, n_perm=300, seed=31)
    assert a.max_trace_distance == b.max_trace_distance
    assert a.bound == b.bound


@pytest.mark.parametrize("certify", [certify_lemma_bound, certify_corollary_bound])
def test_sampled_certificates_refuse_to_run_unseeded(certify):
    with pytest.raises(ValueError, match="needs a seed"):
        certify(1, 2, samples=1, n_perm=50)
    with pytest.raises(ValueError, match="needs a seed"):
        certify(1, 2, samples=3)
    # exact single-probe runs draw nothing and need no seed
    assert certify(1, 1, samples=1).satisfied


def test_certificate_rejects_saturating_taken_set():
    with pytest.raises(ValueError, match="saturates"):
        certify_corollary_bound(1, 1, (0, 1, 2, 3), samples=1)


def test_pair_action_validates_input_range():
    ch = avg_permutation_channel(1, 1)
    with pytest.raises(ValueError):
        ch.pair_action(0, 2)


@pytest.mark.parametrize(
    "m, tau, taken, n_perm",
    [
        (1, 1, (), None),
        (1, 2, (1, 5), None),
        (2, 1, (), None),
        (1, 3, (), 200),
        (1, 3, (3, 6, 9, 12), None),
        (2, 1, (3,), None),
        (2, 2, (0, 1, 6, 11, 12, 13, 14, 15), None),
        (2, 3, (3, 17, 22, 30), 500),
    ],
)
def test_channel_application_matches_the_dense_isometries(m, tau, taken, n_perm):
    """The closed form against the mean over every injection, listed here."""
    ch = avg_permutation_channel(m, tau, taken, n_perm=n_perm, rng=np.random.default_rng(3))
    if n_perm is None:
        free = sorted(set(range(2 ** (m + tau))) - set(taken))
        inj = np.array(list(itertools.permutations(free, 2**m)))
        assert len(inj) == math.perm(len(free), 2**m) <= 2000
    else:
        inj = ch.injections
        assert inj.shape == (n_perm, 2**m)
    rho = random_pure_bipartite(m, m, np.random.default_rng(17)).to_density()
    sigma = partial_trace(rho, keep=tuple(range(m, 2 * m)))
    want = np.zeros((2 ** (2 * m + tau),) * 2, dtype=np.complex128)
    want_alone = np.zeros((2 ** (m + tau),) * 2, dtype=np.complex128)
    for row in inj:
        v = np.zeros((2 ** (m + tau), 2**m))
        v[row, np.arange(2**m)] = 1.0
        big = np.kron(np.eye(2**m), v)
        want += big @ rho.matrix @ big.conj().T
        want_alone += v @ sigma.matrix @ v.T
    want /= len(inj)
    want_alone /= len(inj)
    got = apply_channel_bipartite(ch, rho, m).matrix
    assert np.max(np.abs(got - want)) <= 1e-12
    # without a reference register (ref_wires=0)
    assert np.max(np.abs(ch.apply(sigma).matrix - want_alone)) <= 1e-12


@pytest.mark.parametrize(
    "m, tau, taken, n_perm",
    [(1, 1, (), 1), (1, 3, (2, 9), 40), (2, 3, (3, 17, 22, 30), 500), (3, 2, (0,), 25)],
)
def test_sampled_injections_keep_the_per_row_draws(m, tau, taken, n_perm):
    """One shuffle call draws the table that rng.permutation(free)[:2^m] drew row by
    row, and leaves the generator where the loop left it."""
    rng, ref = np.random.default_rng(41), np.random.default_rng(41)
    ch = avg_permutation_channel(m, tau, taken, n_perm=n_perm, rng=rng)
    free = np.array(sorted(set(range(2 ** (m + tau))) - set(taken)), dtype=np.int64)
    want = np.stack([ref.permutation(free)[: 2**m] for _ in range(n_perm)])
    assert ch.injections.shape == (n_perm, 2**m)
    assert np.array_equal(ch.injections, want)
    # only a sampled mixture holds injections
    assert avg_permutation_channel(m, tau, taken).injections is None
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("m, tau, taken", [(1, 0, ()), (1, 2, (5,)), (2, 1, ()), (2, 2, (3, 9))])
def test_bare_channel_image_is_the_validated_output(m, tau, taken):
    """Certificates read the unvalidated image; it is the public output bit for
    bit, and it passes the public validation."""
    rng = np.random.default_rng(23)
    channels = (
        avg_permutation_channel(m, tau, taken),
        constant_mixed_channel(m, tau, taken),
        avg_permutation_channel(m, tau, taken, n_perm=30, rng=rng),
    )
    probes = (maximally_entangled(m), random_pure_bipartite(m, m, rng))
    for ch, probe, ref in itertools.product(channels, probes, (0, m)):
        rho = probe.to_density() if ref else partial_trace(probe.to_density(), tuple(range(m)))
        bare = _channel_image(ch, rho, ref)
        assert np.array_equal(bare, apply_channel_bipartite(ch, rho, ref).matrix)
        DensityMatrix(ref + ch.output_wires, bare)


def test_pair_action_is_a_row_of_the_pair_table():
    taken = (3, 17, 22, 30)
    for ch in (
        avg_permutation_channel(2, 3, taken),
        constant_mixed_channel(2, 3, taken),
        avg_permutation_channel(2, 3, taken, n_perm=500, rng=np.random.default_rng(6)),
    ):
        d, n = ch.in_dim, ch.out_dim
        assert ch.pair_table.shape == (d * d, n * n)
        assert not ch.pair_table.flags.writeable
        for s, t in itertools.product(range(d), repeat=2):
            assert np.array_equal(ch.pair_action(s, t).ravel(), ch.pair_table[s * d + t])


def test_bipartite_application_rejects_negative_reference_wires():
    # one wire fewer than the channel's input would pass the wire count
    ch = avg_permutation_channel(2, 1)
    with pytest.raises(ValueError, match="ref_wires"):
        apply_channel_bipartite(ch, state_from_bits("0").to_density(), -1)


def test_exact_distance_equals_the_witness_on_exact_runs():
    for report in (
        certify_lemma_bound(1, 2, samples=20, seed=3),
        certify_corollary_bound(2, 2, (0, 1, 6, 11, 12, 13, 14, 15), samples=10, seed=5),
    ):
        assert report.n_perm is None
        assert abs(report.exact_trace_distance - report.max_trace_distance) <= 1e-12


def test_sampled_certificate_takes_its_verdict_from_the_exact_channel():
    report = certify_lemma_bound(2, 4, samples=50, n_perm=500, seed=4)
    # 500 injections over 64 ciphertexts leave the sampled witness above the bound
    assert report.max_trace_distance > report.bound == 0.25
    assert report.exact_trace_distance == pytest.approx(0.0274, abs=1e-4)
    assert report.satisfied


@pytest.mark.parametrize(
    "m, tau, taken", [(2, 3, ()), (2, 4, ()), (2, 4, tuple(range(0, 64, 8)))]
)
def test_maximally_entangled_probe_distance_has_the_closed_form(m, tau, taken):
    report = certify_corollary_bound(m, tau, taken, samples=1)
    d, free = 2**m, 2 ** (m + tau) - len(taken)
    expected = 2 * (d - 1) / (d * free)
    assert report.max_trace_distance == pytest.approx(expected, abs=1e-12)
    assert report.exact_trace_distance == pytest.approx(expected, abs=1e-12)


def test_repeated_taken_outputs_count_once():
    once = certify_corollary_bound(1, 2, (0,), samples=1)
    repeated = certify_corollary_bound(1, 2, (0,) * 6, samples=1)
    assert repeated.taken_count == 1
    assert asdict(repeated) == asdict(once)


def _dense_distances(m, tau, taken, probes):
    """Each probe's exact-channel distance from the dense outputs."""
    enc = avg_permutation_channel(m, tau, taken)
    ideal = constant_mixed_channel(m, tau, taken)
    out = []
    for probe in probes:
        rho = probe.to_density()
        delta = (
            apply_channel_bipartite(enc, rho, m).matrix
            - apply_channel_bipartite(ideal, rho, m).matrix
        )
        out.append(0.5 * trace_norm(delta))
    return out


@pytest.mark.parametrize(
    "m, tau",
    [(m, tau) for m in (1, 2, 3) for tau in range(0, 11 - 2 * m)],
)
def test_exact_witness_equals_the_dense_distance(m, tau):
    """Exact runs score probes from X alone; the dense outputs, which they
    do not build, give the same distance, probe by probe."""
    samples, seed = 3, 20 + tau
    taken_sets = [()]
    if tau > 0:
        taken_sets.append(tuple(range(1, 2 ** (m + tau), 3)))
    for taken in taken_sets:
        report = certify_corollary_bound(m, tau, taken, samples=samples, seed=seed)
        # the exact run's probes: maximally entangled, then Haar draws from the seed
        rng = np.random.default_rng(seed)
        probes = [maximally_entangled(m)]
        probes += [random_pure_bipartite(m, m, rng) for _ in range(samples - 1)]
        dense = _dense_distances(m, tau, taken, probes)
        assert abs(report.max_trace_distance - max(dense)) <= 1e-12
        assert abs(report.max_difference_trace_norm - 2 * max(dense)) <= 1e-12
        names = ["maximally-entangled"] + [f"haar-{i}" for i in range(1, samples)]
        assert report.worst_input == names[int(np.argmax(dense))]


def _refusal_peak(build) -> int:
    """The tracemalloc peak of a call that must raise ValueError."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_channels_refuse_a_width_past_the_cap_before_they_allocate():
    # first widths past each cap: a free set of m + tau = 15 wires, and
    # dense images and pair tables of 11 output wires
    exact, ideal = avg_permutation_channel(1, 10), constant_mixed_channel(1, 10)
    sampled = avg_permutation_channel(1, 10, n_perm=2, rng=np.random.default_rng(0))
    ten = constant_mixed_channel(1, 9)
    one, two = zero_state(1).to_density(), zero_state(2).to_density()
    builds = {
        "exact free set": lambda: avg_permutation_channel(2, 13),
        "ideal free set": lambda: constant_mixed_channel(1, 14),
        "closed-form image": lambda: exact.pair_action(0, 1),
        "sampled pair table": lambda: sampled.pair_table,
        "sampled lookup": lambda: sampled.pair_action(0, 1),
        "apply": lambda: ideal.apply(one),
        "bipartite output": lambda: apply_channel_bipartite(ten, two, ref_wires=1),
        "bare image": lambda: _channel_image(ten, two, 1),
    }
    for name, build in builds.items():
        assert _refusal_peak(build) < 64 * 1024, name
    # 10 output wires stay allowed: test_exact_channel_builds_at_any_size
    # reads the m = 2, tau = 8 exact pair_action
