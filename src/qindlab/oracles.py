"""Unitary lifts of classical encryption schemes.

Two standard lifts, both computational-basis permutations:

* type-1, on m + ell wires: |x>|y> -> |x>|y ^ Enc_k(x; r)>, the XOR-register
  oracle. Register layout [plaintext | output], plaintext on the MSB side.
* type-2, on ell wires: |x>|y> -> |phi_{x,y}>, the in-place oracle. The
  scheme's declared completion fixes phi, with phi(x || 0) = Enc_k(x; r), so
  the adjoint is the decryption oracle.

The games read a scheme only through Enc's 2^m-entry table, ``_enc_table``,
which hands Enc the frozen ``schemes._plaintexts`` and checks every entry Enc
returns. Learning oracles and challenge steps check their wires and r, then
call the cores ``_xor_encrypt`` (type-1) and ``_encrypt_fresh`` (type-2,
which meets only |x, 0>), each run from a layout cached per register
(``_xor_plan``, ``_fresh_layout``); ``xor_encrypt_register`` and
``encrypt_fresh_register`` are those cores behind their own checks. Hadamard
test trials read only ``_enc_table``. ``EncryptionUnitary.apply`` applies any
lift's table through ``apply_basis_permutation``.

Lifts are stored as basis index tables, so applying one to a larger state
costs O(2^n) regardless of operator size; dense matrices materialize on
demand below the dense-operator cap. The interconversions build one lift
from oracle access to the other and are checked against the direct
constructions by the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any

import numpy as np

from .quantum_core import StateVector, UnitaryOperator, _check_dense, _check_index
from .quantum_core import _check_permutation, _check_wire_count, _check_wires
from .quantum_core import _axis_order, _flat_amplitudes, _freeze, _owned_state
from .quantum_core import apply_basis_permutation
from .schemes import ClassicalScheme, _plaintexts


@dataclass(frozen=True, eq=False)
class EncryptionUnitary:
    """A scheme lift at fixed (key, randomness), held as a basis permutation.

    ``workspace_wires`` > 0 marks a derived oracle that carries a working
    register (trailing wires) expected to start in |0>.
    """

    kind: str
    scheme: ClassicalScheme
    key: Any
    randomness: int
    num_wires: int
    permutation: np.ndarray
    workspace_wires: int = 0

    def __post_init__(self) -> None:
        perm = _check_permutation(self.permutation, self.num_wires)
        # type2_from_type1 reads type-1 tables as XOR lifts
        if self.kind.startswith("type1") and not _is_xor_lift(perm):
            raise ValueError(f"{self.kind} table is not an XOR lift |x, y> -> |x, y ^ f(x)>")
        object.__setattr__(self, "permutation", _freeze(perm))

    @property
    def dim(self) -> int:
        return 2**self.num_wires

    def operator(self) -> UnitaryOperator:
        """Dense 0/1 permutation matrix (small wire counts only)."""
        _check_dense(self.num_wires)
        mat = np.zeros((self.dim, self.dim), dtype=np.complex128)
        mat[self.permutation, np.arange(self.dim)] = 1.0
        return UnitaryOperator(self.num_wires, mat)

    def apply(self, state: StateVector, wires: tuple[int, ...]) -> StateVector:
        """The lift on the listed wires; wires[j] carries the table's wire j."""
        return apply_basis_permutation(self.permutation, state, wires)

    def adjoint(self) -> EncryptionUnitary:
        return EncryptionUnitary(
            kind=f"{self.kind}-adjoint" if not self.kind.endswith("-adjoint") else self.kind[:-8],
            scheme=self.scheme,
            key=self.key,
            randomness=self.randomness,
            num_wires=self.num_wires,
            permutation=np.argsort(self.permutation),
            workspace_wires=self.workspace_wires,
        )

    def type2_action_table(self) -> np.ndarray:
        """Ciphertext index reached from |x, 0> for each plaintext x (type-2 only)."""
        if self.kind != "type2":
            raise ValueError(f"not a type-2 oracle: {self.kind}")
        scheme = self.scheme
        m, ell = scheme.message_bits, scheme.ciphertext_bits
        anc = ell - m
        x = np.arange(2**m)
        if self.workspace_wires == 0:
            return self.permutation[x << anc]
        out = self.permutation[x << (anc + self.workspace_wires)]
        mask = (1 << self.workspace_wires) - 1
        if np.any(out & mask):
            raise ValueError("workspace register did not return to |0> on y=0 inputs")
        return out >> self.workspace_wires


def _check_randomness(scheme: ClassicalScheme, r) -> int:
    return _check_index(r, "randomness", 2**scheme.randomness_bits)


def _enc_table(scheme: ClassicalScheme, key, r, injective: bool = False) -> np.ndarray:
    """Enc_k(x; r) for every plaintext x. Raises ValueError for an entry
    outside ell bits and, if ``injective``, for two equal entries."""
    ell = scheme.ciphertext_bits
    enc = np.asarray(scheme.enc(key, r, _plaintexts(scheme.message_bits)), dtype=np.int64)
    values = enc.tolist()  # plain ints: a negative entry must not wrap as an index
    if min(values) < 0 or max(values) >= 2**ell or injective and len(set(values)) < len(values):
        fault = "is not injective into" if injective else "leaves"
        raise ValueError(f"scheme {scheme.name}: Enc {fault} {ell} bits")
    return enc


def _is_xor_lift(table: np.ndarray) -> bool:
    """Whether table[(x << ell) | y] = (x << ell) | (y ^ f[x]) for some split
    ell and f < 2^ell; the least such ell is the bit length of the largest move."""
    diff = table ^ np.arange(table.size)
    block = 1 << int(diff.max()).bit_length()
    return bool((diff.reshape(-1, block) == diff[::block, None]).all())


def _xor_lift(f: np.ndarray, ell: int) -> np.ndarray:
    """The table of |x, y> -> |x, y ^ f[x]> on [x | ell-bit y]."""
    x, y = np.divmod(np.arange(f.size << ell), 1 << ell)
    return (x << ell) | (y ^ f[x])


def xor_encrypt_register(
    scheme: ClassicalScheme, key, r: int, state: StateVector, message_wires, response_wires
) -> StateVector:
    """Type-1 encryption |x, y> -> |x, y ^ Enc_k(x; r)> from Enc's 2^m-entry
    table: any Enc into ell bits makes an XOR lift, so nothing more is checked.
    Raises ValueError for bad wires or an Enc that leaves ell bits.

    Checks the wires and r, then gathers by the layout's cached ``_xor_plan``:
    one fresh array and no index above 2^(m + ell) entries.
    """
    message_wires, response_wires = tuple(message_wires), tuple(response_wires)
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    for wires, want in ((message_wires, m), (response_wires, ell)):
        if len(wires) != want:
            raise ValueError(f"expected {want} wires, got {len(wires)}")
    _check_wires(state.num_wires, message_wires + response_wires)
    r = _check_randomness(scheme, r)
    return _xor_encrypt(scheme, key, r, state, message_wires + response_wires)


def _xor_encrypt(scheme: ClassicalScheme, key, r: int, state: StateVector, wires) -> StateVector:
    """``xor_encrypt_register`` on the checked register ``wires``, r checked."""
    base, shape, order = _xor_plan(state.num_wires, scheme.message_bits, wires)
    rows = base ^ _enc_table(scheme, key, r)[:, None]  # rows[x] gathers |x, y ^ Enc(x)>
    a = state.amplitudes.reshape(shape)
    if order is not None:
        a = a.transpose(order[0]).reshape(1, base.size, -1)
    elif len(shape) == 5:  # a view (before, x, gap, y, after)
        out = np.empty_like(a)
        for x, row in enumerate(rows):
            a[:, x].take(row, axis=2, out=out[:, x], mode="clip")  # "raise" would buffer out
        return _owned_state(state.num_wires, out.reshape(-1))
    return _owned_state(state.num_wires, _flat_amplitudes(a.take(rows.reshape(-1), axis=1), order))


@functools.lru_cache(maxsize=64)
def _xor_plan(n: int, m: int, wires: tuple[int, ...]):
    """For the register ``wires`` [m message | ell response] of an n-wire
    state: the base table Enc's column XORs into indices, the amplitudes'
    shape and a transposed copy's ``_axis_order`` (None for a view). One
    in-order run gathers once at (x << ell) | y; two parted by a gap, per x at y."""
    ell = len(wires) - m
    s, t = (
        w[0] if w and w == tuple(range(w[0], w[0] + len(w))) else None
        for w in (wires[:m], wires[m:])
    )
    if s is None or t is None or t < s:
        return _xor_base(m, ell), (2,) * n, _axis_order(n, wires)
    if t == s + m:
        return _xor_base(m, ell), (2**s, 2 ** (m + ell), -1), None
    return _xor_base(0, ell), (2**s, 2**m, 2 ** (t - s - m), 2**ell, -1), None


def _xor_base(m: int, ell: int) -> np.ndarray:
    """The frozen (2^m, 2^ell) table (x << ell) | y."""
    return _freeze(np.arange(2 ** (m + ell)).reshape(2**m, 2**ell))


@functools.lru_cache(maxsize=64)
def _fresh_layout(n: int, wires: tuple[int, ...]):
    """For ``encrypt_fresh_register``'s register ``wires``, ancilla from wire n
    on: each input index's other wires in place on the output (rest), its
    message value (x_of), and each ciphertext spread onto the register."""
    k, m, i = len(wires), sum(w < n for w in wires), np.arange(2**n)
    x_of = sum(((i >> (n - 1 - w)) & 1) << (m - 1 - j) for j, w in enumerate(wires[:m]))
    rest = (i & ~sum(1 << (n - 1 - w) for w in wires[:m])) << (k - m)
    c = np.arange(2**k)
    deposit = sum(((c >> (k - 1 - j)) & 1) << (n + k - m - 1 - w) for j, w in enumerate(wires))
    return _freeze(rest), _freeze(x_of), _freeze(deposit)


def encrypt_fresh_register(
    scheme: ClassicalScheme, key, r: int, state: StateVector, message_wires: tuple[int, ...]
) -> tuple[StateVector, tuple[int, ...]]:
    """Type-2 encryption of the message wires joined to a fresh |0> ancilla.

    Scatters each |x, 0> amplitude, from Enc's table, into one zeroed output at
    index Enc_k(x; r) of the register [message wires | ell - m appended
    ancilla wires], and returns it with that register's wires. Raises
    ValueError for bad wires or an Enc not injective into ell bits.
    """
    wires = _fresh_register(scheme, state.num_wires, message_wires)
    return _encrypt_fresh(scheme, key, _check_randomness(scheme, r), state, wires), wires


def _encrypt_fresh(scheme: ClassicalScheme, key, r: int, state: StateVector, wires) -> StateVector:
    """``encrypt_fresh_register`` into the checked register ``wires``, r checked."""
    enc = _enc_table(scheme, key, r, injective=True)
    rest, x_of, deposit = _fresh_layout(state.num_wires, wires)
    total = state.num_wires + len(wires) - scheme.message_bits
    out = np.zeros(2**total, dtype=np.complex128)
    out[deposit[enc][x_of] | rest] = state.amplitudes
    return _owned_state(total, out)


def _fresh_register(scheme: ClassicalScheme, num_wires: int, message_wires) -> tuple[int, ...]:
    """The register [message wires | ell - m ancilla wires appended to a
    ``num_wires``-wire state]. Checks the message wires against the state
    they come from, then the wire cap."""
    message_wires = tuple(message_wires)
    _check_wires(num_wires, message_wires, scheme.message_bits)
    total = num_wires + scheme.ciphertext_bits - scheme.message_bits
    _check_wire_count(total)
    return message_wires + tuple(range(num_wires, total))


def type1_unitary(scheme: ClassicalScheme, key, r: int) -> EncryptionUnitary:
    """XOR-register lift of Enc_k(.; r) on message + ciphertext wires."""
    r = _check_randomness(scheme, r)
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    _check_wire_count(m + ell)
    table = _xor_lift(_enc_table(scheme, key, r), ell)
    return EncryptionUnitary("type1", scheme, key, r, m + ell, table)


def type1_decryption_unitary(scheme: ClassicalScheme, key) -> EncryptionUnitary:
    """XOR-register lift of Dec_k on ciphertext + message wires.

    Decryption takes no randomness, so the oracle carries randomness 0.
    """
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    _check_wire_count(ell + m)
    dec = np.asarray(scheme.dec(key, np.arange(2**ell)), dtype=np.int64)
    return EncryptionUnitary("type1-dec", scheme, key, 0, ell + m, _xor_lift(dec, m))


def type2_unitary(scheme: ClassicalScheme, key, r: int) -> EncryptionUnitary:
    """In-place lift on ell wires from the scheme's declared completion.

    Construction checks that the completion is a permutation and that its
    action on |x, 0> reproduces Enc_k(x; r) exactly.
    """
    r = _check_randomness(scheme, r)
    if scheme.type2_completion is None:
        raise ValueError(f"scheme {scheme.name} declares no type-2 completion")
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    _check_wire_count(ell)
    perm = np.asarray(scheme.type2_completion(key, r, np.arange(2**ell)), dtype=np.int64)
    oracle = EncryptionUnitary("type2", scheme, key, r, ell, perm)
    if not np.array_equal(perm[np.arange(2**m) << (ell - m)], _enc_table(scheme, key, r)):
        raise ValueError(f"scheme {scheme.name}: completion disagrees with Enc on y=0 inputs")
    return oracle


def type1_from_type2(u2: EncryptionUnitary) -> EncryptionUnitary:
    """Type-1 oracle assembled from type-2 oracle access.

    Circuit: encrypt in place into [plaintext | fresh ancilla], CNOT-copy the
    ciphertext register transversally onto the output register, then undo the
    in-place encryption with the adjoint. The adjoint inverts the first step
    exactly, so the ancilla returns to |0> on every basis input and the result
    is the XOR lift of the type-2 action on |x, 0>, on m + ell wires; it must
    equal type1_unitary for the same (scheme, key, randomness).
    """
    if u2.kind != "type2" or u2.workspace_wires:
        raise ValueError("type1_from_type2 needs a direct type-2 oracle")
    scheme = u2.scheme
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    table = _xor_lift(u2.type2_action_table(), ell)
    return EncryptionUnitary("type1", scheme, u2.key, u2.randomness, m + ell, table)


def type2_from_type1(u1_enc: EncryptionUnitary, u1_dec: EncryptionUnitary) -> EncryptionUnitary:
    """Type-2 oracle assembled from type-1 encryption and decryption oracles.

    Circuit on [type-2 register (ell wires) | working register (ell wires)]:
    encrypt the plaintext into the working register, uncompute the plaintext
    via the decryption oracle, swap the registers. The working register
    returns to |0> exactly on y=0 inputs, where the action equals the
    scheme's declared completion; other ancilla values leave residue, which
    is why the result keeps its workspace wires.
    """
    if u1_enc.kind != "type1" or u1_dec.kind != "type1-dec":
        raise ValueError("need a type-1 encryption oracle and a type-1 decryption oracle")
    if u1_enc.scheme is not u1_dec.scheme or u1_enc.key != u1_dec.key:
        raise ValueError("oracles must share scheme and key")
    scheme = u1_enc.scheme
    m, ell = scheme.message_bits, scheme.ciphertext_bits
    _check_wire_count(2 * ell)
    anc = ell - m
    mask_ell, mask_m, mask_anc = (1 << ell) - 1, (1 << m) - 1, (1 << anc) - 1
    i = np.arange(2 ** (2 * ell))
    t, c = i >> ell, i & mask_ell
    x, y = t >> anc, t & mask_anc
    # encrypt: type-1 on (plaintext wires, working register)
    j = u1_enc.permutation[(x << ell) | c]
    c1 = j & mask_ell
    # uncompute: type-1 decryption on (working register, plaintext wires)
    j2 = u1_dec.permutation[(c1 << m) | x]
    x1 = j2 & mask_m
    # swap the full ell-wire registers
    out = (c1 << ell) | (x1 << anc) | y
    return EncryptionUnitary(
        "type2", scheme, u1_enc.key, u1_enc.randomness, 2 * ell, out, workspace_wires=ell
    )


def interconversions_match(scheme: ClassicalScheme, key, r: int) -> tuple[bool, bool]:
    """Whether each interconversion circuit reproduces its direct lift.

    First: type1_from_type2 equals type1_unitary. Second: type2_from_type1
    acts like type2_unitary on every |x, 0> input.
    """
    u2 = type2_unitary(scheme, key, r)
    u1 = type1_unitary(scheme, key, r)
    type1_ok = np.array_equal(type1_from_type2(u2).permutation, u1.permutation)
    built2 = type2_from_type1(u1, type1_decryption_unitary(scheme, key))
    type2_ok = np.array_equal(built2.type2_action_table(), u2.type2_action_table())
    return bool(type1_ok), bool(type2_ok)
