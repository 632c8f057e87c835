"""Classical-quantum channel models, entropic functionals, and file formats.

A point-to-point channel maps each letter of a finite alphabet to a density
operator.  Broadcast channels emit a joint state on two receiver spaces; the
two-sender multiple-access variant is keyed by letter pairs.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping

import numpy as np

from .errors import InvalidInputError, RelayError
from .operators import (
    DEFAULT_DIM_CAP,
    ProbabilityDistribution,
    _require_within_cap,
    hermitian_part,
    partial_trace,
    tensor_all,
    validate_density,
    von_neumann_entropy,
)


class CQChannel:
    """Map from a finite classical alphabet into density operators."""

    def __init__(self, alphabet, states, *, validate: bool = True):
        self._alphabet = tuple(alphabet)
        if not self._alphabet:
            raise InvalidInputError("channel alphabet is empty")
        if len(set(self._alphabet)) != len(self._alphabet):
            raise InvalidInputError("channel alphabet labels must be distinct")
        if validate:
            table = {}
            dim = None
            for a in self._alphabet:
                try:
                    raw = states[a]
                except KeyError:
                    raise InvalidInputError(f"missing state for input {a!r}") from None
                st = validate_density(raw, name=f"state for input {a!r}")
                if dim is None:
                    dim = st.shape[0]
                elif st.shape[0] != dim:
                    raise InvalidInputError(
                        f"state for input {a!r} has dimension {st.shape[0]}, expected {dim}"
                    )
                table[a] = st
            self._states = table
            self._dim = dim
        else:
            self._states = states
            self._dim = int(np.asarray(states[self._alphabet[0]]).shape[0])

    @property
    def alphabet(self) -> tuple:
        return self._alphabet

    @property
    def output_dim(self) -> int:
        return self._dim

    def state(self, a) -> np.ndarray:
        try:
            return self._states[a]
        except KeyError:
            raise InvalidInputError(f"input {a!r} not in channel alphabet") from None

    def word_state(self, word) -> np.ndarray:
        """Tensor product state of a letter sequence."""
        word = tuple(word)
        if not word:
            raise InvalidInputError("empty input word")
        return tensor_all([self.state(a) for a in word])


class _ProductStateMap(Mapping):
    """Lazy word -> tensor-power state table backing product extensions."""

    def __init__(self, base: CQChannel, n: int):
        self._base = base
        self._n = n

    def __getitem__(self, word):
        word = tuple(word)
        if len(word) != self._n:
            raise KeyError(word)
        return self._base.word_state(word)

    def __iter__(self):
        return itertools.product(self._base.alphabet, repeat=self._n)

    def __len__(self):
        return len(self._base.alphabet) ** self._n


def product_extension(channel: CQChannel, n: int, dim_cap: int = DEFAULT_DIM_CAP) -> CQChannel:
    """The n-letter memoryless extension; states are materialized on demand."""
    if n < 1:
        raise InvalidInputError(f"extension length must be >= 1, got {n}")
    _require_within_cap(channel.output_dim, n, dim_cap, "extension")
    _require_within_cap(len(channel.alphabet), n, dim_cap, "extension alphabet")
    alphabet = tuple(itertools.product(channel.alphabet, repeat=n))
    return CQChannel(alphabet, _ProductStateMap(channel, n), validate=False)


def _require_matching_alphabet(channel_alphabet: tuple, dist: ProbabilityDistribution):
    if tuple(dist.labels) != tuple(channel_alphabet):
        raise InvalidInputError("distribution alphabet does not match channel alphabet")


def output_state(channel: CQChannel, dist: ProbabilityDistribution) -> np.ndarray:
    """Average output state under the given input distribution."""
    _require_matching_alphabet(channel.alphabet, dist)
    out = np.zeros((channel.output_dim, channel.output_dim), dtype=complex)
    for a, w in zip(dist.labels, dist.weights):
        if w > 0.0:
            out += w * channel.state(a)
    return hermitian_part(out)


def conditional_entropy(channel: CQChannel, dist: ProbabilityDistribution) -> float:
    """Input-weighted average of the output-state entropies, in bits."""
    _require_matching_alphabet(channel.alphabet, dist)
    total = 0.0
    for a, w in zip(dist.labels, dist.weights):
        if w > 0.0:
            total += w * von_neumann_entropy(channel.state(a))
    return total


def holevo_chi(channel: CQChannel, dist: ProbabilityDistribution) -> float:
    """Entropy of the average output minus the average output entropy, in bits."""
    return von_neumann_entropy(output_state(channel, dist)) - conditional_entropy(channel, dist)


class BroadcastCQChannel:
    """Classical input, joint output state shared by two receivers."""

    def __init__(self, alphabet, dims: tuple[int, int], joint_states, *, validate: bool = True):
        self._alphabet = tuple(alphabet)
        if not self._alphabet:
            raise InvalidInputError("broadcast alphabet is empty")
        d1, d2 = int(dims[0]), int(dims[1])
        if d1 < 1 or d2 < 1:
            raise InvalidInputError(f"receiver dimensions must be positive, got {dims}")
        self._dims = (d1, d2)
        table = {}
        for a in self._alphabet:
            try:
                raw = joint_states[a]
            except KeyError:
                raise InvalidInputError(f"missing joint state for input {a!r}") from None
            st = validate_density(raw, name=f"joint state for input {a!r}") if validate else raw
            if st.shape[0] != d1 * d2:
                raise InvalidInputError(
                    f"joint state for input {a!r} has dimension {st.shape[0]}, expected {d1 * d2}"
                )
            table[a] = st
        self._states = table
        self._marginals: dict[int, CQChannel] = {}

    @property
    def alphabet(self) -> tuple:
        return self._alphabet

    @property
    def dims(self) -> tuple[int, int]:
        return self._dims

    def joint_state(self, a) -> np.ndarray:
        try:
            return self._states[a]
        except KeyError:
            raise InvalidInputError(f"input {a!r} not in channel alphabet") from None

    def marginal(self, receiver: int) -> CQChannel:
        if receiver not in (1, 2):
            raise InvalidInputError(f"receiver must be 1 or 2, got {receiver!r}")
        if receiver not in self._marginals:
            states = {
                a: hermitian_part(partial_trace(self._states[a], self._dims, keep=receiver))
                for a in self._alphabet
            }
            self._marginals[receiver] = CQChannel(self._alphabet, states)
        return self._marginals[receiver]


class MACCQChannel:
    """Two classical senders, one quantum output."""

    def __init__(self, alphabets, states, *, validate: bool = True):
        a1, a2 = tuple(alphabets[0]), tuple(alphabets[1])
        if not a1 or not a2:
            raise InvalidInputError("sender alphabets must be nonempty")
        self._alphabets = (a1, a2)
        table = {}
        dim = None
        for y1 in a1:
            for y2 in a2:
                try:
                    raw = states[(y1, y2)]
                except KeyError:
                    raise InvalidInputError(f"missing state for input pair ({y1!r}, {y2!r})") from None
                st = validate_density(raw, name=f"state for input pair ({y1!r}, {y2!r})") if validate else raw
                if dim is None:
                    dim = st.shape[0]
                elif st.shape[0] != dim:
                    raise InvalidInputError(
                        f"state for input pair ({y1!r}, {y2!r}) has dimension "
                        f"{st.shape[0]}, expected {dim}"
                    )
                table[(y1, y2)] = st
        self._states = table
        self._dim = dim

    @property
    def alphabets(self) -> tuple[tuple, tuple]:
        return self._alphabets

    @property
    def output_dim(self) -> int:
        return self._dim

    def state(self, y1, y2) -> np.ndarray:
        try:
            return self._states[(y1, y2)]
        except KeyError:
            raise InvalidInputError(f"input pair ({y1!r}, {y2!r}) not in alphabets") from None

    def word_state(self, word1, word2) -> np.ndarray:
        word1, word2 = tuple(word1), tuple(word2)
        if not word1 or len(word1) != len(word2):
            raise InvalidInputError("sender words must be nonempty and equally long")
        return tensor_all([self.state(y1, y2) for y1, y2 in zip(word1, word2)])


# ---------------------------------------------------------------------------
# File format: matrix literals are nested rows of [re, im] pairs.
# ---------------------------------------------------------------------------


def matrix_from_literal(literal, name: str = "matrix") -> np.ndarray:
    if not isinstance(literal, list) or not literal:
        raise InvalidInputError(f"{name}: matrix literal must be a nonempty list of rows")
    rows = []
    width = None
    for i, row in enumerate(literal):
        if not isinstance(row, list) or not row:
            raise InvalidInputError(f"{name}: row {i} is not a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InvalidInputError(f"{name}: row {i} has length {len(row)}, expected {width}")
        entries = []
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
            ):
                raise InvalidInputError(f"{name}: entry ({i},{j}) is not a [re, im] pair")
            entries.append(complex(entry[0], entry[1]))
        rows.append(entries)
    m = np.array(rows, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{name}: matrix literal is {m.shape[0]}x{m.shape[1]}, not square")
    return m


def matrix_to_literal(mat: np.ndarray) -> list:
    m = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _parse_labels(raw, what: str) -> tuple:
    if not isinstance(raw, list) or not raw or not all(isinstance(a, str) for a in raw):
        raise InvalidInputError(f"{what} must be a nonempty list of strings")
    return tuple(raw)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read channel file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"channel file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidInputError(f"channel file {path!r} must hold a JSON object")
    return data


def load_channel(path: str):
    """Read a channel description file; returns the matching channel object."""
    data = _load_json(path)
    kind = data.get("kind")
    if kind == "cq":
        return _parse_cq(data)
    if kind == "broadcast":
        return _parse_broadcast(data)
    if kind == "mac":
        return _parse_mac(data)
    raise InvalidInputError(f"unknown channel kind {kind!r}")


def _get_states(data) -> dict:
    states = data.get("states")
    if not isinstance(states, dict):
        raise InvalidInputError("'states' must be an object keyed by input label")
    return states


def _parse_cq(data) -> CQChannel:
    alphabet = _parse_labels(data.get("alphabet"), "'alphabet'")
    states_raw = _get_states(data)
    states = {}
    for a in alphabet:
        if a not in states_raw:
            raise InvalidInputError(f"missing state for input {a!r}")
        states[a] = matrix_from_literal(states_raw[a], name=f"state for input {a!r}")
    ch = CQChannel(alphabet, states)
    dims = data.get("dims")
    if dims is not None and dims != ch.output_dim:
        raise InvalidInputError(f"declared dims {dims!r} but states have dimension {ch.output_dim}")
    return ch


def _parse_broadcast(data) -> BroadcastCQChannel:
    alphabet = _parse_labels(data.get("alphabet"), "'alphabet'")
    dims = data.get("dims")
    if not isinstance(dims, dict) or set(dims) != {"y1", "y2"}:
        raise InvalidInputError("broadcast 'dims' must be an object with keys 'y1' and 'y2'")
    try:
        d1, d2 = int(dims["y1"]), int(dims["y2"])
    except (TypeError, ValueError):
        raise InvalidInputError("broadcast 'dims' entries must be integers") from None
    states_raw = _get_states(data)
    states = {}
    for a in alphabet:
        if a not in states_raw:
            raise InvalidInputError(f"missing joint state for input {a!r}")
        states[a] = matrix_from_literal(states_raw[a], name=f"joint state for input {a!r}")
    return BroadcastCQChannel(alphabet, (d1, d2), states)


def _parse_mac(data) -> MACCQChannel:
    alphabets = data.get("alphabets")
    if not isinstance(alphabets, list) or len(alphabets) != 2:
        raise InvalidInputError("'alphabets' must be a two-element list of label lists")
    a1 = _parse_labels(alphabets[0], "first sender alphabet")
    a2 = _parse_labels(alphabets[1], "second sender alphabet")
    states_raw = _get_states(data)
    states = {}
    for y1 in a1:
        for y2 in a2:
            key = f"{y1},{y2}"
            if key not in states_raw:
                raise InvalidInputError(f"missing state for input pair {key!r}")
            states[(y1, y2)] = matrix_from_literal(states_raw[key], name=f"state for pair {key!r}")
    mac = MACCQChannel((a1, a2), states)
    dims = data.get("dims")
    if dims is not None and dims != mac.output_dim:
        raise InvalidInputError(f"declared dims {dims!r} but states have dimension {mac.output_dim}")
    return mac


def channel_to_jsonable(channel) -> dict:
    """JSON-ready description of a channel object (inverse of load_channel)."""
    if isinstance(channel, CQChannel):
        return {
            "kind": "cq",
            "alphabet": list(channel.alphabet),
            "dims": channel.output_dim,
            "states": {a: matrix_to_literal(channel.state(a)) for a in channel.alphabet},
        }
    if isinstance(channel, BroadcastCQChannel):
        return {
            "kind": "broadcast",
            "alphabet": list(channel.alphabet),
            "dims": {"y1": channel.dims[0], "y2": channel.dims[1]},
            "states": {a: matrix_to_literal(channel.joint_state(a)) for a in channel.alphabet},
        }
    if isinstance(channel, MACCQChannel):
        a1, a2 = channel.alphabets
        return {
            "kind": "mac",
            "alphabets": [list(a1), list(a2)],
            "dims": channel.output_dim,
            "states": {f"{y1},{y2}": matrix_to_literal(channel.state(y1, y2)) for y1 in a1 for y2 in a2},
        }
    raise InvalidInputError(f"cannot serialize object of type {type(channel).__name__}")


def dump_json(obj) -> str:
    """obj as indented, key-sorted strict JSON.

    NaN and the infinities have no JSON encoding; they raise RelayError
    instead of being written as the NaN / Infinity extensions.
    """
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise RelayError(f"cannot encode output as strict JSON: {exc}") from None


def save_channel(channel, path: str):
    text = dump_json(channel_to_jsonable(channel))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Canonical test families.
# ---------------------------------------------------------------------------


def basis_state(index: int, dim: int) -> np.ndarray:
    v = np.zeros((dim, 1), dtype=complex)
    v[index, 0] = 1.0
    return v @ v.conj().T


def orthogonal_pure_channel(dim: int = 2) -> CQChannel:
    """Each letter maps to a distinct computational basis state."""
    if dim < 1:
        raise InvalidInputError("dimension must be positive")
    return CQChannel(
        tuple(str(i) for i in range(dim)),
        {str(i): basis_state(i, dim) for i in range(dim)},
    )


def overlap_pair_channel() -> CQChannel:
    """Two pure qubit states with overlap 1/sqrt(2)."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    return CQChannel(("0", "+"), {"0": basis_state(0, 2), "+": plus})


def depolarized_channel(p: float, dim: int = 2) -> CQChannel:
    """Basis states mixed with the maximally mixed state: (1-p)|x><x| + p*id/dim."""
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"mixing weight must lie in [0, 1], got {p}")
    eye = np.eye(dim, dtype=complex) / dim
    return CQChannel(
        tuple(str(i) for i in range(dim)),
        {str(i): (1.0 - p) * basis_state(i, dim) + p * eye for i in range(dim)},
    )


def constant_channel(n_inputs: int = 2, dim: int = 2) -> CQChannel:
    """Every input emits the maximally mixed state; zero transmissible information."""
    eye = np.eye(dim, dtype=complex) / dim
    return CQChannel(
        tuple(str(i) for i in range(n_inputs)),
        {str(i): eye.copy() for i in range(n_inputs)},
    )


def adder_mac_channel() -> MACCQChannel:
    """Binary senders; the output is the basis state indexed by y1 + y2."""
    states = {
        (str(y1), str(y2)): basis_state(y1 + y2, 3) for y1 in (0, 1) for y2 in (0, 1)
    }
    return MACCQChannel((("0", "1"), ("0", "1")), states)


def product_broadcast_channel(ch1: CQChannel, ch2: CQChannel) -> BroadcastCQChannel:
    """Broadcast channel whose joint output is W1(x) tensor W2(x)."""
    if ch1.alphabet != ch2.alphabet:
        raise InvalidInputError("component channels must share an input alphabet")
    states = {a: np.kron(ch1.state(a), ch2.state(a)) for a in ch1.alphabet}
    return BroadcastCQChannel(ch1.alphabet, (ch1.output_dim, ch2.output_dim), states)
