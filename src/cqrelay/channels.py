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
    _integral,
    _require_within_cap,
    hermitian_part,
    partial_trace,
    tensor_all,
    validate_density,
    von_neumann_entropy,
)


def _state_table(alphabets, states, name: str, dim: int | None = None, validate: bool = True):
    """A channel's table of letter states, and their dimension.

    alphabets lists (labels, what) pairs; each must be nonempty with
    distinct labels.  The keys are the letters of one alphabet, or the
    sender-letter pairs of two.  Each key's state is looked up in states
    and checked as a density operator, and all must share one dimension:
    dim when given, else the first state's.  name prefixes the key in
    messages.  With validate=False, states is returned as given and only
    the first key's state is read, for the dimension.
    """
    for labels, what in alphabets:
        if not labels:
            raise InvalidInputError(f"{what} is empty")
        if len(set(labels)) != len(labels):
            raise InvalidInputError(f"{what} labels must be distinct")
    keys = alphabets[0][0] if len(alphabets) == 1 else list(itertools.product(*(a for a, _ in alphabets)))
    if not validate:
        keys = keys[:1]
    table = {}
    for key in keys:
        try:
            raw = states[key]
        except KeyError:
            raise InvalidInputError(f"missing {name} {key!r}") from None
        st = validate_density(raw, name=f"{name} {key!r}") if validate else np.asarray(raw)
        if dim is None:
            dim = st.shape[0]
        elif st.shape[0] != dim:
            raise InvalidInputError(f"{name} {key!r} has dimension {st.shape[0]}, expected {dim}")
        table[key] = st
    return (table if validate else states), int(dim)


class CQChannel:
    """Map from a finite classical alphabet into density operators.

    With validate=False the states mapping is kept as given, unchecked; a
    product extension passes its lazy word-state table this way.
    """

    def __init__(self, alphabet, states, *, validate: bool = True):
        self._alphabet = tuple(alphabet)
        self._states, self._dim = _state_table(
            [(self._alphabet, "channel alphabet")], states, "state for input", validate=validate
        )

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


def _letter_sum(weights, letter):
    """The sum of w_j * letter(j) over the letter indices j, in alphabet order.

    weights is one weight vector or a (..., |A|) stack of weight rows, and
    letter(j) is letter j's state or its entropy, or a stack of either.
    Letters are read one at a time, so a product extension's |A|^n states
    are never held together, and a letter whose weight is 0 in every row is
    not read.  A row's zero weights add exact zeros, so each row's sum is
    the one-vector sum of that row, bit for bit.
    """
    weights = np.asarray(weights, dtype=float)
    total = 0.0
    for j in np.flatnonzero((weights > 0.0).reshape(-1, weights.shape[-1]).any(axis=0)).tolist():
        value = np.asarray(letter(j))
        total = total + weights[..., j].reshape(weights.shape[:-1] + (1,) * value.ndim) * value
    return total


def _averaged_states(channel: CQChannel, weights) -> np.ndarray:
    """Hermitian part of the average output state, per weight row."""
    return hermitian_part(_letter_sum(weights, lambda j: channel.state(channel.alphabet[j])))


def _letter_entropy(channel: CQChannel, weights):
    """Weighted average of the letter-state entropies in bits, per weight row."""
    return _letter_sum(weights, lambda j: von_neumann_entropy(channel.state(channel.alphabet[j])))


def _chi(channel: CQChannel, weights, letter_entropies=None):
    """Holevo information in bits, per weight row.  letter_entropies, when
    given, lists the letter-state entropies in alphabet order, so that a
    caller scoring many weight vectors decomposes each letter state once."""
    if letter_entropies is None:
        held = _letter_entropy(channel, weights)
    else:
        held = _letter_sum(weights, letter_entropies.__getitem__)
    return von_neumann_entropy(_averaged_states(channel, weights)) - held


def output_state(channel: CQChannel, dist: ProbabilityDistribution) -> np.ndarray:
    """Average output state under the given input distribution."""
    _require_matching_alphabet(channel.alphabet, dist)
    return _averaged_states(channel, dist.weights)


def conditional_entropy(channel: CQChannel, dist: ProbabilityDistribution) -> float:
    """Input-weighted average of the output-state entropies, in bits."""
    _require_matching_alphabet(channel.alphabet, dist)
    return float(_letter_entropy(channel, dist.weights))


def holevo_chi(channel: CQChannel, dist: ProbabilityDistribution) -> float:
    """Entropy of the average output minus the average output entropy, in bits."""
    _require_matching_alphabet(channel.alphabet, dist)
    return float(_chi(channel, dist.weights))


class BroadcastCQChannel:
    """Classical input, joint output state shared by two receivers."""

    def __init__(self, alphabet, dims: tuple[int, int], joint_states):
        self._alphabet = tuple(alphabet)
        d1, d2 = int(dims[0]), int(dims[1])
        if d1 < 1 or d2 < 1:
            raise InvalidInputError(f"receiver dimensions must be positive, got {dims}")
        self._dims = (d1, d2)
        self._states, _ = _state_table(
            [(self._alphabet, "broadcast alphabet")], joint_states, "joint state for input", d1 * d2
        )
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

    def __init__(self, alphabets, states):
        a1, a2 = tuple(alphabets[0]), tuple(alphabets[1])
        self._alphabets = (a1, a2)
        self._states, self._dim = _state_table(
            [(a1, "first sender alphabet"), (a2, "second sender alphabet")], states, "state for input pair"
        )

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


def _file_states(data, keys, what: str, literal_what: str | None = None) -> dict:
    """The matrix literals of data['states'] as a table, read in key order.

    keys lists (file key, table key) pairs; a missing file key is
    "missing <what> <key>", a bad literal is named "<literal_what> <key>".
    """
    states_raw = data.get("states")
    if not isinstance(states_raw, dict):
        raise InvalidInputError("'states' must be an object keyed by input label")
    states = {}
    for file_key, key in keys:
        if file_key not in states_raw:
            raise InvalidInputError(f"missing {what} {file_key!r}")
        states[key] = matrix_from_literal(states_raw[file_key], name=f"{literal_what or what} {file_key!r}")
    return states


def _check_declared_dims(data, dim: int) -> None:
    dims = data.get("dims")
    if dims is not None and dims != dim:
        raise InvalidInputError(f"declared dims {dims!r} but states have dimension {dim}")


def _parse_cq(data) -> CQChannel:
    alphabet = _parse_labels(data.get("alphabet"), "'alphabet'")
    ch = CQChannel(alphabet, _file_states(data, [(a, a) for a in alphabet], "state for input"))
    _check_declared_dims(data, ch.output_dim)
    return ch


def _parse_broadcast(data) -> BroadcastCQChannel:
    alphabet = _parse_labels(data.get("alphabet"), "'alphabet'")
    dims = data.get("dims")
    if not isinstance(dims, dict) or set(dims) != {"y1", "y2"}:
        raise InvalidInputError("broadcast 'dims' must be an object with keys 'y1' and 'y2'")
    d1, d2 = _integral(dims["y1"]), _integral(dims["y2"])
    if d1 is None or d2 is None:
        raise InvalidInputError(f"broadcast 'dims' entries must be integers, got {dims!r}")
    states = _file_states(data, [(a, a) for a in alphabet], "joint state for input")
    return BroadcastCQChannel(alphabet, (d1, d2), states)


def _mac_file_keys(a1, a2) -> list:
    """(file key "y1,y2", letter pair) for every pair of the two alphabets.

    Labels holding commas can spell one key for two distinct pairs; such
    alphabets have no file form and are refused.  (A repeated label repeats
    a pair; the channel's label rule refuses that.)
    """
    keys = [(f"{y1},{y2}", (y1, y2)) for y1 in a1 for y2 in a2]
    first = {}
    for key, pair in keys:
        if first.setdefault(key, pair) != pair:
            raise InvalidInputError(f"input pairs {first[key]!r} and {pair!r} share the state key {key!r}")
    return keys


def _parse_mac(data) -> MACCQChannel:
    alphabets = data.get("alphabets")
    if not isinstance(alphabets, list) or len(alphabets) != 2:
        raise InvalidInputError("'alphabets' must be a two-element list of label lists")
    a1 = _parse_labels(alphabets[0], "first sender alphabet")
    a2 = _parse_labels(alphabets[1], "second sender alphabet")
    mac = MACCQChannel((a1, a2), _file_states(data, _mac_file_keys(a1, a2), "state for input pair", "state for pair"))
    _check_declared_dims(data, mac.output_dim)
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
            "states": {key: matrix_to_literal(channel.state(*pair)) for key, pair in _mac_file_keys(a1, a2)},
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
