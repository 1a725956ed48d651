"""Counter-based random streams for round-synchronous simulation.

Every variate consumed anywhere in the simulator is addressed by a tuple
(master_seed, stream kind, entity id, round, run) and produced by hashing
that tuple. There is no sequential generator state, so the value of any
variate is independent of evaluation order, batching, and thread count.
This is the reproducibility contract the rest of the package relies on:
re-running any experiment with the same seed reproduces it bit for bit,
and perturbing one entity's streams provably cannot touch another's.

The hash is a chained splitmix64-style finalizer (Steele et al., the
java.util.SplittableRandom mixer) applied word by word, vectorized over
numpy uint64 arrays. It is statistical-quality mixing, not cryptographic.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64

# splitmix64 increment and finalizer multipliers
_GAMMA = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)

# Stream kinds. Node kinds are salted per vertex (see RandomTape.with_node_salt);
# edge-coin streams belong to edges and are never node-salted.
KIND_NODE_PROPOSAL = U64(1)
KIND_NODE_BETA = U64(2)
KIND_EDGE_COIN = U64(3)
KIND_INIT_CONFIG = U64(4)
KIND_GRAPH_PAIRING = U64(5)

_INV_2_53 = 1.0 / float(1 << 53)


# words per finalizer pass: its temporary and the block it works on stay
# in cache through the six steps
_MIX_BLOCK = 1 << 15


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on the C-contiguous uint64 array h,
    block by block through one temporary of at most _MIX_BLOCK words; full
    avalanche on 64-bit words."""
    flat = h.reshape(-1)
    t = np.empty(min(flat.size, _MIX_BLOCK), U64)
    for lo in range(0, flat.size, _MIX_BLOCK):
        b = flat[lo:lo + _MIX_BLOCK]
        tb = t[:b.size]
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            b ^= np.right_shift(b, U64(shift), out=tb)
            b *= mult
        b ^= np.right_shift(b, U64(31), out=tb)
    return h


def fold(h, w) -> np.ndarray:
    """Absorb one word into a running hash. Broadcasts like a ufunc.

    Multiplication by an odd constant is a bijection on uint64, so distinct
    words map to distinct pre-mix states for a fixed running hash; the
    finalizer then decorrelates them. uint64 wraparound is intended. The
    operands are offset and scaled at their own size; the result is built
    and finalized in place.
    """
    # array arithmetic wraps silently; only numpy scalar arithmetic warns
    h = np.asarray(h, dtype=U64) + _GAMMA
    w = np.asarray(w, dtype=U64) * _MIX1
    # an array even for 0-d operands, whose xor is a numpy scalar that
    # _mix64 could not finalize in place
    out = np.empty(np.broadcast(h, w).shape, U64)
    return _mix64(np.bitwise_xor(h, w, out=out))


def hash_words(*words) -> np.ndarray:
    """Fold a sequence of uint64 words (arrays broadcast) into one hash."""
    h = np.asarray(U64(0))
    for w in words:
        h = fold(h, w)
    return h


def uniform_from_bits(h: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to float64 uniforms in [0, 1) using the top 53 bits.

    The multiply converts each 53-bit word to float64 exactly in its loop,
    so no float copy of the words is made first."""
    return np.multiply(h >> U64(11), _INV_2_53)


class RandomTape:
    """Addressable randomness for one experiment.

    Node streams (proposal, beta) are keyed by vertex id and can be re-salted
    per vertex with `with_node_salt`, which replaces every variate that vertex
    will ever draw while leaving all other streams untouched. That surgical
    perturbation is what the locality experiments use.

    Every accessor hashes one variate per addressed (entity, round, run)
    triple, and its address arguments broadcast against each other the way
    fold's do: the result has their broadcast shape. A caller picks its
    layout with the shapes it passes; entities[:, None] with a 1-D runs
    gives one row per entity, runs[:, None] one row per run, and 1-D
    entities and runs of one length give one variate per listed pair.

    The round-free part of a node address is hashed once and kept: per
    node kind, the (kind, entity, salt) state of every entity id up to the
    largest asked for. A node accessor then folds only its round and run
    words; a scalar round is folded once per entity id up to the largest
    asked for, before the entities are taken. The tables are built on
    first use; threads that share the tape and build one at the same time
    compute equal values, so either copy may be kept.
    """

    def __init__(self, master_seed: int, node_salts: np.ndarray | None = None):
        self.master_seed = int(master_seed)
        self._base = fold(U64(0), U64(self.master_seed % (1 << 64)))
        self.node_salts = None if node_salts is None else np.asarray(node_salts, dtype=U64)
        self._node_tables: dict[int, np.ndarray] = {}

    def with_node_salt(self, vertex: int, salt: int, n: int) -> "RandomTape":
        """A tape identical to this one except vertex's node streams are
        replaced; it keeps its own prefix tables."""
        if not 0 <= vertex < n:
            raise ValueError(f"vertex {vertex} out of range for n={n}")
        salts = np.zeros(n, dtype=U64) if self.node_salts is None else self.node_salts.copy()
        if len(salts) < n:
            raise ValueError("salt vector shorter than vertex count")
        salts[vertex] = U64(salt % (1 << 64))
        return RandomTape(self.master_seed, salts)

    def _words(self, kind, entities, round_, runs) -> np.ndarray:
        """The node address path: the words of (kind, entities, round_,
        runs), broadcast like fold."""
        ids = np.asarray(entities, dtype=np.int64)
        need = int(ids.max(initial=-1)) + 1
        table = self._node_tables.get(int(kind))
        if table is None or len(table) < need:
            # salt word always folded (0 when unsalted) so salted and
            # unsalted tapes agree everywhere except the re-salted vertex
            salts = U64(0) if self.node_salts is None else self.node_salts[:need]
            table = fold(fold(fold(self._base, kind), np.arange(need, dtype=U64)),
                         salts)
            self._node_tables[int(kind)] = table
        if np.ndim(round_) == 0:
            # once per id up to the largest, then taken
            h = np.take(fold(table[:need], round_), ids)
        else:
            h = fold(np.take(table, ids), round_)
        return fold(h, runs)

    def node_words(self, kind, entities, round_, runs) -> np.ndarray:
        """Raw uint64 hash words of the broadcast addresses.

        Full 64-bit words are what the local-maximum selection rule compares,
        so ties carry no float rounding ambiguity.
        """
        return self._words(kind, entities, round_, runs)

    def node_uniforms(self, kind, entities, round_, runs) -> np.ndarray:
        """Uniforms in [0, 1) of the broadcast addresses: node_words mapped
        through uniform_from_bits."""
        return uniform_from_bits(self._words(kind, entities, round_, runs))

    def node_words_over_rounds(self, kind, entities, rounds, run: int = 0) -> np.ndarray:
        """Words for one run across many rounds, shape (len(rounds),
        len(entities)): row t holds what that run reads in round rounds[t]."""
        return self._words(kind, entities, np.reshape(rounds, (-1, 1)), run)

    def edge_uniforms(self, eu, ev, emult, round_, runs) -> np.ndarray:
        """Shared per-edge coins of the broadcast addresses.

        The edge identity is (min endpoint, max endpoint, multiplicity index),
        so both endpoints derive the same coin and parallel edges get
        independent ones. Node salts deliberately do not enter.
        """
        h = fold(self._base, KIND_EDGE_COIN)
        for w in (eu, ev, emult, round_, runs):
            h = fold(h, w)
        return uniform_from_bits(h)
