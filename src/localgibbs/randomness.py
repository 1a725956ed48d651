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


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; full avalanche on 64-bit words."""
    h = h ^ (h >> U64(30))
    h = h * _MIX1
    h = h ^ (h >> U64(27))
    h = h * _MIX2
    return h ^ (h >> U64(31))


def fold(h, w):
    """Absorb one word into a running hash. Broadcasts like a ufunc.

    Multiplication by an odd constant is a bijection on uint64, so distinct
    words map to distinct pre-mix states for a fixed running hash; the
    finalizer then decorrelates them. uint64 wraparound is intended.
    """
    with np.errstate(over="ignore"):
        return _mix64((np.asarray(h, dtype=U64) + _GAMMA) ^ (np.asarray(w, dtype=U64) * _MIX1))


def hash_words(*words) -> np.ndarray:
    """Fold a sequence of uint64 words (arrays broadcast) into one hash."""
    h = np.asarray(U64(0))
    for w in words:
        h = fold(h, w)
    return h


def uniform_from_bits(h: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to float64 uniforms in [0, 1) using the top 53 bits."""
    return (h >> U64(11)).astype(np.float64) * _INV_2_53


class RandomTape:
    """Addressable randomness for one experiment.

    Node streams (proposal, beta) are keyed by vertex id and can be re-salted
    per vertex with `with_node_salt`, which replaces every variate that vertex
    will ever draw while leaving all other streams untouched. That surgical
    perturbation is what the locality experiments use.

    Every accessor hashes one variate per addressed (entity, round, run)
    triple; the layouts differ by consumer:

    * node_words: (len(entities), len(runs)), one row per vertex, as the
      local-maximum selection and the Metropolis proposals read them;
    * node_uniforms and edge_uniforms: (len(runs), len(entities)), one row
      per run, as the initial draw and the Metropolis coins read them;
    * node_uniforms_at: (len(entities),), one per listed (entity, run) pair,
      from one hashed prefix per entity id up to the largest listed;
    * node_words_over_rounds: (len(rounds), len(entities)) for one run.
    """

    def __init__(self, master_seed: int, node_salts: np.ndarray | None = None):
        self.master_seed = int(master_seed)
        self._base = fold(U64(0), U64(self.master_seed % (1 << 64)))
        self.node_salts = None if node_salts is None else np.asarray(node_salts, dtype=U64)

    def with_node_salt(self, vertex: int, salt: int, n: int) -> "RandomTape":
        """A tape identical to this one except vertex's node streams are replaced."""
        if not 0 <= vertex < n:
            raise ValueError(f"vertex {vertex} out of range for n={n}")
        salts = np.zeros(n, dtype=U64) if self.node_salts is None else self.node_salts.copy()
        if len(salts) < n:
            raise ValueError("salt vector shorter than vertex count")
        salts[vertex] = U64(salt % (1 << 64))
        return RandomTape(self.master_seed, salts)

    def _node_prefix(self, kind, entities, round_) -> np.ndarray:
        """Hash state after kind, entity, salt and round; broadcasts like fold."""
        entities = np.asarray(entities, dtype=U64)
        h = fold(fold(self._base, kind), entities)
        # salt word always folded (0 when unsalted) so salted and unsalted
        # tapes agree everywhere except the re-salted vertex
        if self.node_salts is None:
            h = fold(h, U64(0))
        else:
            h = fold(h, self.node_salts[entities.astype(np.int64)])
        return fold(h, round_)

    def node_words(self, kind, entities, round_, runs) -> np.ndarray:
        """Raw uint64 hash words, entity-major: shape (len(entities),
        len(runs)), entry [i, j] for (entities[i], runs[j]).

        Full 64-bit words are what the local-maximum selection rule compares,
        so ties carry no float rounding ambiguity; the selection works on
        one row per vertex, hence the layout.
        """
        runs = np.asarray(runs, dtype=U64)
        return fold(self._node_prefix(kind, entities, round_)[:, None],
                    runs[None, :])

    def node_uniforms(self, kind, entities, round_, runs) -> np.ndarray:
        """Uniforms in [0, 1), run-major: shape (len(runs), len(entities))."""
        runs = np.asarray(runs, dtype=U64)
        return uniform_from_bits(
            fold(self._node_prefix(kind, entities, round_)[None, :],
                 runs[:, None]))

    def node_uniforms_at(self, kind, entities, round_, runs) -> np.ndarray:
        """One uniform per (entities[i], runs[i]) pair, shape (len(entities),).

        Entry i equals node_uniforms(kind, [entities[i]], round_,
        [runs[i]])[0, 0]. The (kind, entity, salt, round) prefix is hashed
        once per entity id up to max(entities), and the run word per pair.
        """
        ents = np.asarray(entities, dtype=np.int64)
        prefix = self._node_prefix(kind, np.arange(ents.max(initial=-1) + 1), round_)
        return uniform_from_bits(fold(np.take(prefix, ents), runs))

    def node_words_over_rounds(self, kind, entities, rounds, run: int = 0) -> np.ndarray:
        """Hash words for a fixed run across many rounds, shape (len(rounds), n).

        Row t holds exactly the words that run would consume in round
        rounds[t]; used by selection-frequency scans.
        """
        entities = np.asarray(entities, dtype=U64)
        rounds = np.asarray(rounds, dtype=U64)
        h = self._node_prefix(kind, entities[None, :], rounds[:, None])
        return fold(h, U64(run))

    def edge_uniforms(self, eu, ev, emult, round_, runs) -> np.ndarray:
        """Shared per-edge coins, shape (len(runs), n_edges).

        The edge identity is (min endpoint, max endpoint, multiplicity index),
        so both endpoints derive the same coin and parallel edges get
        independent ones. Node salts deliberately do not enter.
        """
        eu = np.asarray(eu, dtype=U64)
        ev = np.asarray(ev, dtype=U64)
        emult = np.asarray(emult, dtype=U64)
        runs = np.asarray(runs, dtype=U64)
        h = fold(self._base, KIND_EDGE_COIN)
        h = fold(h, eu[None, :])
        h = fold(h, ev[None, :])
        h = fold(h, emult[None, :])
        h = fold(h, U64(round_))
        return uniform_from_bits(fold(h, runs[:, None]))
