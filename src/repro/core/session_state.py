"""The serializable session record (externalized session state).

A multi-round feedback dialogue (§3.2) is long-lived: a user browses a
few screens, thinks, marks, and comes back — possibly minutes later,
possibly routed to a different worker.  Keeping the
:class:`~repro.core.session.FeedbackSession` object in one process's
memory pins the user to that process and caps concurrency at whatever
one worker's RAM holds.  This module splits the session into *pure
logic* (the ``FeedbackSession`` methods) and a compact, serializable
:class:`SessionState` record, so any worker can rehydrate any session
from a shared :class:`~repro.sessionstore.SessionStore` and continue it
**bit-identically** — including the "Random" browse picks, because the
record carries the exact bit-generator state of the session's RNG.

The codec is versioned (``state_format``): decoders for old formats
stay registered in :data:`_DECODERS`, so records written by an earlier
release keep loading after the schema grows new fields.

Resume safety is enforced with two fingerprints carried by the record:

* ``structure_version`` — the :attr:`repro.index.rfs.RFSStructure.
  structure_version` the session was captured against.  Incremental
  mutations and store swaps bump it; resuming against a different
  version raises :class:`~repro.errors.StaleSessionError` (node ids and
  routing may no longer mean the same thing).
* ``config_fingerprint`` — a digest of the *ranking-relevant* QD
  parameters (boundary threshold, display size, round budget).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Tuple

import numpy as np

from repro.config import QDConfig
from repro.errors import SessionCodecError

#: Current on-the-wire format of :meth:`SessionState.to_dict`.
STATE_FORMAT_VERSION = 1

#: ``replacing=`` of a session-store write that lands whatever record
#: is stored (:meth:`repro.sessionstore.SessionStore.put`), and what a
#: session restored from a bare record writes with: it never saw the
#: stored one.
ANY_RECORD: Any = object()


def config_fingerprint(config: QDConfig) -> str:
    """Digest of the QD parameters that affect session behaviour.

    Only ranking-relevant fields participate.
    """
    return _fingerprint(
        config.boundary_threshold, config.display_size, config.max_rounds
    )


@functools.lru_cache(maxsize=64, typed=True)
def _fingerprint(
    boundary_threshold: float, display_size: int, max_rounds: int
) -> str:
    # Memoized: every capture and every restore asks for the digest of
    # the same few frozen configs.  ``typed`` keeps ``21`` and ``21.0``
    # apart, as their reprs are.
    material = repr(
        ("qd-session", boundary_threshold, display_size, max_rounds)
    ).encode()
    return hashlib.blake2b(material, digest_size=8).hexdigest()


def key_sorted(value: Any) -> Any:
    """A copy of ``value`` with every dict in it in sorted-key order.

    Python dicts keep insertion order and the JSON encoder writes them
    in it, so a record whose dicts are built this way encodes to
    sorted-key text without the encoder sorting anything.
    """
    if isinstance(value, dict):
        return {key: key_sorted(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [key_sorted(item) for item in value]
    return value


def rng_record(state: Mapping[str, Any]) -> Dict[str, Any]:
    """A bit generator's ``state`` as a record keeps it.

    A numpy state is a dict that may hold one level of dicts; keys are
    sorted at both levels, and arrays (MT19937, Philox and SFC64 states
    hold some) become lists of ints, which every state setter takes
    back exactly.
    """
    record: Dict[str, Any] = {}
    for key in sorted(state):
        value = state[key]
        if isinstance(value, dict):
            value = {inner: _plain(value[inner]) for inner in sorted(value)}
        record[key] = _plain(value)
    return record


def _plain(value: Any) -> Any:
    return value.tolist() if isinstance(value, np.ndarray) else value


@dataclass(frozen=True)
class SubQueryState:
    """Serialized form of one active branch (:class:`~repro.core.subquery.SubQuery`).

    Only ids are stored — the node object is re-resolved from the RFS
    structure on restore, which is what makes the record small (a few
    hundred bytes) instead of a pickle of the tree.
    """

    node_id: int
    marked: Tuple[int, ...]
    shown: Tuple[int, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "marked": self.marked,
            "node_id": self.node_id,
            "shown": self.shown,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SubQueryState":
        return cls(
            node_id=int(data["node_id"]),
            marked=tuple(int(i) for i in data["marked"]),
            shown=tuple(int(i) for i in data["shown"]),
        )


@dataclass(frozen=True)
class SessionState:
    """Everything needed to resume a feedback session on any worker.

    Attributes
    ----------
    session_id:
        Stable identifier the session is stored and resumed under.
    round:
        Feedback rounds completed or in progress so far.
    awaiting_feedback:
        True when the session was suspended between ``display()`` and
        ``submit()`` — ``display_owner`` then carries the live screen.
    finalized:
        Whether ``finalize()`` already ran (a finalized record can no
        longer accept feedback).
    active:
        The decomposed subqueries, one record per active RFS node,
        sorted by node id.
    marked:
        Union of all relevant image ids identified so far.
    display_owner:
        ``image id -> owning node id`` for the current round's screen,
        in any order (:meth:`to_dict` writes the ids in string order);
        empty once the round's ``submit()`` ran.
    rng_state:
        Exact numpy bit-generator state of the session RNG; restoring
        it makes post-resume "Random" browse picks identical to the
        never-suspended run.  Keys sorted at every level, like
        ``extra``, and arrays held as lists (:func:`rng_record`).
    config_fingerprint:
        :func:`config_fingerprint` of the session's :class:`QDConfig`.
    structure_version:
        RFS structure version the session was captured against.
    created_unix / updated_unix:
        Wall-clock stamps; ``updated_unix`` drives TTL expiry sweeps.
    """

    session_id: str
    round: int
    awaiting_feedback: bool
    finalized: bool
    active: Tuple[SubQueryState, ...]
    marked: Tuple[int, ...]
    display_owner: Dict[int, int]
    rng_state: Dict[str, Any]
    config_fingerprint: str
    structure_version: int
    created_unix: float = 0.0
    updated_unix: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding (format :data:`STATE_FORMAT_VERSION`).

        Keys are in sorted order and the values are the record's own
        (id tuples encode as arrays), so the encoder neither sorts nor
        copies: read the result, edit only its top level.  The one copy
        is ``display_owner``, laid out in the order of its int keys as
        strings.  The other dicts come out sorted because whoever built
        the record made them so — :meth:`FeedbackSession.capture
        <repro.core.session.FeedbackSession.capture>` and the decoders
        do.  The JSON encoder's compact text of this dict is what
        :func:`~repro.sessionstore.base.encode_state` writes, without
        building it.
        """
        owner = self.display_owner
        return {
            "active": [sub.to_dict() for sub in self.active],
            "awaiting_feedback": self.awaiting_feedback,
            "config_fingerprint": self.config_fingerprint,
            "created_unix": self.created_unix,
            "display_owner": {k: owner[k] for k in sorted(owner, key=str)},
            "extra": self.extra,
            "finalized": self.finalized,
            "marked": self.marked,
            "rng_state": self.rng_state,
            "round": self.round,
            "session_id": self.session_id,
            "state_format": STATE_FORMAT_VERSION,
            "structure_version": self.structure_version,
            "updated_unix": self.updated_unix,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionState":
        """Decode a record produced by any supported ``state_format``."""
        if not isinstance(data, Mapping):
            raise SessionCodecError(
                f"session record must be an object, got "
                f"{type(data).__name__}"
            )
        version = data.get("state_format")
        decoder = _DECODERS.get(version)
        if decoder is None:
            raise SessionCodecError(
                f"unsupported session state_format {version!r} "
                f"(supported: {sorted(_DECODERS)})"
            )
        try:
            return decoder(data)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SessionCodecError(
                f"malformed session record: {exc!r}"
            ) from exc

    # ------------------------------------------------------------------
    def restore_rng(self) -> np.random.Generator:
        """Rebuild the session RNG exactly as it was at capture time.

        Any name but a :class:`numpy.random.BitGenerator` subclass's
        (``seed``, ``random``, ``Generator``, ...) raises
        :class:`SessionCodecError` before anything is called.
        """
        name = self.rng_state.get("bit_generator", "PCG64")
        kind = getattr(np.random, str(name), None)
        if kind not in np.random.BitGenerator.__subclasses__():
            raise SessionCodecError(
                f"unknown bit generator {name!r} in session record"
            )
        bit_generator = kind()
        # numpy reads the values out; it does not keep the dict.
        bit_generator.state = self.rng_state
        return np.random.Generator(bit_generator)

    @property
    def n_subqueries(self) -> int:
        """Number of active branches in the record."""
        return len(self.active)


def _decode_v1(data: Mapping[str, Any]) -> SessionState:
    owner = data["display_owner"]
    return SessionState(
        session_id=str(data["session_id"]),
        round=int(data["round"]),
        awaiting_feedback=bool(data["awaiting_feedback"]),
        finalized=bool(data["finalized"]),
        active=tuple(
            SubQueryState.from_dict(sub) for sub in data["active"]
        ),
        marked=tuple(int(i) for i in data["marked"]),
        display_owner={int(k): int(v) for k, v in owner.items()},
        rng_state=key_sorted(data["rng_state"]),
        config_fingerprint=str(data["config_fingerprint"]),
        structure_version=int(data["structure_version"]),
        created_unix=float(data.get("created_unix", 0.0)),
        updated_unix=float(data.get("updated_unix", 0.0)),
        extra=key_sorted(data.get("extra", {})),
    )


#: ``state_format -> decoder``; old formats stay readable forever.
_DECODERS: Dict[Any, Callable[[Mapping[str, Any]], SessionState]] = {
    1: _decode_v1,
}
