"""Exception hierarchy for the Query Decomposition CBIR library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type to handle any library failure while still being
able to discriminate the precise cause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid parameter value was supplied to a component."""


class FeatureExtractionError(ReproError):
    """An image could not be converted to a feature vector."""


class InvalidImageError(FeatureExtractionError):
    """The input array is not a valid RGB image."""


class ClusteringError(ReproError):
    """A clustering routine failed (e.g. k larger than the sample count)."""


class IndexError_(ReproError):
    """Base class for R*-tree / RFS structure failures.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`IndexError`, which has a different meaning.
    """


class EmptyIndexError(IndexError_):
    """An operation required a non-empty index but the tree has no entries."""


class NodeNotFoundError(IndexError_):
    """A node id or representative image id did not resolve to a tree node."""


class QueryError(ReproError):
    """A retrieval query was malformed or issued in an invalid state."""


class SessionStateError(QueryError):
    """A feedback-session operation was invoked out of order.

    For example requesting final results before any feedback round, or
    giving feedback to a session that has already been finalized.
    """


class StaleSessionError(SessionStateError):
    """A session record no longer matches the serving structure/config.

    Raised on resume when the record's ``structure_version`` differs
    from the live RFS structure (the tree mutated since the checkpoint,
    so node ids and routing may have changed meaning) or when its config
    fingerprint does not match the resuming worker's ranking-relevant
    QD parameters — and on a checkpoint whose session was rewritten
    since the op read it (another op on the same session got there
    first; the refused write changed nothing).
    """


class SessionStoreError(ReproError):
    """A session-store backend operation failed."""


class SessionNotFoundError(SessionStoreError):
    """No session record exists under the requested id.

    Raised on resume of an unknown, expired, or already-finalized
    session id.
    """


class SessionCodecError(SessionStoreError):
    """A session record could not be encoded or decoded.

    Covers unsupported ``state_format`` versions and structurally
    malformed payloads (e.g. a truncated JSON file)."""


class DatasetError(ReproError):
    """A dataset could not be built, loaded, or validated."""


class StoreCodecError(DatasetError):
    """A saved feature store could not be decoded.

    Covers unsupported store format versions and foreign dtype or tier
    tags — cases where silently reinterpreting the bytes would corrupt
    every ranking served from the store."""


class UnknownConceptError(DatasetError):
    """A query referenced a concept absent from the dataset registry."""


class EvaluationError(ReproError):
    """An experiment driver was given inconsistent inputs."""
