"""Engine layer: compiled plans and the multi-client station.

This package is the reusable, cache-backed core the rest of the
codebase routes through (see ``DESIGN.md`` for the layer diagram):

* :mod:`repro.engine.plans` — :func:`compile_policy` /
  :class:`PolicyPlan` / :class:`QueryPlan`: provisioning-time XPath
  parsing and automaton compilation, done once and reused across
  documents and requests;
* :mod:`repro.engine.station` — :class:`SecureStation`: a multi-client
  SOE facade with an LRU plan cache, per-session key material and a
  version-keyed view cache.  It publishes through one path (encode,
  then the store's ``put_stream``) and evaluates a cache miss with the
  paper's cold oracle, :class:`~repro.soe.session.SecureSession`.

Layering rule: engine modules may import every lower layer (xpath,
accesscontrol, skipindex, crypto, soe); lower layers import the engine
only lazily inside functions, so there are no import cycles.
"""

from repro.engine.plans import (
    PolicyPlan,
    QueryPlan,
    compile_policy,
    compile_query,
    policy_digest,
)
from repro.engine.station import (
    PublishOptions,
    SecureStation,
    StationConfig,
    StationError,
    StationSession,
    StationStats,
    UpdateResult,
    ViewStream,
    open_sealed,
    seal_payload,
)

__all__ = [
    # plans
    "PolicyPlan",
    "QueryPlan",
    "compile_policy",
    "compile_query",
    "policy_digest",
    # station
    "SecureStation",
    "StationConfig",
    "PublishOptions",
    "StationSession",
    "StationStats",
    "StationError",
    "UpdateResult",
    "ViewStream",
    "seal_payload",
    "open_sealed",
]
