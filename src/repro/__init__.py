"""repro — Client-Based Access Control Management for XML documents.

A faithful, full-system reproduction of Bouganim, Dang Ngoc & Pucheral
(VLDB 2004 / INRIA RR-5282): a streaming evaluator of XPath-based access
control rules running inside a simulated Secure Operating Environment
(smart card), with a Skip index over compressed encrypted XML, pending-
predicate management and Merkle-tree random integrity checking.

Quickstart::

    from repro import AccessRule, Policy, authorized_view, compile_policy
    from repro.xmlkit import parse_document

    doc = parse_document("<folder><admin>id</admin><acts>x</acts></folder>")
    policy = Policy([AccessRule("+", "//admin")], subject="secretary")
    view = authorized_view(doc, policy)

    # Serving many documents/requests: compile once, reuse everywhere.
    plan = compile_policy(policy)
    view = authorized_view(doc, plan)

The :mod:`repro.engine` layer holds the production-facing machinery:
compiled :class:`~repro.engine.plans.PolicyPlan` objects and the
multi-client :class:`~repro.engine.station.SecureStation` server.  The
paper's two halves of Fig. 2 live in :mod:`repro.soe.session`:
``prepare_document`` (the publisher) and ``SecureSession`` (the SOE).

See DESIGN.md for the system inventory (with the layer diagram) and
EXPERIMENTS.md for the paper-versus-measured record of every table and
figure.
"""

from typing import List, Optional, Union

from repro.accesscontrol.evaluator import StreamingEvaluator, evaluate_events
from repro.engine import (
    PolicyPlan,
    PublishOptions,
    QueryPlan,
    SecureStation,
    StationConfig,
    compile_policy,
    compile_query,
)
from repro.accesscontrol.model import (
    DENY,
    PENDING,
    PERMIT,
    AccessRule,
    Policy,
    make_policy,
    negative,
    positive,
)
from repro.accesscontrol.reference import reference_authorized_view
from repro.metrics import Meter
from repro.skipindex.updates import UpdateOp
from repro.xmlkit.dom import Node
from repro.xmlkit.events import Event

__version__ = "1.0.0"

__all__ = [
    "AccessRule",
    "Policy",
    "make_policy",
    "positive",
    "negative",
    "PERMIT",
    "DENY",
    "PENDING",
    "StreamingEvaluator",
    "evaluate_events",
    "reference_authorized_view",
    "authorized_view",
    "Meter",
    # engine layer
    "PolicyPlan",
    "QueryPlan",
    "compile_policy",
    "compile_query",
    "SecureStation",
    "StationConfig",
    "PublishOptions",
    "open_station",
    "connect",
    "UpdateOp",
    "__version__",
]


def authorized_view(
    document: Union[Node, List[Event]],
    policy: Union[Policy, PolicyPlan],
    query: Optional[str] = None,
    with_index: bool = True,
) -> List[Event]:
    """Authorized view of ``document`` under ``policy`` (streaming path).

    ``document`` is a DOM tree or an event list; the result is an event
    stream (use :func:`repro.xmlkit.events.events_to_tree` or
    :func:`repro.xmlkit.serialize_events` to materialize it).  ``policy``
    may be a precompiled :class:`~repro.engine.plans.PolicyPlan` (from
    :func:`compile_policy`) to amortize compilation across documents.
    """
    events = list(document.iter_events()) if isinstance(document, Node) else document
    return evaluate_events(events, policy, query=query, with_index=with_index)


def open_station(
    config: Optional[StationConfig] = None, **overrides
) -> SecureStation:
    """Open a :class:`SecureStation` from a :class:`StationConfig`.

    The one construction front door: the CLI, the server topology and
    the benchmarks all route through it, so every station in the system
    is describable as a config value.  Keyword ``overrides`` win over
    the config's fields (``open_station(cfg, prune=False)``)::

        station = repro.open_station(repro.StationConfig(context="pc"))
        station.publish("doc", xml, repro.PublishOptions(index=True))
    """
    return SecureStation(config, **overrides)


def connect(address: Union[str, tuple], subject: str, **options):
    """Open a :class:`~repro.server.client.RemoteSession` to a station
    server at ``address`` — ``"host:port"`` or a ``(host, port)`` pair.

    The client-side half of the unified API: ``options`` pass straight
    through to :class:`RemoteSession` (``timeout``, ``cache_views``,
    ``auto_reconnect``, ``trace``...).  Imported lazily so the core
    library stays importable without the server package.
    """
    from repro.server.client import RemoteSession

    if isinstance(address, str):
        host, _, port_text = address.rpartition(":")
        if not host or not port_text.isdigit():
            raise ValueError(
                "address must be 'host:port' or a (host, port) tuple, got %r"
                % (address,)
            )
        host, port = host, int(port_text)
    else:
        host, port = address
    return RemoteSession(host, int(port), subject, **options)
