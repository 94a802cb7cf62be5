"""Cluster layer end-to-end: gateway routing, replication, failover.

Everything here crosses real TCP sockets: N backend
:class:`StationServer` threads plus a :class:`ClusterGateway` thread,
bootstrapped by :func:`hospital_cluster`.  The headline properties:

* a view fetched through the gateway is **byte-identical** to one from
  a direct single-station server (the acceptance criterion);
* repeat queries stay on the same backend, so the PR 4 view cache
  keeps hitting (routing composes with the cache);
* an UPDATE lands on the primary and is replicated to every holder in
  version lockstep, with exactly one INVALIDATED fanned out per
  version to the gateway's clients;
* killing the primary mid-session fails reads over to a replica with
  correct version trailers, and repair re-publishes the document onto
  the new preference node with a version floor so the PR 3 chain
  continues;
* a REBALANCE join re-places documents deterministically (the ring is
  pure), and FORWARD is refused outside an authenticated gateway link.
"""

import socket
import time

import pytest

from repro.cluster.ring import HashRing
from repro.cluster.topology import hospital_cluster
from repro.engine.station import SecureStation
from repro.accesscontrol.model import AccessRule, Policy
from repro.server.client import RemoteError, RemoteSession
from repro.server.protocol import (
    ERROR,
    FORWARD,
    HELLO,
    RESULT,
    FrameDecoder,
    json_frame,
)
from repro.server.service import ServerThread, StationServer, hospital_station
from repro.skipindex.updates import UpdateOp
from repro.xmlkit.parser import parse_document

FOLDERS = 2
SUBJECTS = ("secretary", "doctor0", "researcher")


def make_cluster(backends=3, replicas=2, documents=2):
    return hospital_cluster(
        backends=backends,
        replicas=replicas,
        documents=documents,
        folders=FOLDERS,
    )


def wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Serving through the gateway
# ----------------------------------------------------------------------
class TestGatewayServing:
    def test_views_byte_identical_to_direct_station(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            station, _subjects = hospital_station(folders=FOLDERS)
            direct_server = StationServer(station)
            with ServerThread(direct_server) as (dhost, dport):
                for subject in SUBJECTS:
                    with RemoteSession(host, port, subject) as via_gateway:
                        clustered = via_gateway.evaluate("hospital")
                    with RemoteSession(dhost, dport, subject) as direct:
                        local = direct.evaluate("hospital")
                    assert clustered.data == local.data, subject
                    assert clustered.trailer["failover"] == 0
        finally:
            cluster.stop()

    def test_routing_composes_with_view_cache_and_stats(self):
        cluster, docs, subjects = make_cluster()
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                first = session.evaluate("hospital")
                second = session.evaluate("hospital")
                assert not first.cached
                assert second.cached  # same backend -> view-cache hit
                assert second.data == first.data
                topology = session.topology()
                primary = topology["documents"]["hospital"]["primary"]
                assert first.trailer["backend"] == primary
                assert second.trailer["backend"] == primary
                # Placement respects R and the (deterministic) ring.
                for doc in docs:
                    entry = topology["documents"][doc]
                    assert len(entry["nodes"]) == 2
                    assert entry["primary"] in entry["nodes"]
                # Aggregated stats: per-backend counters + summed
                # station counters from every live backend.
                stats = session.stats()
                assert stats["role"] == "gateway"
                assert set(stats["per_backend"]) == set(cluster.nodes)
                assert stats["station"]["view_hits"] >= 1
                assert stats["server"]["forwards"] >= 2
                served = sum(
                    entry["requests"]
                    for entry in stats["per_backend"].values()
                )
                assert served == 2
                # Health probes answer on both tiers.
                pong = session.ping()
                assert pong["ok"] and pong["role"] == "gateway"
                assert pong["documents"]["hospital"] == 0
            node = next(iter(cluster.nodes.values()))
            with RemoteSession(*node.address, "secretary") as backend:
                pong = backend.ping()
                assert pong["ok"] and pong["role"] == "station"
        finally:
            cluster.stop()

    def test_structured_errors_pass_through(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                with pytest.raises(RemoteError) as excinfo:
                    session.evaluate("no-such-document")
                assert excinfo.value.code in ("unknown-document", "unavailable")
            with RemoteSession(host, port, "nobody") as session:
                with pytest.raises(RemoteError) as excinfo:
                    session.evaluate("hospital")
                assert excinfo.value.code == "no-grant"
        finally:
            cluster.stop()

    def test_non_string_hello_subject_gets_bad_frame_error(self):
        cluster, _docs, _subjects = make_cluster(documents=1)
        try:
            decoder = FrameDecoder()
            address = cluster.gateway_address
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(json_frame(HELLO, 0, {"subject": None}))
                frames = []
                while not frames:
                    data = sock.recv(65536)
                    if not data:
                        break
                    frames = decoder.feed(data)
            assert frames and frames[0].type == ERROR
            assert frames[0].json() == {
                "code": "bad-frame",
                "message": "HELLO payload must carry a subject",
            }
        finally:
            cluster.stop()


# ----------------------------------------------------------------------
# Updates: primary routing, replication, invalidation fan-out
# ----------------------------------------------------------------------
class TestClusterUpdates:
    def test_update_replicates_in_version_lockstep(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            watcher = RemoteSession(host, port, "doctor0", cache_views=True)
            before = watcher.evaluate("hospital")
            with RemoteSession(host, port, "secretary") as session:
                op = UpdateOp(
                    "insert_element",
                    [],
                    node=parse_document(
                        "<Folder><Admin><SSN>replicated</SSN></Admin></Folder>"
                    ),
                )
                trailer = session.update("hospital", op)
            assert trailer["version"] == 1
            assert trailer["replicas"] == 2  # primary + one replica
            with cluster.control_session() as control:
                topology = control.topology()
            entry = topology["documents"]["hospital"]
            assert trailer["backend"] == entry["primary"]
            # Every holder applied the same op: version lockstep.
            for name in entry["nodes"]:
                station = cluster.nodes[name].station
                assert station.document_version("hospital") == 1
            # Exactly one INVALIDATED reached the watcher, and its
            # cached view was refreshed transparently.
            assert wait_until(lambda: watcher.poll_notifications() > 0)
            assert watcher.document_versions["hospital"] == 1
            after = watcher.evaluate("hospital")
            assert after.trailer["version"] == 1
            assert before.trailer["version"] == 0
            watcher.close()
            # A subject whose policy admits the new folder sees it, at
            # the new version, through the gateway.
            with RemoteSession(host, port, "secretary") as reader:
                fresh = reader.evaluate("hospital")
            assert fresh.trailer["version"] == 1
            assert b"replicated" in fresh.data
        finally:
            cluster.stop()

    def test_update_requires_grant_through_gateway(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "nobody") as session:
                op = UpdateOp(
                    "insert_element",
                    [],
                    node=parse_document("<Folder>nope</Folder>"),
                )
                with pytest.raises(RemoteError) as excinfo:
                    session.update("hospital", op)
                assert excinfo.value.code == "no-grant"
        finally:
            cluster.stop()


# ----------------------------------------------------------------------
# Failover: kill the primary mid-session
# ----------------------------------------------------------------------
class TestFailover:
    def test_kill_primary_mid_session_completes_on_replica(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                before = session.evaluate("hospital")
                assert before.trailer["failover"] == 0
                primary = cluster.primary_of("hospital")
                cluster.kill_backend(primary)
                # Same session, same in-flight client: the gateway must
                # absorb the dead primary and serve from a replica.
                after = session.evaluate("hospital")
                assert after.data == before.data
                assert after.trailer["failover"] == 1
                assert after.trailer["backend"] != primary
                assert after.trailer["version"] == before.trailer["version"]

                # Repair: the document is re-published onto the new
                # preference node, back to full replication.
                def repaired():
                    entry = session.topology()["documents"]["hospital"]
                    return (
                        len(entry["nodes"]) == 2
                        and primary not in entry["nodes"]
                    )

                assert wait_until(repaired)
        finally:
            cluster.stop()

    def test_version_chain_continues_after_failover_republish(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                # Advance the chain to version 2 before the failure.
                for index in range(2):
                    op = UpdateOp(
                        "insert_element",
                        [],
                        node=parse_document("<Folder>v%d</Folder>" % index),
                    )
                    trailer = session.update("hospital", op)
                assert trailer["version"] == 2
                primary = cluster.primary_of("hospital")
                cluster.kill_backend(primary)
                survived = session.evaluate("hospital")
                assert survived.trailer["version"] == 2

                def repaired():
                    entry = session.topology()["documents"]["hospital"]
                    return len(entry["nodes"]) == 2

                assert wait_until(repaired)
                entry = session.topology()["documents"]["hospital"]
                replacement = [
                    name
                    for name in entry["nodes"]
                    if name != survived.trailer["backend"]
                ]
                # The re-published copy continued the chain: its
                # version (and encryption floor) is >= the version
                # clients already saw — never a restart from 0.
                for name in entry["nodes"]:
                    station = cluster.nodes[name].station
                    assert station.document_version("hospital") >= 2
                    assert station.document("hospital").secure.version >= 2
                assert replacement, entry
                # And the next update keeps counting from there, in
                # lockstep across old and new holders.
                op = UpdateOp(
                    "insert_element",
                    [],
                    node=parse_document("<Folder>post-failover</Folder>"),
                )
                trailer = session.update("hospital", op)
                assert trailer["version"] == 3
                assert trailer["replicas"] == 2
                for name in entry["nodes"]:
                    station = cluster.nodes[name].station
                    assert station.document_version("hospital") == 3
        finally:
            cluster.stop()

    def test_reads_survive_down_to_last_replica(self):
        cluster, docs, subjects = make_cluster(documents=1)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                before = session.evaluate("hospital")
                # Kill every backend except one *holder* — including
                # the primary — leaving a single live replica.
                keep = session.topology()["documents"]["hospital"][
                    "nodes"
                ][-1]
                for node in list(cluster.live_nodes()):
                    if node.name != keep:
                        cluster.kill_backend(node.name)
                after = session.evaluate("hospital")
                assert after.data == before.data
                assert after.trailer["backend"] == keep
        finally:
            cluster.stop()


# ----------------------------------------------------------------------
# Rebalance: a backend joins (or leaves) at runtime
# ----------------------------------------------------------------------
class TestRebalance:
    def test_join_replaces_deterministically(self):
        cluster, docs, subjects = make_cluster(backends=2, replicas=2)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                baseline = {doc: session.evaluate(doc).data for doc in docs}
            node = cluster.join_backend()  # node2, via a REBALANCE frame
            # Placement after the join is a pure function of the ring.
            expected = HashRing(["node0", "node1", node.name], vnodes=64)
            with cluster.control_session() as control:
                topology = control.topology()
            assert topology["backends"][node.name]["alive"]
            for doc in docs:
                want = expected.preference(doc, 2)
                entry = topology["documents"][doc]
                assert entry["primary"] == want[0]
                # Every preference node holds a copy (existing holders
                # keep theirs — the gateway never unpublishes).
                assert set(want) <= set(entry["nodes"])
                # A re-placed copy is a real, queryable replica.
                if node.name in want:
                    assert (
                        node.station.document_version(doc) >= 0
                    )
            # Views are unchanged by the re-placement.
            with RemoteSession(host, port, "secretary") as session:
                for doc in docs:
                    assert session.evaluate(doc).data == baseline[doc]
        finally:
            cluster.stop()

    def test_join_duplicate_and_leave_unknown_are_errors(self):
        cluster, docs, subjects = make_cluster(backends=2)
        try:
            with cluster.control_session() as control:
                with pytest.raises(RemoteError) as excinfo:
                    control.rebalance(
                        "join", "node0", cluster.nodes["node0"].address
                    )
                assert excinfo.value.code == "rebalance"
                with pytest.raises(RemoteError) as excinfo:
                    control.rebalance("leave", "ghost")
                assert excinfo.value.code == "rebalance"
        finally:
            cluster.stop()

    def test_graceful_leave_drains_to_survivors(self):
        cluster, docs, subjects = make_cluster(backends=3, replicas=2)
        try:
            host, port = cluster.gateway_address
            with RemoteSession(host, port, "secretary") as session:
                baseline = {doc: session.evaluate(doc).data for doc in docs}
            victim = cluster.primary_of(docs[0])
            with cluster.control_session() as control:
                reply = control.rebalance("leave", victim)
                assert reply["action"] == "leave"
                topology = control.topology()
            for doc in docs:
                entry = topology["documents"][doc]
                assert victim not in entry["nodes"]
                assert len(entry["nodes"]) == 2
            with RemoteSession(host, port, "secretary") as session:
                for doc in docs:
                    assert session.evaluate(doc).data == baseline[doc]
        finally:
            cluster.stop()


# ----------------------------------------------------------------------
# FORWARD authentication + version floor + reconnect
# ----------------------------------------------------------------------
class TestForwardSecurity:
    def _forward_as(self, address, hello):
        """HELLO with ``hello``, then a FORWARD; returns the reply frame."""
        decoder = FrameDecoder()
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(json_frame(1, 0, hello))  # HELLO
            frames = []
            while not frames:
                frames.extend(decoder.feed(sock.recv(65536)))
            welcome = frames.pop(0)
            sock.sendall(
                json_frame(
                    FORWARD,
                    0,
                    {
                        "kind": "query",
                        "subject": "secretary",
                        "document": "hospital",
                    },
                )
            )
            while not any(f.type in (RESULT, ERROR) for f in frames):
                data = sock.recv(65536)
                if not data:
                    return welcome, None
                frames.extend(decoder.feed(data))
            return welcome, [
                f for f in frames if f.type in (RESULT, ERROR)
            ][0]

    def test_forward_refused_without_gateway_role(self):
        station, subjects = hospital_station(folders=FOLDERS)
        server = StationServer(station, allow_forward=True)
        with ServerThread(server) as address:
            welcome, reply = self._forward_as(
                address, {"subject": "someone"}
            )
            assert not welcome.json()["gateway"]
            assert reply is not None and reply.type == ERROR
            assert reply.json()["code"] == "protocol"

    def test_forward_refused_when_server_disallows(self):
        station, subjects = hospital_station(folders=FOLDERS)
        server = StationServer(station)  # allow_forward off (default)
        with ServerThread(server) as address:
            welcome, reply = self._forward_as(
                address, {"subject": "gw", "gateway": True}
            )
            # The role is silently not granted, so FORWARD is refused.
            assert not welcome.json()["gateway"]
            assert reply is not None and reply.type == ERROR

    def test_forward_serves_with_gateway_role(self):
        station, subjects = hospital_station(folders=FOLDERS)
        server = StationServer(station, allow_forward=True)
        with ServerThread(server) as address:
            welcome, reply = self._forward_as(
                address, {"subject": "gw", "gateway": True}
            )
            assert welcome.json()["gateway"]
            assert reply is not None and reply.type == RESULT
            trailer = reply.json()
            assert trailer["subject"] == "secretary"
            assert trailer["version"] == 0


class TestVersionFloor:
    def test_publish_fresh_document_at_floor(self):
        station = SecureStation()
        station.publish(
            "doc", parse_document("<a><b>x</b></a>"), version_floor=5
        )
        assert station.document_version("doc") == 5
        # The encryption version (bound into every chunk MAC) starts
        # at the floor too: pre-floor records can never verify here.
        assert station.document("doc").secure.version == 5
        station.grant(
            "doc", Policy([AccessRule("+", "//a")], subject="alice")
        )
        op = UpdateOp("update_text", [0], text="y")
        result = station.update("doc", op)
        assert result.version == 6

    def test_floor_applies_to_prepared_republication(self):
        station = SecureStation()
        prepared = station.publish("doc", parse_document("<a>1</a>"))
        other = SecureStation()
        other.publish("doc", prepared, version_floor=3)
        assert other.document_version("doc") == 3

    def test_floor_zero_is_the_old_behavior(self):
        station = SecureStation()
        station.publish("doc", parse_document("<a>1</a>"))
        assert station.document_version("doc") == 0


class TestAutoReconnect:
    def test_transparent_reconnect_preserves_api(self):
        station, subjects = hospital_station(folders=FOLDERS)
        thread = ServerThread(StationServer(station))
        host, port = thread.start()
        session = RemoteSession(
            host, port, "secretary", auto_reconnect=True
        )
        try:
            before = session.evaluate("hospital")
            thread.stop()
            # Same station, same port: the "server restarted" scenario.
            thread = ServerThread(StationServer(station, port=port))
            thread.start()
            after = session.evaluate("hospital")
            assert after.data == before.data
            assert session.reconnects == 1
        finally:
            session.close()
            thread.stop()

    def test_without_opt_in_the_error_surfaces(self):
        station, subjects = hospital_station(folders=FOLDERS)
        thread = ServerThread(StationServer(station))
        host, port = thread.start()
        session = RemoteSession(host, port, "secretary")
        try:
            session.evaluate("hospital")
            thread.stop()
            with pytest.raises((ConnectionError, OSError)):
                session.evaluate("hospital")
        finally:
            session.close()
