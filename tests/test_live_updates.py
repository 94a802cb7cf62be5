"""Live document updates with version-bound integrity (the station's
update path) plus station thread-safety regressions.

The headline properties under test:

* an update that dirties k of N chunks re-encrypts <= k + O(1) chunks,
  never the whole store (best case), and cascades to a full
  re-encryption only in the paper's worst case;
* replaying any pre-update chunk record into the updated store raises
  ``IntegrityError`` (cross-version replay detection — the bugfix);
* in-flight readers finish against the pre-update snapshot
  (copy-on-write), never a mix of versions;
* concurrent connects mint unique session ids/keys and the plan LRU
  survives concurrent hammering (the station lock).
"""

import threading

import pytest

from repro.accesscontrol.model import AccessRule, Policy
from repro.crypto.chunks import ChunkLayout
from repro.crypto.integrity import IntegrityError, make_scheme
from repro.crypto.modes import versioned_position
from repro.engine import SecureStation, StationError
from repro.metrics import Meter
from repro.skipindex.updates import UpdateError, UpdateOp
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize_events

#: Fixed-width records so a same-length text edit keeps every other
#: byte of the encoding in place (the paper's best case).
DOC = (
    "<db>"
    + "".join(
        "<rec><id>%04d</id><val>value%04d</val></rec>" % (i, i)
        for i in range(200)
    )
    + "</db>"
)

#: Small chunks so the document spans many of them.
LAYOUT = ChunkLayout(chunk_size=256, fragment_size=64)


def build_station(scheme="ECB-MHT", **kwargs):
    station = SecureStation(**kwargs)
    station.publish("db", DOC, scheme=scheme, layout=LAYOUT)
    station.grant("db", Policy([AccessRule("+", "//db")], subject="alice"))
    return station


def view_text(station, document="db", subject="alice"):
    return serialize_events(station.evaluate(document, subject).events)


# ----------------------------------------------------------------------
# UpdateOp (the serializable edit unit)
# ----------------------------------------------------------------------
class TestUpdateOp:
    def test_dict_round_trip_all_kinds(self):
        ops = [
            UpdateOp.set_text([1, 2], "new text"),
            UpdateOp.rename([0], "newtag"),
            UpdateOp.delete([3]),
            UpdateOp.insert([0], parse_document("<x><y>z</y></x>"), position=1),
        ]
        for op in ops:
            clone = UpdateOp.from_dict(op.as_dict())
            assert clone.kind == op.kind
            assert clone.path == op.path
            assert clone.text == op.text
            assert clone.tag == op.tag
            assert clone.position == op.position
            if op.node is not None:
                assert clone.node == op.node

    def test_apply_matches_pure_functions(self):
        tree = parse_document("<a><b>x</b><c/></a>")
        updated = UpdateOp.set_text([0], "y").apply(tree)
        assert updated.find("b").text() == "y"
        assert tree.find("b").text() == "x"  # input untouched

    def test_validation(self):
        with pytest.raises(UpdateError):
            UpdateOp("no_such_kind", [])
        with pytest.raises(UpdateError):
            UpdateOp("update_text", [0])  # text missing
        with pytest.raises(UpdateError):
            UpdateOp("rename_element", [0])  # tag missing
        with pytest.raises(UpdateError):
            UpdateOp("insert_element", [])  # node missing
        with pytest.raises(UpdateError):
            UpdateOp.from_dict({"kind": "update_text", "path": ["a"], "text": "x"})
        with pytest.raises(UpdateError):
            UpdateOp.from_dict({"kind": "insert_element", "path": [], "xml": "<<<"})


# ----------------------------------------------------------------------
# The update path
# ----------------------------------------------------------------------
class TestStationUpdate:
    def test_local_edit_reencrypts_k_plus_constant_chunks(self):
        station = build_station()
        result = station.update("db", UpdateOp.set_text([50, 1], "CHANGED50"))
        assert result.version == 1
        assert result.total_chunks >= 10
        # The dirty set is exactly the chunks the diff touched; the
        # acceptance bound: k dirtied chunks cost <= k + O(1) rewrites.
        k = result.impact.chunks_to_reencrypt
        assert result.chunks_reencrypted <= k + 1
        # And a local same-length edit stays local.
        assert result.chunks_reencrypted <= 2
        assert not result.full_reencrypt
        assert result.reencrypted_bytes < result.total_chunks * LAYOUT.stored_chunk_size()

    def test_update_changes_the_served_view(self):
        station = build_station()
        assert "value0050" in view_text(station)
        station.update("db", UpdateOp.set_text([50, 1], "CHANGED50"))
        after = view_text(station)
        assert "CHANGED50" in after
        assert "value0050" not in after
        # Every other record is intact.
        assert "value0049" in after and "value0051" in after

    def test_version_counter_and_stats(self):
        station = build_station()
        assert station.document_version("db") == 0
        for n in range(1, 4):
            result = station.update(
                "db", UpdateOp.set_text([n, 1], "EDITED%03d" % n)
            )
            assert result.version == n
            assert station.document_version("db") == n
        assert station.stats.updates == 3
        assert station.stats.chunks_reencrypted >= 3

    def test_worst_case_dictionary_growth_cascades_to_full(self):
        station = build_station()
        result = station.update("db", UpdateOp.rename([3], "brand_new_tag"))
        assert result.impact.dictionary_grew
        assert result.full_reencrypt
        assert result.chunks_reencrypted == result.total_chunks
        assert "brand_new_tag" in view_text(station)

    def test_insert_and_delete_round_trip(self):
        station = build_station()
        station.update(
            "db",
            UpdateOp.insert([], parse_document("<rec><id>9999</id><val>tail</val></rec>")),
        )
        assert "9999" in view_text(station)
        station.update("db", UpdateOp.delete([200]))
        assert "9999" not in view_text(station)
        assert station.document_version("db") == 2

    def test_update_unknown_document_raises(self):
        station = build_station()
        with pytest.raises(StationError):
            station.update("nope", UpdateOp.set_text([0], "x"))

    def test_update_bad_path_raises_and_leaves_document_intact(self):
        station = build_station()
        before = view_text(station)
        with pytest.raises(UpdateError):
            station.update("db", UpdateOp.set_text([999, 0], "x"))
        assert station.document_version("db") == 0
        assert view_text(station) == before

    def test_plan_cache_invalidated_for_granted_subjects(self):
        station = build_station()
        station.evaluate("db", "alice")
        assert station.cached_plans() == 1
        station.update("db", UpdateOp.set_text([0, 1], "EDIT0000"))
        assert station.cached_plans() == 0
        # The next request recompiles and re-caches.
        station.evaluate("db", "alice")
        assert station.cached_plans() == 1

    def test_listeners_notified_with_new_version(self):
        station = build_station()
        seen = []
        station.subscribe(lambda doc, version: seen.append((doc, version)))
        station.update("db", UpdateOp.set_text([1, 1], "EDIT0001"))
        station.update("db", UpdateOp.set_text([2, 1], "EDIT0002"))
        assert seen == [("db", 1), ("db", 2)]
        station.unsubscribe(station._listeners[0])
        station.update("db", UpdateOp.set_text([3, 1], "EDIT0003"))
        assert len(seen) == 2


# ----------------------------------------------------------------------
# Version-bound integrity: the replay attack
# ----------------------------------------------------------------------
class TestVersionSplicing:
    @pytest.mark.parametrize("scheme", ["CBC-SHA", "CBC-SHAC", "ECB-MHT"])
    def test_replaying_pre_update_chunk_raises(self, scheme):
        station = build_station(scheme=scheme)
        old_prepared = station.document("db")
        old_stored = bytes(old_prepared.secure.stored)
        result = station.update("db", UpdateOp.set_text([50, 1], "CHANGED50"))
        assert result.dirty_chunks, "the edit must dirty at least one chunk"
        new_prepared = station.document("db")
        record = LAYOUT.stored_chunk_size()
        for chunk in sorted(result.dirty_chunks):
            # Splice the captured pre-update record over the rewritten
            # one — byte-identical to what the terminal stored before
            # the update, so only the version binding can reject it.
            start = chunk * record
            saved = bytes(new_prepared.secure.stored[start : start + record])
            assert saved != old_stored[start : start + record]
            new_prepared.secure.stored[start : start + record] = old_stored[
                start : start + record
            ]
            with pytest.raises(IntegrityError):
                station.evaluate("db", "alice")
            new_prepared.secure.stored[start : start + record] = saved
        # Restored store verifies again.
        station.evaluate("db", "alice")

    def test_republished_store_rejects_previous_generation_chunks(self):
        """Re-publishing continues the version chain: a chunk record
        captured from ANY earlier generation (including the original
        version-0 store) must not verify in the new one, even though
        the deterministic document key is unchanged."""
        station = build_station()
        gen0_stored = bytes(station.document("db").secure.stored)
        station.update("db", UpdateOp.set_text([50, 1], "CHANGED50"))
        # Republish corrected content under the same id (same key).
        station.publish("db", DOC, layout=LAYOUT)
        assert station.document_version("db") == 2
        new_prepared = station.document("db")
        assert all(v == 2 for v in new_prepared.secure.chunk_versions)
        record = LAYOUT.stored_chunk_size()
        # Splice a generation-0 record (same plaintext region!) back in.
        new_prepared.secure.stored[0:record] = gen0_stored[0:record]
        with pytest.raises(IntegrityError):
            station.evaluate("db", "alice")

    def test_republish_notifies_listeners(self):
        station = build_station()
        seen = []
        station.subscribe(lambda doc, version: seen.append((doc, version)))
        station.publish("db", DOC, layout=LAYOUT)  # re-publish
        assert seen == [("db", 1)]
        station.publish("other", "<a/>")  # first publish: no broadcast
        assert seen == [("db", 1)]
        # Updates keep counting from the republished version.
        station.update("db", UpdateOp.set_text([1, 1], "EDIT0001"))
        assert seen == [("db", 1), ("db", 2)]

    def test_whole_store_rollback_detected(self):
        """Replacing the entire stored document with its pre-update
        form (a rollback, not a splice) is also caught: the trusted
        version vector says the dirty chunks are at version 1."""
        station = build_station()
        old_stored = bytes(station.document("db").secure.stored)
        station.update("db", UpdateOp.set_text([50, 1], "CHANGED50"))
        new_prepared = station.document("db")
        new_prepared.secure.stored[:] = old_stored
        with pytest.raises(IntegrityError):
            station.evaluate("db", "alice")

    def test_versioned_position_is_identity_at_zero(self):
        assert versioned_position(12345, 0) == 12345
        assert versioned_position(12345, 3) != 12345
        with pytest.raises(ValueError):
            versioned_position(0, -1)

    def test_scheme_reencrypt_shares_clean_records(self):
        scheme = make_scheme("ECB-MHT", key=b"k" * 16, layout=LAYOUT)
        data = bytes(range(256)) * 8  # 8 chunks
        doc = scheme.protect(data)
        new = bytearray(data)
        new[600:608] = b"ZZZZZZZZ"
        updated, count = scheme.reencrypt(doc, bytes(new), {2}, 1)
        assert count == 1
        record = LAYOUT.stored_chunk_size()
        for chunk in range(8):
            same = (
                bytes(updated.stored[chunk * record : (chunk + 1) * record])
                == bytes(doc.stored[chunk * record : (chunk + 1) * record])
            )
            assert same == (chunk != 2)
        assert updated.chunk_versions == [0, 0, 1, 0, 0, 0, 0, 0]
        assert scheme.reader(updated, Meter()).read(0, len(new)) == bytes(new)


# ----------------------------------------------------------------------
# Snapshot isolation (copy-on-write)
# ----------------------------------------------------------------------
class TestSnapshotIsolation:
    def test_in_flight_reader_finishes_on_pre_update_snapshot(self):
        station = build_station()
        prepared = station.document("db")
        size = prepared.secure.plaintext_size
        reader = prepared.scheme.reader(prepared.secure, Meter())
        first_half = reader.read(0, size // 2)

        station.update("db", UpdateOp.set_text([50, 1], "CHANGED50"))

        # The reader keeps reading the old snapshot — and the combined
        # bytes are exactly the pre-update encoding, never a mix.
        second_half = reader.read(size // 2, size - size // 2)
        assert first_half + second_half == prepared.encoded.data

        # A fresh evaluation sees the post-update document.
        assert "CHANGED50" in view_text(station)

    def test_update_swaps_the_prepared_document(self):
        station = build_station()
        before = station.document("db")
        station.update("db", UpdateOp.set_text([10, 1], "EDITED010"))
        after = station.document("db")
        assert after is not before
        assert before.encoded.data != after.encoded.data
        # The old store was never mutated in place.
        reader = before.scheme.reader(before.secure, Meter())
        assert reader.read(0, before.secure.plaintext_size) == before.encoded.data

    def test_concurrent_readers_during_updates_never_see_a_mix(self):
        station = build_station()
        errors = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                try:
                    text = view_text(station)
                except IntegrityError as exc:  # must never happen
                    errors.append(repr(exc))
                    return
                # A view is either fully pre- or fully post-edit for
                # each record: "CHANGEDnn" and "valuennnn" for the same
                # nn never coexist.
                for n in range(200):
                    if "CHANGED%02d" % n in text and "value%04d" % n in text:
                        errors.append("mixed view at record %d" % n)
                        return

        threads = [threading.Thread(target=read_loop) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for n in range(20, 30):
                station.update(
                    "db", UpdateOp.set_text([n, 1], "CHANGED%02d" % n)
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
        assert not errors, errors


# ----------------------------------------------------------------------
# Station thread-safety (the satellite bugfixes)
# ----------------------------------------------------------------------
class TestStationThreadSafety:
    def test_concurrent_connects_mint_unique_sessions_and_keys(self):
        station = SecureStation()
        per_thread = 50
        threads = 16
        sessions = [[] for _ in range(threads)]
        barrier = threading.Barrier(threads)

        def connect_loop(bucket):
            barrier.wait()
            for _ in range(per_thread):
                bucket.append(station.connect("subject"))

        workers = [
            threading.Thread(target=connect_loop, args=(sessions[i],))
            for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30)
        ids = [s.session_id for bucket in sessions for s in bucket]
        keys = {s.session_key for bucket in sessions for s in bucket}
        assert len(ids) == threads * per_thread
        # No duplicate session ids => no duplicate derived link keys.
        assert len(set(ids)) == len(ids)
        assert len(keys) == len(ids)
        assert station.stats.sessions_opened == len(ids)

    def test_concurrent_plan_cache_hammering_stays_consistent(self):
        station = SecureStation(plan_cache_size=4)
        policies = [
            Policy([AccessRule("+", "//t%d" % n)], subject="s%d" % (n % 6))
            for n in range(24)
        ]
        errors = []
        barrier = threading.Barrier(8)

        def hammer(seed):
            barrier.wait()
            try:
                for n in range(120):
                    station.plan_for(policies[(seed * 7 + n) % len(policies)])
            except Exception as exc:  # noqa: BLE001 - the regression
                errors.append(repr(exc))

        workers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30)
        assert not errors, errors
        assert station.cached_plans() <= 4
        stats = station.stats
        assert stats.plan_hits + stats.plan_misses == 8 * 120

    def test_concurrent_updates_produce_a_linear_version_chain(self):
        station = build_station()
        barrier = threading.Barrier(4)
        versions = []
        lock = threading.Lock()

        def update_loop(offset):
            barrier.wait()
            for n in range(5):
                result = station.update(
                    "db",
                    UpdateOp.set_text(
                        [offset * 10 + n, 1], "T%d-%d####" % (offset, n)
                    ),
                )
                with lock:
                    versions.append(result.version)

        workers = [
            threading.Thread(target=update_loop, args=(i,)) for i in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
        assert sorted(versions) == list(range(1, 21))
        assert station.document_version("db") == 20
        # The final store is consistent and carries every edit.
        text = view_text(station)
        for offset in range(4):
            for n in range(5):
                assert "T%d-%d####" % (offset, n) in text
