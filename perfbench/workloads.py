"""The benchmark's workloads: inputs, set-up, operations and the oracle.

Every input is generated from the workload seed; the program receives
only the generated documents, grants, queries and edits.  Each workload
puts its work in a different layer (see README.md for the why and the
layer -> metric predictions).
"""

from __future__ import annotations

import os
import random
import shutil
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

import repro
from calibration import SpeedTrack
from repro.datasets.hospital import (
    HospitalConfig,
    doctor_policy,
    generate_hospital,
    researcher_policy,
    secretary_policy,
)
from repro.store import LogStore
from repro.xmlkit import serializer
from repro.xmlkit.dom import Node

#: Subjects granted on every document, with the Fig. 1 policies.
SUBJECTS = ("secretary", "doctor0", "doctor1", "doctor2", "doctor3", "researcher")
#: Wildcard-free queries the structural index serves (update-mix).
INDEXED_QUERIES = (
    "//Folder/Admin/Age",
    "//Folder/Admin/Lname",
    "//Folder/MedActs/Act/Diagnostic",
    "//Folder/Analysis/LabResults",
)
#: Capacity of the station's view cache (``StationConfig`` default).
VIEW_CACHE_ENTRIES = 128
#: Zipf exponent of the document popularity in hot-remote.
ZIPF_S = 1.0
#: Every UPDATE_EVERY-th operation of update-mix is a live update.
UPDATE_EVERY = 5


@dataclass(frozen=True)
class Spec:
    name: str
    documents: int
    indexed: bool
    cache_bytes: int
    remote: bool


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "cold-scan",
            documents=96,
            indexed=False,
            cache_bytes=64 * 1024 * 1024,
            remote=False,
        ),
        Spec(
            "hot-remote",
            documents=8,
            indexed=False,
            cache_bytes=64 * 1024 * 1024,
            remote=True,
        ),
        Spec(
            "update-mix",
            documents=128,
            indexed=True,
            cache_bytes=1024 * 1024,
            remote=False,
        ),
    )
}


def hospital_config(seed: int, index: int) -> HospitalConfig:
    return HospitalConfig(
        folders=16,
        doctors=4,
        acts_per_folder=3,
        labresults_per_folder=2,
        seed=seed + index,
    )


def policies():
    return [secretary_policy()] + [
        doctor_policy("doctor%d" % k) for k in range(4)
    ] + [researcher_policy()]


def doc_id(index: int) -> str:
    return "doc%03d" % index


# ----------------------------------------------------------------------
# Deployment: generate + publish + grant + open station/server + warm-up
# ----------------------------------------------------------------------
class Deployment:
    """One station (and server, for hot-remote) holding a workload's corpus."""

    def __init__(self, spec: Spec, seed: int, directory: str):
        self.spec = spec
        self.directory = directory
        self.server_thread = None
        self.sessions: Dict[str, object] = {}
        # Each step of the set-up is timed on its own; the probes that
        # scale it to reference speed run between steps, untimed.
        track = SpeedTrack()

        def timed(call, *args, **kwargs):
            started = perf_counter()
            result = call(*args, **kwargs)
            track.add(perf_counter() - started)
            return result

        trees = [timed(generate_hospital, hospital_config(seed, i))
                 for i in range(spec.documents)]
        shutil.rmtree(directory, ignore_errors=True)
        self.store = store = timed(
            LogStore, directory, cache_bytes=spec.cache_bytes, sync="commit"
        )
        self.station = timed(repro.open_station, repro.StationConfig(store=store))
        options = repro.PublishOptions(index=spec.indexed)
        self.policies = {policy.subject: policy for policy in policies()}
        for index, tree in enumerate(trees):
            timed(self._publish, doc_id(index), tree, options)
        if spec.remote:
            timed(self._open_server)
            # Warm-up: one read of every key fills the view cache (and
            # memoizes each serialized payload) before timing starts.
            for index in range(spec.documents):
                for subject in SUBJECTS:
                    timed(self.sessions[subject].evaluate, doc_id(index))
        #: Set-up time as measured, and at reference speed.
        self.setup_wall_s = track.busy
        self.setup_s = track.busy * track.scale()
        #: The benchmark's own model of every document: the DOM trees
        #: the oracle renders views from, kept in step with each edit.
        self.models: Dict[str, Node] = {doc_id(i): tree for i, tree in enumerate(trees)}
        self.versions: Dict[str, int] = {name: 0 for name in self.models}

    def _publish(self, document: str, tree: Node, options) -> None:
        self.station.publish(document, tree, options)
        for policy in self.policies.values():
            self.station.grant(document, policy)

    def _open_server(self) -> None:
        from repro.server.service import ServerThread, StationServer

        server = StationServer(self.station, max_queries_per_session=10 ** 9)
        self.server_thread = ServerThread(server)
        address = self.server_thread.start()
        for subject in SUBJECTS:
            self.sessions[subject] = repro.connect(address, subject, timeout=60.0)

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()
        self.sessions = {}
        if self.server_thread is not None:
            thread = self.server_thread._thread
            self.server_thread.stop(timeout=30.0)
            if thread is not None and thread.is_alive():
                raise RuntimeError("station server thread did not stop")
            self.server_thread = None
        self.station.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # ------------------------------------------------------------------
    def stored_bytes(self, document: str) -> int:
        return self.station.document(document).secure.stored_size()

    def chunk_count(self, document: str) -> int:
        return len(self.station.document(document).secure.chunk_versions)

    def total_stored_bytes(self) -> int:
        return sum(self.stored_bytes(name) for name in self.models)


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
@dataclass
class Read:
    document: str
    subject: str
    query: Optional[str] = None
    kind: str = "read"


@dataclass
class Update:
    document: str
    op: object
    kind: str = "update"


class ReadOutcome:
    __slots__ = ("data", "version", "cached", "soe_seconds", "meter")

    def __init__(self, data, version, cached, soe_seconds, meter):
        self.data = data
        self.version = version
        self.cached = cached
        self.soe_seconds = soe_seconds
        self.meter = meter


def read_in_process(deployment: Deployment, read: Read) -> ReadOutcome:
    """A subject's full view, as XML bytes, from the in-process station."""
    result = deployment.station.evaluate(read.document, read.subject, query=read.query)
    data = serializer.serialize_events(result.events).encode("utf-8")
    return ReadOutcome(
        data,
        result.document_version,
        result.cache_hit,
        result.seconds,
        result.meter.as_dict(),
    )


def read_remote(deployment: Deployment, read: Read) -> ReadOutcome:
    """A subject's full view, as XML bytes, over ``repro.connect``."""
    result = deployment.sessions[read.subject].evaluate(read.document, read.query)
    return ReadOutcome(
        result.data,
        result.trailer.get("version"),
        result.cached,
        result.seconds,
        result.meter,
    )


def run_op(deployment: Deployment, op):
    if op.kind == "update":
        return deployment.station.update(op.document, op.op)
    if deployment.spec.remote:
        return read_remote(deployment, op)
    return read_in_process(deployment, op)


# ----------------------------------------------------------------------
# Operation streams (seeded; the same seed gives the same stream)
# ----------------------------------------------------------------------
def cold_scan_ops(spec: Spec, seed: int) -> Iterator[Read]:
    """One shuffled order of every (document, subject) key, repeated.

    Each block of six reads holds every subject once, each subject
    walking its own shuffled document order, so the subject mix of any
    prefix is balanced.  Repeating the same order keeps every key 576
    reads away from its previous read, so the 128-entry view cache never
    hits, however many reads a run completes.
    """
    rng = random.Random("cold-scan:%d" % seed)
    orders = {}
    for subject in SUBJECTS:
        order = list(range(spec.documents))
        rng.shuffle(order)
        orders[subject] = order
    cycle = []
    for position in range(spec.documents):
        subjects = list(SUBJECTS)
        rng.shuffle(subjects)
        for subject in subjects:
            cycle.append(Read(doc_id(orders[subject][position]), subject))
    while True:
        yield from cycle


def rounds(rng: random.Random, items) -> Iterator:
    """``items`` in endless shuffled rounds: every prefix of the stream
    holds each item equally often, give or take one round, so the mix of
    a run does not drift with the seed or with how many ops complete."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def hot_remote_ops(spec: Spec, seed: int, deployment: Deployment) -> Iterator[Read]:
    """Zipf-popular documents, read by subjects taken in shuffled rounds.

    Every subject ranks the documents by the size of its view of them,
    largest first, so whatever documents a seed generates, the reads
    carry the same mix of payload sizes: with a seeded order instead,
    the seed decided which views made up the tail.
    """
    rng = random.Random("hot-remote:%d" % seed)
    ranked = {}
    for subject in SUBJECTS:
        sizes = {
            doc_id(i): len(expected_view(deployment, doc_id(i), subject))
            for i in range(spec.documents)
        }
        ranked[subject] = sorted(sizes, key=lambda name: (-sizes[name], name))
    cumulative = list(
        accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(spec.documents))
    )
    for subject in rounds(rng, SUBJECTS):
        yield Read(rng.choices(ranked[subject], cum_weights=cumulative)[0], subject)


def _element_children(node: Node) -> List[Node]:
    return [child for child in node.children if isinstance(child, Node)]


def _same_length_digits(rng: random.Random, old: str) -> str:
    while True:
        text = "".join(rng.choice("0123456789") for _ in old)
        if text != old and text[0] != "0":
            return text


def _age_edit(rng: random.Random, model: Node):
    """Same-length text edit of one patient's Age: offsets stay put."""
    folders = _element_children(model)
    folder_index = rng.randrange(len(folders))
    admin_index, admin = next(
        (i, c) for i, c in enumerate(_element_children(folders[folder_index]))
        if c.tag == "Admin"
    )
    age_index, age = next(
        (i, c) for i, c in enumerate(_element_children(admin)) if c.tag == "Age"
    )
    return repro.UpdateOp.set_text(
        [folder_index, admin_index, age_index], _same_length_digits(rng, age.text())
    )


def _act_insert(rng: random.Random, model: Node):
    """Append a copy of an existing medical act: offsets move."""
    folders = _element_children(model)
    folder_index = rng.randrange(len(folders))
    medacts_index, medacts = next(
        (i, c) for i, c in enumerate(_element_children(folders[folder_index]))
        if c.tag == "MedActs"
    )
    acts = _element_children(medacts)
    return repro.UpdateOp.insert([folder_index, medacts_index], rng.choice(acts))


def update_mix_ops(spec: Spec, seed: int, deployment: Deployment):
    """Blocks of four reads (query, full view, query, full view) and one
    live update on uniformly drawn documents.  Queries, and the subjects
    of queries and of full views, come in shuffled rounds; updates
    alternate a same-length text edit and an insert.  Edits are drawn
    against the benchmark's model of the document as it stands when the
    update is issued."""
    rng = random.Random("update-mix:%d" % seed)
    queries = rounds(rng, INDEXED_QUERIES)
    query_subjects = rounds(rng, SUBJECTS)
    view_subjects = rounds(rng, SUBJECTS)
    edits = 0
    while True:
        for position in range(UPDATE_EVERY - 1):
            document = doc_id(rng.randrange(spec.documents))
            if position % 2 == 0:
                yield Read(document, next(query_subjects), next(queries))
            else:
                yield Read(document, next(view_subjects))
        document = doc_id(rng.randrange(spec.documents))
        make = _age_edit if edits % 2 == 0 else _act_insert
        edits += 1
        yield Update(document, make(rng, deployment.models[document]))


def operations(spec: Spec, seed: int, deployment: Deployment):
    if spec.name == "cold-scan":
        return cold_scan_ops(spec, seed)
    if spec.name == "hot-remote":
        return hot_remote_ops(spec, seed, deployment)
    return update_mix_ops(spec, seed, deployment)


# ----------------------------------------------------------------------
# Oracle: every view against the DOM reference evaluator
# ----------------------------------------------------------------------
def expected_view(
    deployment: Deployment, document: str, subject: str, query: Optional[str] = None
) -> bytes:
    """The view the DOM reference evaluator gives on the benchmark's
    model of the document, as XML bytes."""
    events = repro.reference_authorized_view(
        deployment.models[document], deployment.policies[subject], query=query
    )
    return serializer.serialize_events(events).encode("utf-8")


class Oracle:
    """Expected view bytes per (document, version, subject, query).

    The rendered views are kept in a small LRU: hot-remote repeats its
    48 keys, the other workloads rarely repeat one, and an unbounded
    cache would make the process's peak RSS grow with the ops a run
    completes.
    """

    CACHED_VIEWS = 128

    def __init__(self, deployment: Deployment):
        self.deployment = deployment
        self._expected: "OrderedDict[Tuple[str, int, str, Optional[str]], bytes]" = (
            OrderedDict()
        )

    def applied(self, update: Update, result) -> Optional[str]:
        """Record an acknowledged update in the model; returns an error."""
        deployment = self.deployment
        expected_version = deployment.versions[update.document] + 1
        deployment.models[update.document] = update.op.apply(
            deployment.models[update.document]
        )
        deployment.versions[update.document] = expected_version
        if result.version != expected_version:
            return "update of %s acknowledged version %s, expected %d" % (
                update.document,
                result.version,
                expected_version,
            )
        return None

    def check(self, read: Read, outcome: ReadOutcome) -> Optional[str]:
        """Compare one view with the reference; returns an error or None."""
        deployment = self.deployment
        version = deployment.versions[read.document]
        if outcome.version != version:
            return "%s read at version %s, expected %d" % (
                read.document,
                outcome.version,
                version,
            )
        key = (read.document, version, read.subject, read.query)
        expected = self._expected.get(key)
        if expected is not None:
            self._expected.move_to_end(key)
        else:
            expected = expected_view(deployment, read.document, read.subject, read.query)
            self._expected[key] = expected
            if len(self._expected) > self.CACHED_VIEWS:
                self._expected.popitem(last=False)
        if outcome.data != expected:
            return "view of %s for %s (query %r) differs from the DOM oracle" % (
                read.document,
                read.subject,
                read.query,
            )
        return None


def store_directory(out_dir: str, spec: Spec, attempt: int) -> str:
    return os.path.join(out_dir, "store-%s-%d-%d" % (spec.name, os.getpid(), attempt))
