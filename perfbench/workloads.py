"""Seeded workload generator and XML emitter for the benchmark.

Each endpoint is first drawn as a *record*: the fully resolved QoS in the
plain-value format of ``tests/test_differential.py`` (durations as integer
nanoseconds with ``None`` for infinite, counts with ``None`` for unlimited,
short kind codes).  The oracle evaluates those records; the emitter below
writes them as profile XML for the program.  The emitter is the benchmark's
own, so a change to the program's serializer cannot change the inputs.

The same (workload, seed) always yields the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

MS = 1_000_000  # nanoseconds per millisecond
NS_PER_SEC = 1_000_000_000

# OMG defaults in record form; reliability depends on the endpoint kind.
_DEFAULT_RECORD = {
    "autoenable": True,
    "part": ("",),
    "dur": "V",
    "deadline": None,
    "liv": "A",
    "lease": None,
    "hist": "KL",
    "depth": 1,
    "max_samples": None,
    "mspi": None,
    "lifespan": None,
    "own": "SH",
    "dest": "BR",
    "autodispose": True,
    "disposed_delay": None,
    "nowriter_delay": None,
}
_DEFAULT_REL = {"writer": "REL", "reader": "BE"}

# Record keys grouped by the XML policy element that carries them.
POLICY_KEYS = {
    "entity_factory": ("autoenable",),
    "partition": ("part",),
    "reliability": ("rel",),
    "durability": ("dur",),
    "deadline": ("deadline",),
    "liveliness": ("liv", "lease"),
    "history": ("hist", "depth"),
    "resource_limits": ("max_samples", "mspi"),
    "lifespan": ("lifespan",),
    "ownership": ("own",),
    "destination_order": ("dest",),
    "writer_data_lifecycle": ("autodispose",),
    "reader_data_lifecycle": ("disposed_delay", "nowriter_delay"),
}

_TOKENS = {
    "rel": {"BE": "BEST_EFFORT", "REL": "RELIABLE"},
    "dur": {"V": "VOLATILE", "TL": "TRANSIENT_LOCAL", "T": "TRANSIENT", "P": "PERSISTENT"},
    "liv": {"A": "AUTOMATIC", "MP": "MANUAL_BY_PARTICIPANT", "MT": "MANUAL_BY_TOPIC"},
    "hist": {"KL": "KEEP_LAST", "KA": "KEEP_ALL"},
    "own": {"SH": "SHARED", "EX": "EXCLUSIVE"},
    "dest": {"BR": "BY_RECEPTION_TIMESTAMP", "BS": "BY_SOURCE_TIMESTAMP"},
}


def default_record(kind: str) -> dict:
    return {**_DEFAULT_RECORD, "rel": _DEFAULT_REL[kind]}


@dataclass
class Endpoint:
    """One generated endpoint: its resolved record and how it is written."""

    name: str
    kind: str  # "writer" or "reader"
    topic: str
    record: dict
    endpoint_policies: tuple[str, ...]  # policies written in the endpoint <qos>
    topic_policies: tuple[str, ...] = ()  # policies written in the topic <qos>
    topic_overrides: dict = field(default_factory=dict)  # topic-level values the endpoint overrides


@dataclass
class Workload:
    fmt: str  # --format passed to check
    files: list[list[Endpoint]]  # one list of endpoints per XML file
    env: dict | None  # environment document, or None for no --env

    @property
    def endpoints(self) -> list[Endpoint]:
        return [ep for group in self.files for ep in group]

    def rtt_ns(self) -> int | None:
        if self.env is None or "rtt_ms" not in self.env:
            return None
        return self.env["rtt_ms"] * MS

    def pp_ns(self, profile_name: str) -> int | None:
        if self.env is None:
            return None
        ms = self.env.get("publish_period_ms", {}).get(
            profile_name, self.env.get("default_publish_period_ms")
        )
        return None if ms is None else ms * MS


# -- XML emitter -------------------------------------------------------------


def _duration(tag: str, ns: int | None) -> str:
    if ns is None:
        return f"<{tag}>DURATION_INFINITY</{tag}>"
    sec, nanosec = divmod(ns, NS_PER_SEC)
    return f"<{tag}><sec>{sec}</sec><nanosec>{nanosec}</nanosec></{tag}>"


def _count(tag: str, value: int | None) -> str:
    return f"<{tag}>{'UNLIMITED' if value is None else value}</{tag}>"


def _bool(tag: str, value: bool) -> str:
    return f"<{tag}>{'true' if value else 'false'}</{tag}>"


def _policy_xml(policy: str, r: dict) -> str:
    if policy == "entity_factory":
        body = _bool("autoenable_created_entities", r["autoenable"])
    elif policy == "partition":
        body = "<names>" + "".join(f"<name>{n}</name>" for n in r["part"]) + "</names>"
    elif policy == "reliability":
        body = f"<kind>{_TOKENS['rel'][r['rel']]}</kind>"
    elif policy == "durability":
        body = f"<kind>{_TOKENS['dur'][r['dur']]}</kind>"
    elif policy == "deadline":
        body = _duration("period", r["deadline"])
    elif policy == "liveliness":
        body = f"<kind>{_TOKENS['liv'][r['liv']]}</kind>" + _duration("lease_duration", r["lease"])
    elif policy == "history":
        body = f"<kind>{_TOKENS['hist'][r['hist']]}</kind><depth>{r['depth']}</depth>"
    elif policy == "resource_limits":
        body = _count("max_samples", r["max_samples"]) + _count(
            "max_samples_per_instance", r["mspi"]
        )
    elif policy == "lifespan":
        body = _duration("duration", r["lifespan"])
    elif policy == "ownership":
        body = f"<kind>{_TOKENS['own'][r['own']]}</kind>"
    elif policy == "destination_order":
        body = f"<kind>{_TOKENS['dest'][r['dest']]}</kind>"
    elif policy == "writer_data_lifecycle":
        body = _bool("autodispose_unregistered_instances", r["autodispose"])
    elif policy == "reader_data_lifecycle":
        body = _duration("autopurge_disposed_samples_delay", r["disposed_delay"]) + _duration(
            "autopurge_no_writer_samples_delay", r["nowriter_delay"]
        )
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return f"<{policy}>{body}</{policy}>"


def _qos_xml(policies: tuple[str, ...], record: dict, indent: str) -> str:
    inner = "".join(f"{indent}  {_policy_xml(p, record)}\n" for p in policies)
    return f"{indent}<qos>\n{inner}{indent}</qos>\n"


def emit_document(endpoints: list[Endpoint]) -> str:
    """Profile XML for a list of endpoints, in the given order."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<profiles>\n']
    for ep in endpoints:
        tag = "data_writer" if ep.kind == "writer" else "data_reader"
        out.append(f'  <{tag} profile_name="{ep.name}">\n    <topic>\n')
        out.append(f"      <name>{ep.topic}</name>\n")
        if ep.topic_policies:
            out.append(_qos_xml(ep.topic_policies, {**ep.record, **ep.topic_overrides}, "      "))
        out.append("    </topic>\n")
        if ep.endpoint_policies:
            out.append(_qos_xml(ep.endpoint_policies, ep.record, "    "))
        out.append(f"  </{tag}>\n")
    out.append("</profiles>\n")
    return "".join(out)


# -- record pools --------------------------------------------------------------

class Draw:
    """Deals values from fixed pools, each pool like a shuffled deck.

    Every value of a pool comes up once per pass through it, so each seed
    uses the same values equally often and only permutes them over the
    endpoints.  That keeps the amount of work nearly equal from seed to
    seed, where independent draws would make it vary.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._decks: dict[str, list] = {}

    def __call__(self, field: str, pool) -> object:
        deck = self._decks.get(field)
        if not deck:
            deck = self._decks[field] = list(pool)
            self.rng.shuffle(deck)
        return deck.pop()


# Millisecond-scale values so that rtt/pp thresholds and lifespan windows
# land on both sides of their bounds; None is infinite.
_NS_POOL = (None, None, 0, 1 * MS, 20 * MS, 50 * MS, 100 * MS, 200 * MS, 1000 * MS)
_COUNT_POOL = (None, None, 0, 1, 2, 5, 10, 100)
_RECORD_POOLS = {
    "autoenable": (True,) * 9 + (False,),
    "part": (("",), ("",), ("a",), ("a", "b"), ("b",)),
    "rel": ("BE", "REL", "REL"),
    "dur": ("V", "V", "TL", "T", "P"),
    "deadline": _NS_POOL,
    "liv": ("A", "A", "MP", "MT"),
    "lease": _NS_POOL,
    "hist": ("KL", "KL", "KA"),
    "depth": (1, 2, 5, 10, 50),
    "max_samples": _COUNT_POOL,
    "mspi": _COUNT_POOL,
    "lifespan": _NS_POOL,
    "own": ("SH", "SH", "EX"),
    "dest": ("BR", "BR", "BS"),
    "autodispose": (True,) * 4 + (False,),
    "disposed_delay": _NS_POOL,
    "nowriter_delay": _NS_POOL,
}


def random_record(draw: Draw, kind: str) -> dict:
    """A record over every policy the records carry, drawn from small pools."""
    record = {key: draw(f"{kind}.{key}", pool) for key, pool in _RECORD_POOLS.items()}
    if kind == "writer":
        # Reader-only delays keep their defaults on writers.
        record["disposed_delay"] = record["nowriter_delay"] = None
    return record


ALL_POLICIES = tuple(POLICY_KEYS)

# ROS 2-style QoS bundles, as partial records over the OMG defaults.  Every
# bundle sets reliability, so writers and readers of one bundle resolve to
# the same QoS and the bundles are the distinct classes.
BUNDLES = {
    "sensor_data": {"rel": "BE", "hist": "KL", "depth": 5},
    "default": {"rel": "REL", "hist": "KL", "depth": 10},
    "parameters": {"rel": "REL", "hist": "KL", "depth": 1000, "mspi": 1000, "max_samples": 4000},
    "services": {"rel": "REL", "hist": "KL", "depth": 10, "lifespan": 2000 * MS},
    "parameter_events": {"rel": "REL", "hist": "KA", "mspi": 1000, "max_samples": 1000},
    "latched": {"rel": "REL", "dur": "TL", "hist": "KL", "depth": 1},
    "control": {
        "rel": "REL", "hist": "KL", "depth": 1, "deadline": 100 * MS,
        "liv": "MP", "lease": 200 * MS,
    },
    "failover": {
        "rel": "REL", "hist": "KL", "depth": 1, "own": "EX", "deadline": 50 * MS,
        "lease": 100 * MS, "autodispose": False,
    },
}
# Every bundle writes history at endpoint level over this topic-level value,
# so the topic/endpoint merge always has a field to override.
_TOPIC_HISTORY_DECOY = {"hist": "KA", "depth": 1}


def bundle_endpoint(name: str, kind: str, topic: str, bundle: str) -> Endpoint:
    spec = BUNDLES[bundle]
    record = {**default_record(kind), **spec}
    policies = tuple(p for p, keys in POLICY_KEYS.items() if any(k in spec for k in keys))
    return Endpoint(
        name=name,
        kind=kind,
        topic=topic,
        record=record,
        endpoint_policies=("history",),
        topic_policies=tuple(p for p in policies if p != "history") + ("history",),
        topic_overrides=_TOPIC_HISTORY_DECOY,
    )


# -- the four workloads --------------------------------------------------------

# Sizes keep one in-process check near a quarter of a second on a 2-CPU
# machine, so that one run holds some thirty checks and fifteen or more CLI
# runs: enough for steady medians and a tail with ten checks above it.
WIDE_TOPICS = 140  # 1 writer : 1 reader each, 280 endpoints
CLASS_HEAVY_TOPICS = 180  # 1 writer : 1-3 readers each, about 540 endpoints
CLASS_HEAVY_FILES = 27
DENSE_TOPICS = 2  # 32 writers x 32 readers each, 2 048 pairs
DENSE_SIDE = 32
DESK_TOPICS = 80  # 1 writer : 1-3 readers each, about 240 endpoints
DESK_FILES = 20


def _wide(rng: random.Random, draw: Draw) -> tuple[list[list[Endpoint]], dict]:
    eps = []
    for t in range(WIDE_TOPICS):
        for kind, prefix in (("writer", "w"), ("reader", "r")):
            record = random_record(draw, kind)
            # A depth unique to each endpoint makes every resolved QoS distinct.
            record["depth"] = 2 * t + (1 if kind == "writer" else 2)
            eps.append(Endpoint(f"{prefix}{t:04d}", kind, f"wide/t{t:04d}", record, ALL_POLICIES))
    overridden = sorted(rng.sample([ep.name for ep in eps], len(eps) // 10))
    overrides = {name: draw("pp", (10, 20, 100)) for name in overridden}
    env = {"rtt_ms": 100, "default_publish_period_ms": 50, "publish_period_ms": overrides}
    return [eps], env


_BUNDLE_NAMES = tuple(sorted(BUNDLES))


def _fan_out(draw: Draw, prefix: str, topics: int) -> list[Endpoint]:
    """Topics with one writer and one to three readers each."""
    eps = []
    for t in range(topics):
        topic = f"{prefix}/t{t:04d}"
        bundle = draw("bundle", _BUNDLE_NAMES)
        eps.append(bundle_endpoint(f"{prefix}_w{t:04d}", "writer", topic, bundle))
        for i in range(draw("readers", (1, 2, 3))):
            # Most readers share the writer's bundle; some mismatch it.
            mismatch = draw("mismatch", (False, False, False, True))
            reader_bundle = draw("bundle", _BUNDLE_NAMES) if mismatch else bundle
            eps.append(bundle_endpoint(f"{prefix}_r{t:04d}_{i}", "reader", topic, reader_bundle))
    return eps


def _split(eps: list[Endpoint], files: int) -> list[list[Endpoint]]:
    size = -(-len(eps) // files)
    return [eps[i : i + size] for i in range(0, len(eps), size)]


def _class_heavy(rng: random.Random, draw: Draw) -> tuple[list[list[Endpoint]], dict]:
    eps = _fan_out(draw, "ch", CLASS_HEAVY_TOPICS)
    rng.shuffle(eps)
    return _split(eps, CLASS_HEAVY_FILES), {"rtt_ms": 100}


def _dense(rng: random.Random, draw: Draw) -> tuple[list[list[Endpoint]], None]:
    files = []
    for t in range(DENSE_TOPICS):
        topic = f"dense/t{t}"
        eps = [
            Endpoint(f"d{t}_{p}{i:02d}", kind, topic, random_record(draw, kind), ALL_POLICIES)
            for kind, p in (("writer", "w"), ("reader", "r"))
            for i in range(DENSE_SIDE)
        ]
        files.append(eps)
    return files, None


def _desk(rng: random.Random, draw: Draw) -> tuple[list[list[Endpoint]], dict]:
    eps = _fan_out(draw, "desk", DESK_TOPICS)
    for ep in eps:
        if draw("tuned", (True,) * 3 + (False,) * 7):
            # A hand-tuned endpoint: one policy set from a random record.
            policy = draw("policy", ALL_POLICIES)
            drawn = random_record(draw, ep.kind)
            for key in POLICY_KEYS[policy]:
                ep.record[key] = drawn[key]
            if policy != "history":
                ep.endpoint_policies += (policy,)
    rng.shuffle(eps)
    writers = sorted(ep.name for ep in eps if ep.kind == "writer")
    overrides = {name: draw("pp", (10, 20, 100)) for name in sorted(rng.sample(writers, 20))}
    env = {"rtt_ms": 50, "default_publish_period_ms": 20, "publish_period_ms": overrides}
    return _split(eps, DESK_FILES), env


_SHAPES = {"wide": _wide, "class-heavy": _class_heavy, "dense": _dense, "desk": _desk}
_FORMATS = {"wide": "json", "class-heavy": "json", "dense": "human", "desk": "json"}
WORKLOADS = tuple(_SHAPES)


def generate(name: str, seed: int) -> Workload:
    """Build a workload deterministically from its name and seed."""
    if name not in _SHAPES:
        raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(WORKLOADS)})")
    rng = random.Random(f"{name}:{seed}")
    files, env = _SHAPES[name](rng, Draw(rng))
    return Workload(fmt=_FORMATS[name], files=files, env=env)


@dataclass(frozen=True)
class WrittenWorkload:
    inputs: list[str]  # the paths passed to ``check``
    env_path: str | None
    digest: str  # sha256 over every written file name and its bytes
    xml_bytes: int


def write(workload: Workload, directory: str) -> WrittenWorkload:
    """Write the workload's XML (and environment file) under ``directory``."""
    profiles_dir = os.path.join(directory, "profiles")
    os.makedirs(profiles_dir, exist_ok=True)
    for stale in os.listdir(profiles_dir):
        os.remove(os.path.join(profiles_dir, stale))
    blobs = [
        (os.path.join(profiles_dir, f"part{i:03d}.xml"), emit_document(eps).encode("utf-8"))
        for i, eps in enumerate(workload.files)
    ]
    xml_bytes = sum(len(data) for _, data in blobs)
    env_path = None
    if workload.env is not None:
        env_path = os.path.join(directory, "env.json")
        blobs.append((env_path, json.dumps(workload.env, sort_keys=True).encode("utf-8")))
    digest = hashlib.sha256()
    for path, data in blobs:
        with open(path, "wb") as handle:
            handle.write(data)
        digest.update(os.path.basename(path).encode() + b"\0" + data)
    inputs = [blobs[0][0]] if len(workload.files) == 1 else [profiles_dir]
    return WrittenWorkload(inputs=inputs, env_path=env_path, digest=digest.hexdigest(), xml_bytes=xml_bytes)


def check_argv(workload: Workload, written: WrittenWorkload) -> list[str]:
    """Arguments of the ``check`` subcommand for this workload."""
    argv = ["check", *written.inputs, "--format", workload.fmt]
    if workload.fmt == "human":
        argv += ["--color", "off"]
    if written.env_path is not None:
        argv += ["--env", written.env_path]
    return argv
