#!/usr/bin/env python3
"""Compare the reports of the working tree with those of another revision.

    python3 tools/compare_reports.py --base HEAD~1 --seeds 3 41 97

The ``src/`` tree of ``--base`` is extracted with ``git archive``.  Both
sides run ``check`` on each perfbench workload at each seed, in JSON, in
human text and in human text with ``--color on``, and ``rules`` and
``graph`` in both of their formats.  Each run is
a fresh ``python -m qos_chain_guard.cli`` with ``PYTHONPATH`` set to that
side's ``src/``.  The inputs are generated once per workload and seed by
``perfbench/workloads.py``, so both sides read the same files at the same
paths.

No workload has an unknown element, so no workload report has a parse
note.  Both sides therefore also run ``check`` on one fixed noisy document,
``NOISY_DOCUMENT``, in the same three forms: it has unknown elements under
``<dds>`` (before and after its ``<profiles>``), ``<profiles>``, an
endpoint, ``<qos>``, a policy and a duration, and none inside ``<topic>``;
its notes come in document order.  No workload fails to load either, so
both sides run ``check`` on each of ``LOAD_ERROR_DOCUMENTS``, whose one
error line goes to stderr; one of them breaks a policy's own constraint (a
``<history>`` depth of 0), and one has an empty ``profile_name`` before a
second ``<profiles>``, so the first error in document order wins.  No
workload pairs by ``--pair`` directive either, so both sides run
``check`` on ``DIRECTIVE_DOCUMENT`` with the directives of
``DIRECTIVES``, in JSON and in human text: a writer paired with a reader
of another topic and with a topic-less reader, a directive that repeats a
topic pair, and a directive given twice.  No workload repeats a ``<qos>``
that has a parse note either, so both sides run ``check`` on the two files
of ``REPEATED_DOCUMENTS``, in JSON and in human text: one noisy ``<qos>``
literal (an unknown element, non-ASCII partition names, a ``<reliability>``
without ``<kind>``) under writers and readers, at topic and endpoint level,
in both files, beside a quiet literal repeated the same way.  And both
sides run ``check`` on the two files of ``SKIP_DOCUMENTS``, in JSON and in
human text: the first holds three quiet writer ``<qos>`` literals, and the
second, which declares ISO-8859-1 and has CRLF line ends, repeats them
under a reader, after a ``<qos >`` start tag, after a commented-out copy,
inside CDATA, with a comment holding ``</qos>``, and with non-ASCII
partition names.  The two files of ``POLICY_SKIP_DOCUMENTS`` do the same for
policy elements in distinct ``<qos>``: repeats within the first file, one
in a comment and a noisy one among them, and a ``<reliability>`` without
``<kind>`` under a writer, then under a reader, which must not take the
writer's RELIABLE default; then in the second (ISO-8859-1,
CRLF) under a reader, after ``<history >``, after a commented-out copy,
beside a copy in CDATA, holding a comment with ``</history>``, ending with
``</history >`` before CDATA that holds ``</history>``, and noisy.

One line is printed per case; under a case that differs, each stream that
differs gets the number of its differing lines, then each such line of
the base and of the working tree, marked ``-`` and ``+`` and numbered.  A
last line lists the rules that fired in no ``check`` case of the working
tree, read from its JSON reports: a seed set that leaves a rule's message
unexercised says so.  The exit code is 1
if the exit code, the stdout or the stderr of any case differs between the
two sides, 0 otherwise.  Needs only the standard library and git; run it
from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, found through the path above)


NOISY_DOCUMENT = """<?xml version="1.0" encoding="UTF-8"?>
<dds>
  <log_config/>
  <profiles>
    <transport_descriptors/>
    <data_writer profile_name="noisy_writer">
      <throughput_controller/>
      <topic><name>noisy</name></topic>
      <qos>
        <publish_mode/>
        <reliability><kind>RELIABLE</kind><retries>3</retries></reliability>
        <deadline><period><sec>1</sec><millisec>5</millisec></period></deadline>
      </qos>
    </data_writer>
    <data_reader profile_name="noisy_reader">
      <topic><name>noisy</name></topic>
      <qos><deadline><period><nanosec>500000000</nanosec></period></deadline></qos>
    </data_reader>
  </profiles>
  <participant/>
</dds>
"""
# One document per kind of load error, each naming its line (and column).
LOAD_ERROR_DOCUMENTS = {
    "malformed.xml": '<profiles>\n  <data_writer profile_name="w">\n    <qos></data_writer>\n</profiles>\n',
    "entity.xml": '<!DOCTYPE profiles [<!ENTITY boom "boom">]>\n<profiles/>\n',
    "bad_integer.xml": (
        '<profiles>\n  <data_writer profile_name="w">\n'
        "    <qos><history><kind>KEEP_LAST</kind><depth>1_000</depth></history></qos>\n"
        "  </data_writer>\n</profiles>\n"
    ),
    # A policy's own constraint, checked as the policy is built.
    "depth_zero.xml": (
        '<profiles>\n  <data_writer profile_name="w">\n'
        "    <qos><history><depth>0</depth></history></qos>\n"
        "  </data_writer>\n</profiles>\n"
    ),
    "nanosec.xml": (
        '<profiles>\n  <data_reader profile_name="r">\n'
        "    <qos><deadline><period><sec>1</sec><nanosec>1000000000</nanosec></period></deadline></qos>\n"
        "  </data_reader>\n</profiles>\n"
    ),
    "duplicate_history.xml": (
        '<profiles>\n  <data_writer profile_name="w">\n    <qos>\n'
        "      <history><depth>1</depth></history>\n      <history><depth>2</depth></history>\n"
        "    </qos>\n  </data_writer>\n</profiles>\n"
    ),
    "empty_name.xml": '<profiles>\n  <data_writer profile_name=""/>\n</profiles>\n',
    # The first load error in document order, not the second <profiles> after it.
    "empty_name_before_second_profiles.xml": (
        '<dds>\n  <profiles>\n    <data_writer profile_name=""/>\n  </profiles>\n  <profiles/>\n</dds>\n'
    ),
    "dds_without_profiles.xml": "<dds>\n  <log_config/>\n</dds>\n",
    "wrong_root.xml": "<qos_profiles>\n  <profiles/>\n</qos_profiles>\n",
    # Malformed XML after a policy element skipped as a copy of an earlier one.
    "malformed_after_copy.xml": (
        '<profiles>\n  <data_writer profile_name="w"><qos><history><depth>8</depth></history></qos></data_writer>\n'
        '  <data_writer profile_name="v"><qos><durability></durability><history><depth>8</depth></history></qos>\n'
        "  </data_reader>\n</profiles>\n"
    ),
}
# Writers whose names sort against their topics' order, best-effort against
# reliable readers so that stage-2 rules fire on every pair, and one
# topic-less endpoint of each kind.
DIRECTIVE_DOCUMENT = """<?xml version="1.0" encoding="UTF-8"?>
<profiles>
  <data_writer profile_name="alpha_writer">
    <topic><name>zulu</name></topic>
    <qos><reliability><kind>BEST_EFFORT</kind></reliability></qos>
  </data_writer>
  <data_writer profile_name="bravo_writer">
    <topic><name>yankee</name></topic>
    <qos><reliability><kind>BEST_EFFORT</kind></reliability><durability><kind>TRANSIENT_LOCAL</kind></durability></qos>
  </data_writer>
  <data_writer profile_name="lone_writer">
    <qos><ownership><kind>EXCLUSIVE</kind></ownership></qos>
  </data_writer>
  <data_reader profile_name="yankee_reader">
    <topic><name>yankee</name></topic>
    <qos><reliability><kind>RELIABLE</kind></reliability></qos>
  </data_reader>
  <data_reader profile_name="zulu_reader">
    <topic><name>zulu</name></topic>
    <qos><reliability><kind>RELIABLE</kind></reliability><durability><kind>TRANSIENT</kind></durability></qos>
  </data_reader>
  <data_reader profile_name="lone_reader">
    <qos><reliability><kind>RELIABLE</kind></reliability></qos>
  </data_reader>
</profiles>
"""
_NOISY_QOS = (
    "<qos><reliability><max_blocking_time><sec>1</sec></max_blocking_time></reliability>"
    "<partition><names><name>caf\u00e9</name><name>\u00e8</name></names></partition>"
    "<latency_budget/></qos>"
)
_QUIET_QOS = "<qos><durability><kind>TRANSIENT_LOCAL</kind></durability><history><depth>3</depth></history></qos>"


def _repeated_document(prefix: str) -> str:
    endpoints = "".join(
        f'  <{tag} profile_name="{prefix}_{tag}_{i}">\n'
        f"    <topic><name>shared/{i}</name>{_NOISY_QOS if i else _QUIET_QOS}</topic>\n"
        f"    {_NOISY_QOS if i < 2 else _QUIET_QOS}\n"
        f"  </{tag}>\n"
        for tag in ("data_writer", "data_reader")
        for i in range(3)
    )
    return f'<?xml version="1.0" encoding="UTF-8"?>\n<profiles>\n{endpoints}</profiles>\n'


REPEATED_DOCUMENTS = {"repeated_a.xml": _repeated_document("a"), "repeated_b.xml": _repeated_document("b")}
# Quiet writer <qos> literals, each firing a rule that quotes its values:
# one on a single line, one holding a comment with "</qos>", and one with
# non-ASCII partition names.
_SKIP_QOS = (
    "<qos><history><depth>8</depth></history>"
    "<resource_limits><max_samples_per_instance>4</max_samples_per_instance></resource_limits></qos>",
    "<qos>\n      <!-- </qos> -->\n      <history><depth>9</depth></history>\n"
    "      <resource_limits><max_samples_per_instance>3</max_samples_per_instance></resource_limits>\n    </qos>",
    "<qos>\n      <durability><kind>TRANSIENT_LOCAL</kind></durability>\n"
    "      <partition><names><name>caf\u00e9</name><name>\u00fcber</name></names></partition>\n    </qos>",
)


def _skip_endpoint(tag: str, name: str, qos: str, topic: str = "skip") -> str:
    return f'  <{tag} profile_name="{name}">\n    <topic><name>{topic}</name></topic>\n    {qos}\n  </{tag}>\n'


# The first file puts each literal in the QoS table; the second repeats
# them where a copy must not be skipped, or must be skipped with care.
# It declares ISO-8859-1 and has CRLF line ends; its non-ASCII copy comes
# first, so its byte offsets run ahead of its character offsets.
SKIP_DOCUMENTS = {
    "skip_a.xml": "<profiles>\n"
    + "".join(_skip_endpoint("data_writer", f"a_{i}", qos) for i, qos in enumerate(_SKIP_QOS))
    + "</profiles>\n",
    "skip_b.xml": (
        '<?xml version="1.0" encoding="ISO-8859-1"?>\n<profiles>\n'
        + _skip_endpoint("data_writer", "b_non_ascii", _SKIP_QOS[2])
        + _skip_endpoint("data_reader", "b_other_kind", _SKIP_QOS[0])
        + _skip_endpoint("data_writer", "b_spaced", _SKIP_QOS[0].replace("<qos>", "<qos >", 1))
        + _skip_endpoint("data_writer", "b_after_comment", f"<!-- {_SKIP_QOS[0]} -->{_SKIP_QOS[0]}")
        + _skip_endpoint("data_writer", "b_comment_inside", _SKIP_QOS[1])
        + _skip_endpoint("data_writer", "b_cdata", _SKIP_QOS[0], topic=f"<![CDATA[{_SKIP_QOS[0]}]]>")
        + "</profiles>\n"
    ).replace("\n", "\r\n"),
}
# Quiet writer policy literals, each read by a rule that quotes it, and a
# noisy one.  The first file repeats them in distinct <qos> elements, so
# only policy elements repeat; the second, which declares ISO-8859-1 and has
# CRLF line ends, repeats them after non-ASCII text where a copy must not be
# skipped, or must be skipped with care.
_DEPTH = "<history><depth>8</depth></history>"
_LIMIT = "<resource_limits><max_samples_per_instance>4</max_samples_per_instance></resource_limits>"
_DURABLE = "<durability><kind>TRANSIENT_LOCAL</kind></durability>"
_NOISY_DEPTH = "<history><bogus/><depth>6</depth></history>"
# Without <kind>: the one policy whose default, and so whose value, differs by endpoint kind.
_BLOCKING = "<reliability><max_blocking_time><sec>2</sec></max_blocking_time></reliability>"
POLICY_SKIP_DOCUMENTS = {
    "policy_a.xml": "<profiles>\n"
    + _skip_endpoint("data_writer", "pa_plain", f"<qos>{_DEPTH}{_LIMIT}</qos>")
    + _skip_endpoint("data_writer", "pa_again", f"<qos>\n      {_DURABLE}\n      {_DEPTH}\n      {_LIMIT}\n    </qos>")
    + _skip_endpoint("data_writer", "pa_commented", f"<qos><!-- {_DEPTH} --><history><depth>9</depth></history>{_LIMIT}</qos>")
    + _skip_endpoint("data_writer", "pa_noisy", f"<qos>{_NOISY_DEPTH}{_DURABLE}</qos>")
    + _skip_endpoint("data_writer", "pa_noisy_again", f"<qos>{_LIMIT}{_NOISY_DEPTH}</qos>")
    + _skip_endpoint("data_writer", "pa_blocking", f"<qos>{_BLOCKING}{_LIMIT}</qos>")
    + _skip_endpoint("data_reader", "pa_blocking_reader", f"<qos>{_DURABLE}{_BLOCKING}</qos>")
    + "</profiles>\n",
    "policy_b.xml": (
        '<?xml version="1.0" encoding="ISO-8859-1"?>\n<profiles>\n'
        + _skip_endpoint(
            "data_writer", "pb_non_ascii", f"<qos><partition><names><name>caf\u00e9</name></names></partition>{_DEPTH}{_LIMIT}</qos>"
        )
        + _skip_endpoint("data_reader", "pb_other_kind", f"<qos>{_DURABLE}{_DEPTH}{_LIMIT}</qos>")
        + _skip_endpoint("data_writer", "pb_spaced", f"<qos>{_DURABLE}{_DEPTH.replace('<history>', '<history >')}{_LIMIT}</qos>")
        + _skip_endpoint("data_writer", "pb_after_comment", f"<qos>{_DURABLE}<!-- {_LIMIT} -->{_DEPTH}{_LIMIT}</qos>")
        + _skip_endpoint("data_writer", "pb_cdata", f"<qos><![CDATA[{_DEPTH}]]>{_DEPTH}{_LIMIT}</qos>")
        + _skip_endpoint("data_writer", "pb_comment_inside", f"<qos>{_DEPTH.replace('<depth>', '<!-- </history> --><depth>')}{_LIMIT}</qos>")
        + _skip_endpoint(
            "data_writer",
            "pb_spaced_end_tag",
            f"<qos>{_LIMIT}{_DEPTH.replace('</history>', '</history >')}<![CDATA[</history>{_DURABLE}]]></qos>",
        )
        + _skip_endpoint("data_writer", "pb_noisy", f"<qos>{_DURABLE}{_LIMIT}{_NOISY_DEPTH}</qos>")
        + "</profiles>\n"
    ).replace("\n", "\r\n"),
}
DIRECTIVES = (
    "alpha_writer:yankee_reader",  # across topics
    "bravo_writer:yankee_reader",  # repeats a topic pair
    "alpha_writer:lone_reader",  # with a topic-less reader
    "lone_writer:zulu_reader",  # from a topic-less writer
    "alpha_writer:yankee_reader",  # given twice
)
CHECK_FORMS = (("json", ()), ("human", ()), ("human", ("--color", "on")))


def extract_src(rev: str, directory: str) -> str:
    """Write ``src/`` as of ``rev`` under ``directory``; return its path."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")
    return os.path.join(directory, "src")


def cases(seeds: list[int], directory: str):
    """(label, argv) of every case, writing each workload's inputs on the way."""
    for fmt in ("table", "json"):
        yield f"rules --format {fmt}", ["rules", "--format", fmt]
    for fmt in ("dot", "json"):
        yield f"graph --format {fmt}", ["graph", "--format", fmt]
    for name in workloads.WORKLOADS:
        for seed in seeds:
            workload = workloads.generate(name, seed)
            written = workloads.write(workload, os.path.join(directory, f"{name}-{seed}"))
            for fmt, color in CHECK_FORMS:
                argv = workloads.check_argv(dataclasses.replace(workload, fmt=fmt), written)
                # A later --color overrides the workload's own --color off.
                yield " ".join([f"check {name} seed {seed} --format {fmt}", *color]), [*argv, *color]
    noisy = os.path.join(directory, "noisy.xml")
    with open(noisy, "w", encoding="utf-8") as handle:
        handle.write(NOISY_DOCUMENT)
    for fmt, color in CHECK_FORMS:
        yield " ".join([f"check noisy.xml --format {fmt}", *color]), ["check", noisy, "--format", fmt, *color]
    directed = os.path.join(directory, "directives.xml")
    with open(directed, "w", encoding="utf-8") as handle:
        handle.write(DIRECTIVE_DOCUMENT)
    pairs = [arg for directive in DIRECTIVES for arg in ("--pair", directive)]
    for fmt in ("json", "human"):
        yield f"check directives.xml --pair ... --format {fmt}", ["check", directed, *pairs, "--format", fmt]
    repeated = os.path.join(directory, "repeated")
    os.makedirs(repeated)
    for name, document in REPEATED_DOCUMENTS.items():
        with open(os.path.join(repeated, name), "w", encoding="utf-8") as handle:
            handle.write(document)
    for fmt in ("json", "human"):
        yield f"check repeated/ --format {fmt}", ["check", repeated, "--format", fmt]
    for folder, documents in (("skipped", SKIP_DOCUMENTS), ("policies", POLICY_SKIP_DOCUMENTS)):
        skipped = os.path.join(directory, folder)
        os.makedirs(skipped)
        for name, document in documents.items():
            # newline="": the CRLF line ends are written as they are.
            with open(os.path.join(skipped, name), "w", encoding="utf-8", newline="") as handle:
                handle.write(document)
        for fmt in ("json", "human"):
            yield f"check {folder}/ --format {fmt}", ["check", skipped, "--format", fmt]
    for name, document in LOAD_ERROR_DOCUMENTS.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
        yield f"check {name}", ["check", path, "--format", "json"]


def run_side(src: str, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "qos_chain_guard.cli", *argv], env=env, capture_output=True
    )
    return done.returncode, done.stdout, done.stderr


def difference(base: tuple[int, bytes, bytes], head: tuple[int, bytes, bytes]) -> list[str]:
    """How two (exit code, stdout, stderr) results differ, one line per
    item, or nothing if they do not.  Each stream that differs gets the
    number of its differing lines, then each of them as a ``-`` line of
    ``base`` and a ``+`` line of ``head``, with its line number."""
    shown = [f"exit code {base[0]} vs {head[0]}"] if base[0] != head[0] else []
    for stream, base_out, head_out in (("stdout", base[1], head[1]), ("stderr", base[2], head[2])):
        if base_out == head_out:
            continue
        pairs = itertools.zip_longest(base_out.splitlines(), head_out.splitlines())
        lines = [(number, old, new) for number, (old, new) in enumerate(pairs, 1) if old != new]
        shown.append(f"{stream} differs in {len(lines)} line(s) ({len(base_out)} vs {len(head_out)} bytes)")
        for number, old, new in lines:
            for sign, line in (("-", old), ("+", new)):
                if line is not None:
                    shown.append(f"    {number}{sign} {line.decode(errors='replace')}")
    return shown


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV", help="git revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], metavar="N", help="workload seeds")
    args = parser.parse_args(argv)

    head_src = str(ROOT / "src")
    differing = 0
    catalog: list[int] = []
    fired: set[int] = set()
    with tempfile.TemporaryDirectory(prefix="compare_reports_") as workdir:
        base_src = extract_src(args.base, os.path.join(workdir, "base"))
        for label, case_argv in cases(args.seeds, os.path.join(workdir, "inputs")):
            head = run_side(head_src, case_argv)
            diff = difference(run_side(base_src, case_argv), head)
            differing += bool(diff)
            print(f"DIFF  {label}: " + "\n".join(diff) if diff else f"same  {label}", flush=True)
            if label == "rules --format json":
                catalog = [rule["id"] for rule in json.loads(head[1])]
            elif label.startswith("check ") and label.endswith("--format json") and head[0] in (0, 1):
                fired.update(finding["rule_id"] for finding in json.loads(head[1])["diagnostics"])
    unfired = [rule_id for rule_id in catalog if rule_id not in fired]
    print(f"rules that fired in no check case: {' '.join(map(str, unfired)) or 'none'}")
    print(f"{differing} case(s) differ from {args.base}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
