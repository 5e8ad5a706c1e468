"""CLI subcommands, exit codes, and stream discipline."""

from __future__ import annotations

import contextlib
import errno
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qos_chain_guard
from qos_chain_guard import __version__, cli
from qos_chain_guard.cli import main
from qos_chain_guard.rules import LEVELS, Severity

from support import perfbench_workloads

CLEAN_XML = """<profiles>
  <data_writer profile_name="clean_w"><topic><name>clean/scan</name></topic></data_writer>
  <data_reader profile_name="clean_r"><topic><name>clean/scan</name></topic></data_reader>
</profiles>
"""

# Both sides exclusive: stage-2 ownership matches, but the exclusive reader
# raises conditional findings (rules 11, 12, 32) and the writer an
# incidental one (rule 19).  No criticals.
CONDITIONAL_XML = """<profiles>
  <data_writer profile_name="own_w">
    <topic><name>own/scan</name></topic>
    <qos><ownership><kind>EXCLUSIVE</kind></ownership></qos>
  </data_writer>
  <data_reader profile_name="own_r">
    <topic><name>own/scan</name></topic>
    <qos><ownership><kind>EXCLUSIVE</kind></ownership></qos>
  </data_reader>
</profiles>
"""

# Writer offers best-effort below the reader's reliable request: rule 21.
CRITICAL_XML = """<profiles>
  <data_writer profile_name="w1">
    <topic><name>rxo/scan</name></topic>
    <qos><reliability><kind>BEST_EFFORT</kind></reliability></qos>
  </data_writer>
  <data_reader profile_name="r1">
    <topic><name>rxo/scan</name></topic>
    <qos><reliability><kind>RELIABLE</kind></reliability></qos>
  </data_reader>
</profiles>
"""


@pytest.fixture
def fixtures(tmp_path):
    paths = {}
    for name, text in (
        ("clean", CLEAN_XML),
        ("conditional", CONDITIONAL_XML),
        ("critical", CRITICAL_XML),
    ):
        path = tmp_path / f"{name}.xml"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def test_exit_code_matrix(fixtures, capsys):
    matrix = [
        ("clean", "error", 0),
        ("conditional", "error", 0),
        ("critical", "error", 1),
        ("clean", "warning", 0),
        ("conditional", "warning", 1),
        ("critical", "warning", 1),
    ]
    for name, fail_on, expected in matrix:
        code = main(["check", fixtures[name], "--fail-on", fail_on, "--color", "off"])
        capsys.readouterr()
        assert code == expected, (name, fail_on)


def test_fail_on_info_counts_incidental_findings(fixtures, capsys):
    assert main(["check", fixtures["conditional"], "--fail-on", "info"]) == 1
    assert main(["check", fixtures["clean"], "--fail-on", "info"]) == 0
    capsys.readouterr()


def test_fail_on_accepts_exactly_the_levels_of_severity(capsys):
    assert LEVELS == tuple(severity.level for severity in Severity) == ("error", "warning", "info")
    parser = cli.build_arg_parser()
    assert parser.parse_args(["check", "a.xml"]).fail_on == LEVELS[0]
    for level in LEVELS:
        assert parser.parse_args(["check", "a.xml", "--fail-on", level]).fail_on == level
    for other in ("bogus", "errors", "ERROR", "critical"):
        with pytest.raises(SystemExit):
            parser.parse_args(["check", "a.xml", "--fail-on", other])
    capsys.readouterr()


def test_critical_fixture_reports_rule_21(fixtures, capsys):
    code = main(["check", fixtures["critical"], "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert [d["rule_id"] for d in payload["diagnostics"] if d["level"] == "error"] == [21]


def test_human_output_contains_rule_line(fixtures, capsys):
    main(["check", fixtures["critical"], "--color", "off"])
    out, _ = capsys.readouterr()
    assert "ERROR [rule 21 RELIAB↔RELIAB]" in out
    assert "w1(DataWriter)@" in out


def test_color_flag_controls_ansi(fixtures, capsys):
    main(["check", fixtures["critical"], "--color", "on"])
    assert "\x1b[31m" in capsys.readouterr().out
    main(["check", fixtures["critical"], "--color", "off"])
    assert "\x1b[" not in capsys.readouterr().out


def test_no_color_env_suppresses_auto_color(fixtures, capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    main(["check", fixtures["critical"], "--color", "auto"])
    assert "\x1b[" not in capsys.readouterr().out


def test_json_runs_are_byte_identical(fixtures, capsys):
    main(["check", fixtures["critical"], fixtures["clean"], "--format", "json"])
    first, _ = capsys.readouterr()
    main(["check", fixtures["critical"], fixtures["clean"], "--format", "json"])
    second, _ = capsys.readouterr()
    assert first == second


def test_directory_input_scans_xml_lexicographically(fixtures, tmp_path, capsys):
    code = main(["check", str(tmp_path), "--format", "json"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert [p.endswith(x) for p, x in zip(payload["inputs"], ["clean.xml", "conditional.xml", "critical.xml"])]
    assert code == 1  # critical fixture is in the directory


def test_empty_directory_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "void"
    empty.mkdir()
    assert main(["check", str(empty)]) == 2
    _, err = capsys.readouterr()
    assert "no *.xml" in err


def test_missing_file_exits_2(capsys):
    assert main(["check", "nope/missing.xml"]) == 2
    _, err = capsys.readouterr()
    assert "error" in err


def test_malformed_xml_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text("<profiles><data_writer>", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    _, err = capsys.readouterr()
    assert "malformed XML" in err


def test_bad_pair_directive_exits_2(fixtures, capsys):
    assert main(["check", fixtures["clean"], "--pair", "w1-r1"]) == 2
    assert main(["check", fixtures["clean"], "--pair", "ghost:r1"]) == 2
    capsys.readouterr()


def test_explicit_pair_directive_pairs_unbound_endpoints(tmp_path, capsys):
    text = """<profiles>
      <data_writer profile_name="w1">
        <qos><reliability><kind>BEST_EFFORT</kind></reliability></qos>
      </data_writer>
      <data_reader profile_name="r1">
        <qos><reliability><kind>RELIABLE</kind></reliability></qos>
      </data_reader>
    </profiles>"""
    path = tmp_path / "unbound.xml"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 0  # no pairs, nothing critical
    capsys.readouterr()
    code = main(["check", str(path), "--pair", "w1:r1", "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 1
    payload = json.loads(out)
    assert payload["pairs"] == [{"writer": "w1", "reader": "r1", "origin": "directive", "topic": None}]


def test_bad_environment_file_exits_2(fixtures, tmp_path, capsys):
    env = tmp_path / "env.json"
    env.write_text('{"rtt_ms": -1}', encoding="utf-8")
    assert main(["check", fixtures["clean"], "--env", str(env)]) == 2
    assert main(["check", fixtures["clean"], "--env", str(tmp_path / "ghost.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "name, error", [("", errno.EISDIR), ("ghost.json", errno.ENOENT)], ids=["directory", "missing"]
)
def test_unreadable_environment_file_names_the_os_reason_once(fixtures, tmp_path, capsys, name, error):
    env = tmp_path / name
    assert main(["check", fixtures["clean"], "--env", str(env)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"qos-chain-guard: error: cannot read environment file {env}: {os.strerror(error)}\n"


@pytest.mark.parametrize(
    "text",
    [
        '{"rtt_ms": 1e300}',
        '{"rtt_ms": 1.7e308}',
        '{"default_publish_period_ms": 9223372036855}',
        '{"rtt_ms": 1' + "0" * 400 + "}",
        '{"rtt_ms": 1' + "0" * 5000 + "}",
    ],
    ids=["1e300", "1.7e308", "past-int64-ns", "401-digits", "5001-digits"],
)
def test_huge_environment_value_exits_2(fixtures, tmp_path, capsys, text):
    env = tmp_path / "env.json"
    env.write_text(text, encoding="utf-8")
    assert main(["check", fixtures["clean"], "--env", str(env)]) == 2
    _, err = capsys.readouterr()
    assert err.startswith("qos-chain-guard: error: ")
    assert "Traceback" not in err


def test_non_utf8_profile_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.xml"
    bad.write_bytes('<profiles><data_writer profile_name="caf\xe9"/></profiles>'.encode("latin-1"))
    assert main(["check", str(bad)]) == 2
    _, err = capsys.readouterr()
    assert err == (
        f"qos-chain-guard: error: {bad}: cannot read file: not valid UTF-8 (invalid continuation byte)\n"
    )


def test_non_utf8_environment_file_exits_2(fixtures, tmp_path, capsys):
    env = tmp_path / "env.json"
    env.write_bytes('{"publish_period_ms": {"caf\xe9": 10}}'.encode("latin-1"))
    assert main(["check", fixtures["clean"], "--env", str(env)]) == 2
    _, err = capsys.readouterr()
    assert err.startswith(f"qos-chain-guard: error: cannot read environment file {env}: not valid UTF-8")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, key",
    [('{"rtt_ms": 10, "rtt_ms": 20}', "rtt_ms"), ('{"publish_period_ms": {"w": 5, "w": 7}}', "w")],
    ids=["top-level", "publish-period"],
)
def test_a_repeated_environment_key_exits_2(fixtures, tmp_path, capsys, text, key):
    env = tmp_path / "env.json"
    env.write_text(text, encoding="utf-8")
    assert main(["check", fixtures["clean"], "--env", str(env)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"qos-chain-guard: error: duplicate key '{key}' in the environment file\n"


def test_a_byte_order_mark_is_read_as_absent(tmp_path, capsys):
    profile, env = tmp_path / "bom.xml", tmp_path / "env.json"
    argv = ["check", str(profile), "--env", str(env), "--format", "json", "--fail-on", "warning"]
    writer = '<profiles><data_writer profile_name="w"><topic><name>t</name></topic></data_writer></profiles>'
    runs = []
    for encoding in ("utf-8", "utf-8-sig"):  # without a BOM, then with one
        profile.write_text(writer, encoding=encoding)
        env.write_text('{"rtt_ms": 100, "default_publish_period_ms": 50}', encoding=encoding)
        runs.append((main(argv), capsys.readouterr()))
    assert runs[0] == runs[1]
    code, (out, err) = runs[1]
    assert code == 1 and err == "" and json.loads(out)["environment"]["rtt_ms"] == 100


def test_deeply_nested_environment_file_exits_2(fixtures, tmp_path, capsys):
    env = tmp_path / "env.json"
    env.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["check", fixtures["clean"], "--env", str(env)]) == 2
    _, err = capsys.readouterr()
    assert err == "qos-chain-guard: error: environment file nests too deeply to parse\n"


def test_environment_enables_stage3_arithmetic(fixtures, tmp_path, capsys):
    env = tmp_path / "env.json"
    env.write_text('{"rtt_ms": 100, "default_publish_period_ms": 50}', encoding="utf-8")
    code = main(["check", fixtures["clean"], "--env", str(env), "--format", "json"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == 0  # rule 29 is conditional; default fail-on is error
    assert [d["rule_id"] for d in payload["diagnostics"]] == [29]
    assert payload["environment"]["rtt_ms"] == 100


def test_publish_period_whose_double_overflows_reports_rules_36_and_37(tmp_path, capsys):
    # 2 × pp is past the 64-bit nanosecond range, while pp itself is not.
    profile = tmp_path / "exclusive.xml"
    profile.write_text(
        """<profiles><data_reader profile_name="r1"><qos>
          <ownership><kind>EXCLUSIVE</kind></ownership>
          <deadline><period><sec>1</sec></period></deadline>
          <liveliness><lease_duration><sec>1</sec></lease_duration></liveliness>
        </qos></data_reader></profiles>""",
        encoding="utf-8",
    )
    env = tmp_path / "env.json"
    env.write_text('{"default_publish_period_ms": 9000000000000}', encoding="utf-8")
    argv = ["check", str(profile), "--env", str(env), "--format", "json", "--fail-on", "warning"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    diagnostics = {d["rule_id"]: d for d in json.loads(out)["diagnostics"]}
    assert {36, 37} <= set(diagnostics)
    assert "2 × pp = 18000000000s" in diagnostics[36]["message"]
    assert diagnostics[37]["suggestion"] == "raise liveliness.lease_duration to ≥ 18000000000s"


def test_rules_subcommand_lists_41(capsys):
    assert main(["rules"]) == 0
    out, _ = capsys.readouterr()
    rows = [line for line in out.splitlines() if line[:2].strip().isdigit()]
    assert len(rows) == 41
    assert main(["rules", "--format", "json"]) == 0
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert len(payload) == 41
    assert payload[0]["id"] == 1 and payload[40]["id"] == 41


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fmt, golden", [("table", "rules.table.txt"), ("json", "rules.json")])
def test_rules_output_matches_the_golden_file(capsys, fmt, golden):
    assert main(["rules", "--format", fmt]) == 0
    out, _ = capsys.readouterr()
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_graph_subcommand(capsys):
    assert main(["graph"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("digraph")
    assert main(["graph", "--format", "json"]) == 0
    out, _ = capsys.readouterr()
    assert len(json.loads(out)["nodes"]) == 16


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check"])  # missing inputs
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def _run_package(*args: str) -> subprocess.CompletedProcess:
    """``python -m qos_chain_guard ARGS`` with this checkout's package on the path."""
    src = str(Path(qos_chain_guard.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"}
    return subprocess.run(
        [sys.executable, "-m", "qos_chain_guard", *args], env=env, capture_output=True, timeout=60
    )


def test_package_runs_as_a_module(fixtures, capsys):
    version = _run_package("--version")
    assert version.returncode == 0
    assert version.stdout.decode() == f"qos-chain-guard {__version__}\n"
    for name in ("clean", "critical"):
        check = _run_package("check", fixtures[name], "--format", "json")
        assert check.returncode == main(["check", fixtures[name], "--format", "json"])
        assert check.stdout.decode("utf-8") == capsys.readouterr().out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["check", "rules", "graph", "--version", "--help"])
def test_unwritable_stdout_exits_2_with_one_error_line(fixtures, command, buffered):
    # Buffered, the write succeeds and the flush fails; then the interpreter
    # flushes again at exit.  Unbuffered, the write itself fails.  argparse
    # prints --version and --help itself and ignores a failed write.
    src = str(Path(qos_chain_guard.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    args = [command, fixtures["clean"]] if command == "check" else [command]
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "qos_chain_guard", *args],
            env=env, stdout=full, stderr=subprocess.PIPE, timeout=60,
        )
    lines = done.stderr.decode("utf-8").splitlines()
    assert done.returncode == 2
    assert len(lines) == 1 and lines[0].startswith("qos-chain-guard: error: cannot write output: ")


# Run as ``python -c _CLOSED_LAUNCHER FD ARGS``: close descriptor FD, then
# become ``python -m qos_chain_guard ARGS``, which so starts with FD closed.
_CLOSED_LAUNCHER = """
import os, sys
os.close(int(sys.argv[1]))
os.execv(sys.executable, [sys.executable, "-m", "qos_chain_guard", *sys.argv[2:]])
"""


def _run_with_closed(fd: int, *args: str) -> subprocess.CompletedProcess:
    """``python -m qos_chain_guard ARGS``, started with descriptor ``fd`` closed."""
    src = str(Path(qos_chain_guard.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"}
    return subprocess.run(
        [sys.executable, "-c", _CLOSED_LAUNCHER, str(fd), *args], env=env, capture_output=True, timeout=60
    )


@pytest.mark.parametrize(
    "args",
    [["check", "critical"], ["check", "critical", "--format", "json"], ["--version"], ["rules"], ["graph"]],
    ids=["check", "check-json", "version", "rules", "graph"],
)
def test_closed_stdout_exits_2_with_one_error_line(fixtures, args):
    # With descriptor 1 closed, sys.stdout is None: an output error, and no terminal.
    done = _run_with_closed(1, *(fixtures.get(arg, arg) for arg in args))
    assert done.returncode == 2
    assert done.stderr.decode("utf-8") == "qos-chain-guard: error: cannot write output: stdout is closed\n"


@pytest.mark.parametrize(
    "args, code",
    [(["check", "empty"], 2), (["check", "clean", "--env", "ghost.json"], 2), (["check"], 2),
     (["check", "critical"], 1), (["check", "clean"], 0)],
    ids=["load-error", "environment-error", "usage-error", "findings", "clean"],
)
def test_closed_stderr_keeps_the_exit_code(fixtures, tmp_path, args, code):
    # The error line cannot be written; the exit code still tells the error.
    empty = tmp_path / "empty.xml"
    empty.write_bytes(b"")
    paths = {**fixtures, "empty": str(empty), "ghost.json": str(tmp_path / "ghost.json")}
    done = _run_with_closed(2, *(paths.get(arg, arg) for arg in args))
    assert done.returncode == code
    assert done.stderr == b""
    assert done.stdout.startswith(b"inputs: ") == (code < 2)  # a report, unless an error


# Run in a fresh interpreter as ``python -c _EXIT_PROBE ARGS``: the console
# script's entry point on ARGS, with an atexit hook that writes how many
# objects are frozen to stderr.
_EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print(f"frozen: {gc.get_freeze_count()}", file=sys.stderr))
from qos_chain_guard import cli
cli.run()
"""


@pytest.mark.parametrize(
    "args, code",
    [(["check", "critical"], 1), (["check"], 2), (["--version"], 0)],
    ids=["findings", "usage-error", "version"],
)
def test_run_freezes_the_heap_before_the_interpreter_exits(fixtures, args, code):
    # Freezing moves every object out of the collector's generations, so
    # the collections at shutdown do not walk the heap the run built.
    src = str(Path(qos_chain_guard.__file__).resolve().parents[1])
    args = [fixtures.get(arg, arg) for arg in args]
    done = subprocess.run(
        [sys.executable, "-c", _EXIT_PROBE, *args],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == code, done.stderr
    frozen = done.stderr.splitlines()[-1]
    assert frozen.startswith("frozen: ") and int(frozen.removeprefix("frozen: ")) > 0


def test_main_leaves_the_collector_alone(fixtures, capsys):
    # Compared with the count main found: an interpreter may freeze objects
    # of its own before any test runs (CPython 3.12 does).
    frozen = gc.get_freeze_count()
    assert main(["check", fixtures["critical"]]) == 1
    assert main(["--version"]) == 0
    with pytest.raises(SystemExit):
        main(["check"])
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


def _main_or_usage_error(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return ("usage error", exc.code)


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_on_or_off_as_it_found_it(fixtures, tmp_path, capsys, collecting):
    bad = tmp_path / "bad.xml"
    bad.write_text("<profiles><data_writer>", encoding="utf-8")
    runs = [
        (["check", fixtures["clean"]], 0),
        (["check", fixtures["critical"]], 1),
        (["check", str(bad)], 2),
        (["check"], ("usage error", 2)),
        (["rules"], 0),
    ]
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, code in runs:
            assert _main_or_usage_error(argv) == code
            assert gc.isenabled() is collecting, argv
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_main_pauses_the_collector_while_the_check_runs(fixtures, monkeypatch, capsys):
    seen = []

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return run_pipeline(*args, **kwargs)

    run_pipeline = cli.run_pipeline
    monkeypatch.setattr(cli, "run_pipeline", recording)
    assert gc.isenabled()
    assert main(["check", fixtures["critical"]]) == 1
    assert seen == [False]
    assert gc.isenabled()
    capsys.readouterr()


def _cyclic_garbage(argv):
    """The exit code of ``main(argv)`` and how many objects it leaves that
    only the cyclic collector can free."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("workload_name", ["wide", "class-heavy", "dense", "desk"])
def test_a_check_makes_no_cyclic_garbage_that_grows_with_its_input(fixtures, tmp_path, workload_name):
    # What makes pausing the collector safe: the records, findings and
    # report a check builds are freed by reference counting, so the cyclic
    # garbage a run leaves is the same on a perfbench workload (seed 7,
    # hundreds of endpoints) as on a two-endpoint file, report format for
    # report format, and the same again when a load error ends the run.
    workloads = perfbench_workloads()
    workload = workloads.generate(workload_name, 7)
    argv = workloads.check_argv(workload, workloads.write(workload, str(tmp_path / workload_name)))
    small = ["check", fixtures["critical"], "--format", workload.fmt]
    bad = tmp_path / "bad.xml"
    bad.write_text("<profiles><data_writer>", encoding="utf-8")
    code, garbage = _cyclic_garbage(argv)
    assert code == 1
    assert _cyclic_garbage(small) == (1, garbage)
    # The load error comes after every file of the workload has been read.
    code, garbage = _cyclic_garbage(["check", str(bad)])
    assert code == 2
    inputs = argv[1:argv.index("--format")]
    assert _cyclic_garbage(["check", *inputs, str(bad)]) == (2, garbage)


def test_cli_phases_times_one_round(fixtures):
    tool = Path(__file__).resolve().parents[1] / "tools" / "cli_phases.py"
    done = subprocess.run(
        [sys.executable, str(tool), "--rounds", "1", "--", "check", fixtures["critical"]],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    mode, header, side = done.stdout.splitlines()
    assert "bytecode" in mode and mode.endswith("; 1 round(s)")
    assert header.split() == ["median", "ms", "start", "import", "main", "exit", "peak", "MB", "exit", "codes"]
    assert side.startswith("working tree ")
    *phases, peak, code = side.removeprefix("working tree").split()
    assert len(phases) == 4 and all(float(ms) > 0 for ms in phases)
    if Path("/proc/self/status").exists():
        assert float(peak) > 0
    else:
        assert peak == "n/a"
    assert code == "1"


def test_cli_phases_reads_no_bytecode_where_it_writes_none(monkeypatch, tmp_path):
    # PYTHONDONTWRITEBYTECODE stops writing bytecode, not reading it: a
    # stale __pycache__ would still be read, and the import timed short.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    cli_phases = importlib.import_module("cli_phases")
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert "PYTHONPYCACHEPREFIX" not in cli_phases.child_env("src", str(tmp_path))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = cli_phases.child_env("src", str(tmp_path))
    assert env["PYTHONPATH"] == "src" and env["PYTHONDONTWRITEBYTECODE"] == "1"
    prefix = Path(env["PYTHONPYCACHEPREFIX"])
    assert prefix.is_dir() and not any(prefix.iterdir()) and prefix.is_relative_to(tmp_path)
    assert "neither written nor read" in cli_phases.bytecode_mode()


# Run in a fresh interpreter: ``check`` on argv[1], then ``graph``.  Prints
# the modules of UNUSED loaded after each, as JSON.
_STARTUP_PROBE = """
import contextlib, io, json, sys
from qos_chain_guard import cli

UNUSED = (
    "urllib.request", "http", "email", "ssl", "xml.sax", "qos_chain_guard.chain", "dataclasses", "inspect",
)

def loaded():
    return sorted(m for m in sys.modules if m in UNUSED or m.startswith(tuple(u + "." for u in UNUSED)))

with contextlib.redirect_stdout(io.StringIO()):
    check = cli.main(["check", sys.argv[1], "--format", "json"])
after_check = loaded()
with contextlib.redirect_stdout(io.StringIO()) as graph_out:
    graph = cli.main(["graph", "--format", "json"])
json.loads(graph_out.getvalue())
print(json.dumps({"check": check, "after_check": after_check, "graph": graph, "after_graph": loaded()}))
"""


def test_check_loads_neither_the_graph_nor_the_web_stack(fixtures):
    # ``xml.sax.saxutils`` pulls in urllib.request, http, email and ssl.
    # Bare ``urllib`` is not checked: ``site`` may load urllib.parse.
    # ``dataclasses`` loads ``inspect`` and, through it, ``ast``, ``dis`` and
    # ``tokenize``: the records are built without it.
    src = str(Path(qos_chain_guard.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, fixtures["critical"]],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    result = json.loads(probe.stdout)
    assert result["check"] == 1
    assert result["after_check"] == []
    assert result["graph"] == 0
    assert result["after_graph"] == ["qos_chain_guard.chain"]


# Run in a fresh interpreter: import the CLI with ``exec`` recorded.  Prints,
# as JSON, the module that passed each source string and the functions the
# source defines.
_EXEC_PROBE = """
import builtins, json, re, sys

original, sources = builtins.exec, []

def recorded(source, *args, **kwargs):
    if isinstance(source, str):
        sources.append([sys._getframe(1).f_globals["__name__"], re.findall(r"^def (\\w+)\\(", source, re.M)])
    return original(source, *args, **kwargs)

builtins.exec = recorded
import qos_chain_guard.cli
builtins.exec = original
print(json.dumps(sources))
"""


def test_import_compiles_one_function_per_rule_and_two_for_stage_2():
    # The start-up path compiles each rule's outcome, then stage 2's halves,
    # and nothing else for the rules: no per-rule key function.
    src = str(Path(qos_chain_guard.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", _EXEC_PROBE],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    defined = [names for module, names in json.loads(probe.stdout) if module == "qos_chain_guard.rules"]
    assert defined == [[f"rule_{n}"] for n in range(1, 42)] + [["writer_halves"], ["reader_halves"]]


def test_every_public_name_resolves():
    from qos_chain_guard import ChainGraph, chain_graph, export_chain_graph
    from qos_chain_guard import chain

    for name in qos_chain_guard.__all__:
        getattr(qos_chain_guard, name)
    assert (ChainGraph, chain_graph, export_chain_graph) == (
        chain.ChainGraph, chain.chain_graph, chain.export_chain_graph
    )
    with pytest.raises(AttributeError, match="module 'qos_chain_guard' has no attribute 'no_such_name'"):
        qos_chain_guard.no_such_name
