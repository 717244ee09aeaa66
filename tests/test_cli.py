"""Command line surface: flags, config files, exit codes, output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qloop.cli as cli
import qloop.report as report
from qloop.cli import _load_config_file, main
from qloop.report import ConfigError, ResourceError, RunConfig


def test_run_subcommand_passes(capsys):
    assert main(["run", "--suite", "qcomb", "--N", "2"]) == 0
    out = capsys.readouterr().out
    assert "checks:" in out and "nonzero=0" in out


def test_bare_flags_imply_run(capsys):
    assert main(["--suite", "qcomb", "--N", "3", "--L", "2"]) == 0
    assert "suites=qcomb" in capsys.readouterr().out


def test_config_errors_exit_two(capsys):
    assert main(["--suite", "nope"]) == 2
    assert main(["--N", "1"]) == 2
    assert main(["--backend", "cyclic", "--suite", "lemmas"]) == 2
    assert main(["--ring", "exotic"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_resource_error_exit_three(monkeypatch, capsys):
    def fake_run(config):
        raise ResourceError("too big")

    monkeypatch.setattr(cli, "run", fake_run)
    assert main(["--suite", "qcomb"]) == 3
    assert "resource error" in capsys.readouterr().err


def test_memory_error_while_building_the_run_exits_three(monkeypatch, capsys):
    real_make_store = report.make_store
    calls = []

    def make_store_once(ctx, cache=None):
        # the first store succeeds, so the rescale audit's own set-up fails
        if calls:
            raise MemoryError
        calls.append(ctx)
        return real_make_store(ctx, cache)

    monkeypatch.setattr(report, "make_store", make_store_once)
    with pytest.raises(ResourceError):
        report.run(RunConfig(n_param=2, length=2, suites=("id2",),
                             rescale_audit=True))
    assert len(calls) == 1
    assert main(["--suite", "rep-gate", "--N", "2", "--L", "2"]) == 3
    assert "resource error" in capsys.readouterr().err
    with pytest.raises(ResourceError):
        report.run(RunConfig(n_param=2, length=2, suites=("rep-gate",)))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failed_cache_write_exits_three(monkeypatch, capfd, tmp_path, jobs):
    import errno

    import qloop.opcache as opcache

    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    # forked workers inherit the patched module, so every process fails
    monkeypatch.setattr(opcache.os, "replace", disk_full)
    monkeypatch.setattr(report, "_core_count", lambda: 2)
    cache = tmp_path / "opcache"
    assert main(["run", "--N", "2", "--L", "3", "--suite", "divpow",
                 "--cache-dir", str(cache), "--jobs", jobs]) == 3
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"resource error: cannot write cache file {cache}")
    assert err[0].endswith(".qop: No space left on device")
    assert list(cache.iterdir()) == []


def test_failing_checks_exit_one(monkeypatch, capsys):
    class FakeDoc:
        ok = False

        def summary_lines(self):
            return ["FAIL x"]

    monkeypatch.setattr(cli, "run", lambda config: FakeDoc())
    assert main(["--suite", "qcomb"]) == 1


def test_report_flag_writes_document(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["--suite", "qcomb", "--N", "2", "--report", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["config"]["suites"] == ["qcomb"]
    assert data["summary"]["nonzero"] == 0
    assert str(path) in capsys.readouterr().out


def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "backend = spin_half\n"
        "N = 2\n"
        "L = 3\n"
        "Q = 0, 1\n"
        "suite = qcomb, id1\n"
        "jobs = 2\n"
    )
    assert main(["--config", str(cfg), "--L", "4", "--suite", "qcomb"]) == 0
    out = capsys.readouterr().out
    assert "L=4" in out and "suites=qcomb" in out and "N=2" in out


def test_length_bound_is_not_configurable(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--max-L", "20", "--L", "20"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_L=20\nL=20\n")
    assert main(["--config", str(cfg)]) == 2
    assert "unknown config key 'max_L'" in capsys.readouterr().err
    assert main(["--L", "15"]) == 2
    assert "L must be an integer in 1..14" in capsys.readouterr().err


def test_an_empty_suite_selection_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=\nN=2\nL=2\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config error: no suite selected" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="no suite selected"):
        report.run(RunConfig(n_param=2, length=2, suites=()))


def test_a_run_whose_jobs_read_no_store_builds_no_chain(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a chain was built that no job reads")

    def bad_rep(*args):
        raise report.InvalidParams("bad parameter")

    monkeypatch.setattr(report, "ChainContext", refuse)
    assert main(["run", "--suite", "qcomb", "--N", "2", "--L", "14"]) == 0
    assert "checks: 108" in capsys.readouterr().out
    # nor does the prefill of a --jobs run, which reads no store either
    monkeypatch.setattr(report, "_core_count", lambda: 2)
    assert main(["run", "--suite", "qcomb", "--N", "2", "--L", "14", "--jobs", "2"]) == 0
    assert "checks: 108" in capsys.readouterr().out
    # the run's site representation is still built, and a bad parameter
    # refused, before any job runs
    monkeypatch.setattr(report, "build_site_rep", bad_rep)
    assert main(["run", "--suite", "qcomb", "--N", "2"]) == 2
    assert "config error: bad parameter" in capsys.readouterr().err


@pytest.fixture
def no_chain(monkeypatch):
    """Make building a run's chain, and so running any job, fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a chain was built for a rejected run")

    monkeypatch.setattr(report, "_RunEnv", refuse)


def test_state_budget_exits_two_before_any_chain_is_built(no_chain, capsys):
    assert main(["run", "--backend", "highest_weight", "--N", "8", "--L", "14"]) == 2
    assert "L must be an integer in 1..4, got 14" in capsys.readouterr().err


def test_ring_table_budget_exits_two_before_any_chain_is_built(no_chain, capsys):
    assert main(["run", "--N", "1000000", "--L", "2"]) == 2
    assert "phi(2N) must be at most 322" in capsys.readouterr().err


def test_a_report_link_into_a_missing_directory_is_written(tmp_path, capsys):
    target = tmp_path / "missing" / "sub" / "out.json"
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["run", "--N", "2", "--L", "2", "--suite", "lemmas",
                 "--report", str(link)]) == 0
    assert json.loads(target.read_text())["config"]["suites"] == ["lemmas"]


def test_a_failed_report_write_exits_three(monkeypatch, capsys, tmp_path):
    import errno
    import io

    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(report, "open", lambda *args, **kw: FullDisk(), raising=False)
    path = tmp_path / "report.json"
    assert main(["run", "--N", "2", "--suite", "qcomb", "--report", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"resource error: cannot write report to {path}: No space left on device\n")


def test_report_path_that_is_a_directory_exits_two(no_chain, tmp_path, capsys):
    assert main(["run", "--suite", "qcomb", "--report", str(tmp_path)]) == 2
    assert "config error: cannot write report to" in capsys.readouterr().err


def test_report_path_under_a_file_exits_two(no_chain, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "--suite", "qcomb", "--report", str(blocker / "x.json")]) == 2
    assert "config error: cannot write report to" in capsys.readouterr().err


def test_cache_dir_that_is_a_file_exits_two(no_chain, tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "--suite", "qcomb", "--cache-dir", str(blocker)]) == 2
    monkeypatch.setenv("QLOOP_CACHE_DIR", str(blocker))
    assert main(["run", "--suite", "qcomb"]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: cannot use cache directory") == 2


def test_config_file_parsing_errors(tmp_path):
    bad_line = tmp_path / "a.cfg"
    bad_line.write_text("just words\n")
    with pytest.raises(ConfigError, match="key=value"):
        _load_config_file(str(bad_line))

    bad_key = tmp_path / "b.cfg"
    bad_key.write_text("mystery = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        _load_config_file(str(bad_key))

    bad_int = tmp_path / "c.cfg"
    bad_int.write_text("L = soon\n")
    with pytest.raises(ConfigError, match="c.cfg:1"):
        _load_config_file(str(bad_int))

    bad_bool = tmp_path / "d.cfg"
    bad_bool.write_text("rescale_audit = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        _load_config_file(str(bad_bool))

    with pytest.raises(ConfigError, match="cannot read"):
        _load_config_file(str(tmp_path / "missing.cfg"))


def test_config_file_errors_name_their_location_once(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N=2\nfoo=3\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:2: unknown config key 'foo'\n"
    cfg.write_text("N=2\nrescale-audit = maybe\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}:2: rescale_audit: expected a boolean, got 'maybe'\n")


def test_missing_config_file_exits_two(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "none.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfeN=2\n")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {cfg}: ")
    assert len(err.splitlines()) == 1


def test_env_cache_dir_default(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("QLOOP_CACHE_DIR", str(env_dir))
    assert main(["--suite", "barred", "--N", "2", "--L", "3"]) == 0
    assert env_dir.is_dir() and list(env_dir.iterdir())

    flag_dir = tmp_path / "from_flag"
    assert main(["--suite", "barred", "--N", "2", "--L", "3",
                 "--cache-dir", str(flag_dir)]) == 0
    assert flag_dir.is_dir()


def test_explain_subcommand(capsys):
    assert main(["explain", "id1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("serre.ladder-wide")
    assert "regime:" in out

    assert main(["explain", "mulo"]) == 0
    assert capsys.readouterr().out.startswith("divpow.merge-binomial")

    assert main(["explain", "bogus"]) == 2
    assert "unknown check id" in capsys.readouterr().err

    assert main(["explain", "--list"]) == 0
    listing = capsys.readouterr().out.splitlines()
    assert "serre.three-term" in listing

    assert main(["explain"]) == 2


def test_no_arguments_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qloop" in capsys.readouterr().out


# A sitecustomize that reports, as the process exits, the BLAS thread setting
# its own environment ended with and the state of its garbage collector.
_REPORT_PROCESS_STATE = """\
import atexit, gc, os, sys
atexit.register(lambda: sys.stderr.write(
    "OPENBLAS_NUM_THREADS=%s gc_enabled=%s gc_frozen=%d\\n"
    % (os.environ.get("OPENBLAS_NUM_THREADS"), gc.isenabled(),
       gc.get_freeze_count())))
"""


def _fresh_env(tmp_path, blas_threads):
    """The environment of a fresh interpreter that imports qloop from src and
    reports its BLAS thread setting and collector state at exit;
    blas_threads None leaves the setting unset."""
    (tmp_path / "sitecustomize.py").write_text(_REPORT_PROCESS_STATE)
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(tmp_path), os.environ.get("PYTHONPATH")) if p)
    return env


def _state_at_exit(argv, env, cwd) -> dict[str, str]:
    """What the sitecustomize of _fresh_env reported, by name."""
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(item.split("=", 1) for item in proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("launch", ["-m", "-m qloop.cli", "console script"])
@pytest.mark.parametrize("caller, expected", [(None, "1"), ("2", "2")])
def test_command_runs_on_one_blas_thread_unless_the_caller_sets_it(
        tmp_path, launch, caller, expected):
    if launch == "-m":
        argv = ["-m", "qloop", "--version"]
    elif launch == "-m qloop.cli":
        argv = ["-m", "qloop.cli", "--version"]
    else:
        # what the installed `qloop` entry point runs
        (tmp_path / "qloop").write_text(
            "import sys\nfrom qloop.cli import main\nsys.exit(main())\n")
        argv = [str(tmp_path / "qloop"), "--version"]
    env = _fresh_env(tmp_path, caller)
    state = _state_at_exit(argv, env, tmp_path)
    assert state["OPENBLAS_NUM_THREADS"] == expected
    # the command runs with the cyclic collector off and its imports frozen
    assert state["gc_enabled"] == "False"
    assert int(state["gc_frozen"]) > 0


@pytest.mark.parametrize("launch", ["-c", "script", "-m"])
def test_importing_qloop_leaves_the_environment_unchanged(tmp_path, launch):
    """The benchmark's own import (qloop.report from a script) and a
    `python -m` of another package that imports qloop are library uses."""
    body = ("import os\n"
            "before = dict(os.environ)\n"
            "import qloop\n"
            "from qloop.report import strip_timing\n"
            "assert dict(os.environ) == before, 'qloop changed os.environ'\n")
    if launch == "-c":
        argv = ["-c", body]
    elif launch == "script":
        (tmp_path / "bench.py").write_text(body)
        argv = [str(tmp_path / "bench.py")]
    else:
        (tmp_path / "tool").mkdir()
        (tmp_path / "tool" / "__init__.py").write_text(body)
        (tmp_path / "tool" / "__main__.py").write_text("")
        argv = ["-m", "tool"]
    env = _fresh_env(tmp_path, None)
    assert _state_at_exit(argv, env, tmp_path) == {
        "OPENBLAS_NUM_THREADS": "None", "gc_enabled": "True", "gc_frozen": "0"}
