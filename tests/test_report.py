"""Run orchestration: config validation, determinism, auditing, explain."""

import json
import os

import pytest

from qloop.identity import ERROR, EXACT_ZERO, NONZERO, OK_STATUSES, make_check
from qloop.report import (
    SUITE_NAMES,
    ConfigError,
    ReportDocument,
    ResourceError,
    RunConfig,
    UnknownId,
    _collect,
    _Job,
    _run_job,
    explain,
    list_families,
    run,
    strip_timing,
)
from qloop.opcache import MAGIC, OperatorCache
from qloop.repchain import ChainContext, build_site_rep, rescaled_rep
from qloop.rings import InternalInconsistency, LaurentPoly, NotDivisible
from qloop.serre import InvalidRegime


def _stripped(doc, drop=()):
    data = strip_timing(doc.to_json_dict())
    for key in drop:
        data["config"].pop(key, None)
    return json.dumps(data, sort_keys=True)


# --- configuration ----------------------------------------------------------

@pytest.mark.parametrize("kwargs,fragment", [
    ({"backend": "heisenberg"}, "backend"),
    ({"n_param": 1}, "N must be"),
    ({"length": 0}, "L must be"),
    ({"length": 15}, "L must be"),
    ({"q_sectors": (2,)}, "Q must lie"),
    ({"q_sectors": (-1,)}, "Q must lie"),
    ({"ring": "padic"}, "ring mode"),
    ({"suites": ("qcomb", "bogus")}, "unknown suite"),
    ({"backend": "cyclic", "suites": ("site",)}, "cyclic"),
    ({"backend": "cyclic", "suites": ("divpow",)}, "cyclic"),
    ({"jobs": 0}, "jobs"),
])
def test_config_rejections(kwargs, fragment):
    with pytest.raises(ConfigError, match=fragment):
        RunConfig(**kwargs).validate()


def test_unknown_suite_rejected_before_any_computation(tmp_path):
    report = tmp_path / "never.json"
    cfg = RunConfig(suites=("bogus",), report_path=str(report))
    with pytest.raises(ConfigError):
        run(cfg)
    assert not report.exists()


def test_suite_expansion():
    assert RunConfig().selected_suites() == SUITE_NAMES
    assert RunConfig(backend="cyclic").selected_suites() == ("qcomb", "rep-gate")
    # explicit names come back in canonical order, deduplicated
    cfg = RunConfig(suites=("site", "qcomb", "site"))
    assert cfg.selected_suites() == ("qcomb", "site")


def test_sector_defaults():
    assert RunConfig(n_param=3).sectors() == (0, 1, 2)
    assert RunConfig(n_param=3, q_sectors=(2, 2, 0)).sectors() == (2, 0)


# --- a full small run -------------------------------------------------------

@pytest.fixture(scope="module")
def small_doc():
    return run(RunConfig(n_param=2, length=4, q_sectors=(1,)))


def test_small_run_passes(small_doc):
    assert small_doc.ok
    assert small_doc.summary["nonzero"] == 0
    assert small_doc.summary["error"] == 0
    assert small_doc.summary["total"] == len(small_doc.checks)
    assert small_doc.summary["total"] > 200
    for check in small_doc.checks:
        assert check.status in OK_STATUSES, check.check_id


def test_checks_sorted_and_unique(small_doc):
    ids = [c.check_id for c in small_doc.checks]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_json_document_shape(small_doc):
    data = small_doc.to_json_dict()
    assert data["tool"]["name"] == "qloop"
    assert data["config"]["N"] == 2 and data["config"]["L"] == 4
    record = data["checks"][0]
    for key in ("id", "equation", "params", "status", "millis"):
        assert key in record
    round_trip = json.loads(small_doc.to_json())
    assert round_trip["summary"] == data["summary"]


def test_rerun_is_identical_modulo_timing(small_doc):
    again = run(RunConfig(n_param=2, length=4, q_sectors=(1,)))
    assert _stripped(small_doc) == _stripped(again)


def test_worker_count_does_not_change_results(small_doc):
    wide = run(RunConfig(n_param=2, length=4, q_sectors=(1,), jobs=8))
    assert _stripped(small_doc, drop=("jobs",)) == _stripped(wide, drop=("jobs",))


def test_cache_cold_warm_and_disabled_agree(small_doc, tmp_path):
    cache = str(tmp_path / "opcache")
    cfg = RunConfig(n_param=2, length=4, q_sectors=(1,), cache_dir=cache)
    cold = run(cfg)
    assert list((tmp_path / "opcache").iterdir()), "cache dir stayed empty"
    warm = run(cfg)
    assert _stripped(cold) == _stripped(warm)
    assert _stripped(cold, drop=("cache_dir",)) == _stripped(small_doc, drop=("cache_dir",))


def test_cache_keeps_the_rescaled_chain_apart(tmp_path):
    """The rescale audit's store must not read the plain chain's powers."""
    settings = dict(n_param=2, length=4, suites=("id1",), rescale_audit=True)
    uncached = _stripped(run(RunConfig(**settings)), drop=("cache_dir",))
    cached = RunConfig(**settings, cache_dir=str(tmp_path / "opcache"))
    cold = run(cached)
    warm = run(cached)
    assert _stripped(cold, drop=("cache_dir",)) == uncached
    assert _stripped(warm, drop=("cache_dir",)) == uncached


def test_truncated_cache_files_are_recomputed(tmp_path):
    settings = dict(n_param=2, length=3, suites=("id1",))
    uncached = _stripped(run(RunConfig(**settings)), drop=("cache_dir",))
    cache = tmp_path / "opcache"
    cached = RunConfig(**settings, cache_dir=str(cache))
    run(cached)
    blobs = {path: path.read_bytes() for path in cache.iterdir()}
    assert blobs, "cache dir stayed empty"
    for cut in (lambda n: 0, lambda n: 10, lambda n: 20,
                lambda n: n // 2, lambda n: n - 1):
        for path, blob in blobs.items():
            path.write_bytes(blob[:cut(len(blob))])
        assert _stripped(run(cached), drop=("cache_dir",)) == uncached


def _cache_keys(cache_dir):
    keys = []
    for path in cache_dir.iterdir():
        blob = path.read_bytes()
        klen = int.from_bytes(blob[len(MAGIC):len(MAGIC) + 4], "little")
        keys.append(blob[len(MAGIC) + 4:len(MAGIC) + 4 + klen].decode())
    return keys


def test_truncated_cache_files_are_replaced(tmp_path):
    cache = tmp_path / "opcache"
    cached = RunConfig(n_param=2, length=3, suites=("id1",), cache_dir=str(cache))
    run(cached)
    blobs = {path: path.read_bytes() for path in cache.iterdir()}
    assert blobs, "cache dir stayed empty"
    for path in blobs:
        path.write_bytes(blobs[path][:10])
    run(cached)
    assert {path: path.read_bytes() for path in cache.iterdir()} == blobs
    ctx = ChainContext(build_site_rep("spin_half", 2), 3)
    reader = OperatorCache(cache)
    for key in _cache_keys(cache):
        assert reader.load(key, ctx) is not None, key


def _file_stamps(cache_dir):
    return {path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in cache_dir.iterdir()}


def test_g_forms_store_reads_and_writes_the_run_cache(tmp_path):
    cache = tmp_path / "opcache"
    cfg = RunConfig(n_param=2, length=5, suites=("id2",), cache_dir=str(cache))
    cold = run(cfg)
    keys = _cache_keys(cache)
    assert any("|L=4|" in key for key in keys), keys
    assert any("|L=5|" in key for key in keys), keys
    stamps = _file_stamps(cache)
    warm = run(cfg)
    assert _file_stamps(cache) == stamps, "a warm run wrote cache files"
    assert _stripped(cold) == _stripped(warm)


def test_report_file_round_trips(tmp_path):
    path = tmp_path / "out" / "report.json"
    doc = run(RunConfig(n_param=2, length=3, suites=("qcomb",),
                        report_path=str(path)))
    on_disk = json.loads(path.read_text())
    assert on_disk == doc.to_json_dict()


# --- worker processes -------------------------------------------------------

class _InlinePool:
    """Stands in for the fork pool: records its size, runs jobs in-process."""

    sizes = []

    def __init__(self, workers, jobs):
        self.sizes.append(workers)
        self.jobs = jobs

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, indices, chunksize=1):
        assert chunksize >= 1
        return [_run_job(self.jobs[i]) for i in indices]


def test_worker_count_is_capped_without_starting_processes(monkeypatch, small_doc):
    import qloop.report as report

    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(report, "_fork_pool", _InlinePool)
    _InlinePool.sizes = []
    doc = run(RunConfig(n_param=2, length=4, q_sectors=(1,), jobs=1000000))
    assert _InlinePool.sizes, "the pool was never asked for"
    assert max(_InlinePool.sizes) <= report._core_count()
    assert _stripped(doc, drop=("jobs",)) == _stripped(small_doc, drop=("jobs",))


def test_other_threads_keep_the_run_in_process(monkeypatch, small_doc):
    import threading

    import qloop.report as report

    def no_fork():
        raise AssertionError("forked while another thread was running")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(report, "_core_count", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        doc = run(RunConfig(n_param=2, length=4, q_sectors=(1,), jobs=2))
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert _stripped(doc, drop=("jobs",)) == _stripped(small_doc, drop=("jobs",))


def _builder_with(job_fn):
    """A qcomb suite builder that adds one job running job_fn."""
    import qloop.report as report

    real = report._SUITE_BUILDERS["qcomb"]

    def builder(env):
        return real(env) + [_Job("qcomb/planted", "qcomb", job_fn)]

    return builder


def test_worker_memory_error_is_a_resource_error(monkeypatch):
    import qloop.report as report

    parent = os.getpid()

    def exhaust():
        if os.getpid() != parent:
            raise MemoryError("worker out of memory")
        return []

    monkeypatch.setitem(report._SUITE_BUILDERS, "qcomb", _builder_with(exhaust))
    monkeypatch.setattr(report, "_core_count", lambda: 2)
    with pytest.raises(ResourceError, match="exhausted memory"):
        run(RunConfig(n_param=2, length=2, suites=("qcomb",), jobs=2))


# `qloop run` on two workers, with one more qcomb job whose {body} runs only
# in a worker process; sys.argv[1] is left for the body to use
_PLANTED_RUN = """
import os, sys, time
from pathlib import Path
import qloop.report as report
parent = os.getpid()
real = report._SUITE_BUILDERS["qcomb"]

def planted():
    if os.getpid() != parent:
        {body}
    return []

report._SUITE_BUILDERS["qcomb"] = lambda env: real(env) + [
    report._Job("qcomb/planted", "qcomb", planted)]
report._core_count = lambda: 2
from qloop.cli import main
sys.exit(main(["run", "--N", "2", "--L", "2", "--suite", "qcomb", "--jobs", "2"]))
"""


def _src_env():
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_dead_worker_exits_three_promptly():
    import subprocess
    import sys
    import time

    start = time.monotonic()
    script = _PLANTED_RUN.format(body="os._exit(1)")
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - start
    assert proc.returncode == 3, proc.stderr
    assert "resource error" in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 30


def _running(pid):
    """False once pid has exited (a zombie waiting to be reaped counts)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_workers_end_when_the_run_is_killed(tmp_path):
    import subprocess
    import sys
    import time

    pid_file = tmp_path / "worker.pid"
    script = _PLANTED_RUN.format(
        body="Path(sys.argv[1]).write_text(str(os.getpid())); time.sleep(120)")
    proc = subprocess.Popen([sys.executable, "-c", script, str(pid_file)],
                            env=_src_env())
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists() or not pid_file.read_text():
            assert time.monotonic() < deadline, "no worker reached the job"
            assert proc.poll() is None, "the run ended early"
            time.sleep(0.05)
        worker = int(pid_file.read_text())
        assert _running(worker)
    finally:
        proc.kill()
        proc.wait(60)
    deadline = time.monotonic() + 30
    try:
        while _running(worker):
            assert time.monotonic() < deadline, "the worker outlived the run"
            time.sleep(0.05)
    finally:
        if _running(worker):
            os.kill(worker, 9)


@pytest.mark.parametrize("settings", [
    {"ring": "float"},
    {"ring": "phi-adic"},
    {"rescale_audit": True, "suites": ("id1", "id2", "site", "serre-nested")},
], ids=["float", "phi-adic", "rescale-audit"])
def test_worker_processes_do_not_change_results(monkeypatch, settings):
    import qloop.report as report

    # more workers than this host may have cores, so three really fork
    monkeypatch.setattr(report, "_core_count", lambda: 3)
    docs = [_stripped(run(RunConfig(n_param=2, length=4, q_sectors=(1,),
                                    jobs=jobs, **settings)), drop=("jobs",))
            for jobs in (1, 2, 3)]
    assert docs[0] == docs[1] == docs[2]


def test_worker_processes_share_one_cold_cache(monkeypatch, small_doc, tmp_path):
    import qloop.report as report

    monkeypatch.setattr(report, "_core_count", lambda: 3)
    cache = tmp_path / "opcache"
    # the widest pool fills the cold cache, with its workers writing at once
    for jobs in (3, 2, 1):
        doc = run(RunConfig(n_param=2, length=4, q_sectors=(1,), jobs=jobs,
                            cache_dir=str(cache)))
        assert _stripped(doc, drop=("jobs", "cache_dir")) == \
            _stripped(small_doc, drop=("jobs", "cache_dir"))
    assert not [p for p in cache.iterdir() if p.suffix != ".qop"]


# --- ring modes -------------------------------------------------------------

def test_laurent_and_phi_adic_modes_pass():
    for ring in ("laurent", "phi-adic"):
        doc = run(RunConfig(n_param=2, length=3, q_sectors=(1,), ring=ring,
                            suites=("rep-gate", "barred", "id1")))
        assert doc.ok, ring
        assert doc.summary["approx_zero"] == 0


def test_float_mode_never_reports_exact_for_ring_checks():
    doc = run(RunConfig(n_param=2, length=4, q_sectors=(1,), ring="float"))
    assert doc.ok
    assert doc.summary["approx_zero"] > 0
    for check in doc.checks:
        if check.params.get("ring") == "float":
            assert check.status != EXACT_ZERO, check.check_id


# --- operator construction --------------------------------------------------

def test_plain_run_builds_chain_generators_twice(monkeypatch):
    # the run's own chain and the spin_half L=4 chain of the g-forms job;
    # every other check reads its operators from the run's store
    import qloop.divpow
    import qloop.repchain
    import qloop.report
    import qloop.serre
    real = qloop.repchain.build_chain_generators
    built = []

    def counting(ctx):
        built.append((ctx.rep.kind, ctx.n_param, ctx.length))
        return real(ctx)

    for module in (qloop.repchain, qloop.divpow, qloop.serre, qloop.report):
        if hasattr(module, "build_chain_generators"):
            monkeypatch.setattr(module, "build_chain_generators", counting)
    doc = run(RunConfig(backend="spin_half", n_param=2, length=5))
    assert doc.ok
    assert sorted(built) == [("spin_half", 2, 4), ("spin_half", 2, 5)]


# --- rescale audit ----------------------------------------------------------

def test_rescale_audit_statuses_unchanged():
    doc = run(RunConfig(n_param=2, length=4, q_sectors=(1,), rescale_audit=True,
                        suites=("id1", "site", "lemmas")))
    audits = [c for c in doc.checks if c.family == "audit.rescale"]
    assert [a.params["suite"] for a in audits] == ["id1", "site", "lemmas"]
    for audit in audits:
        assert audit.status == EXACT_ZERO
        assert audit.nontrivial["checks_compared"] > 0
    assert doc.ok


def test_rescale_audit_runs_g_forms_on_a_rescaled_chain(monkeypatch):
    import qloop.report
    real = qloop.report.check_g_forms
    reps = []

    def recording(store, *args, **kwargs):
        reps.append(store.ctx.rep)
        return real(store, *args, **kwargs)

    monkeypatch.setattr(qloop.report, "check_g_forms", recording)
    doc = run(RunConfig(n_param=2, length=3, q_sectors=(1,), suites=("id2",),
                        rescale_audit=True))
    plain = build_site_rep("spin_half", 2)
    scaled = rescaled_rep(plain, LaurentPoly.q_power(3), LaurentPoly({1: -1}))
    # both branches on the run's plain chain, then on the audit's chain
    assert [(rep.e_pr.entries(), rep.f_pr.entries()) for rep in reps] == \
        [(plain.e_pr.entries(), plain.f_pr.entries())] * 2 \
        + [(scaled.e_pr.entries(), scaled.f_pr.entries())] * 2
    audits = [c for c in doc.checks if c.family == "audit.rescale"]
    assert [a.status for a in audits] == [EXACT_ZERO]
    assert doc.ok


def test_rescale_audit_skips_unaudited_suites():
    doc = run(RunConfig(n_param=2, length=3, rescale_audit=True,
                        suites=("qcomb", "rep-gate")))
    assert not [c for c in doc.checks if c.family == "audit.rescale"]


# --- job guard and collection ----------------------------------------------

def test_guard_converts_faults_to_error_records():
    def boom_regime():
        raise InvalidRegime("outside the narrow window")

    def boom_division():
        raise NotDivisible("q-factorial does not divide")

    for thunk, kind in ((boom_regime, "InvalidRegime"),
                        (boom_division, "NotDivisible")):
        out = _run_job(_Job("t/x", "id1", thunk))
        assert len(out) == 1 and out[0].status == ERROR
        assert out[0].family == "run.guard"
        assert out[0].error_kind == kind


def test_guard_escalates_memory_errors():
    def boom():
        raise MemoryError("chain too large")

    with pytest.raises(ResourceError):
        _run_job(_Job("t/big", "site", boom))


def test_collect_rejects_conflicting_duplicate_ids():
    a = make_check("run.guard[job=dup]", "run.guard", {"job": "dup"}, EXACT_ZERO)
    b = make_check("run.guard[job=dup]", "run.guard", {"job": "dup"}, NONZERO)
    jobs = [(_Job("j1", "id1", None), [a]), (_Job("j2", "id2", None), [b])]
    with pytest.raises(InternalInconsistency):
        _collect(jobs)


def test_collect_merges_agreeing_duplicates():
    a = make_check("run.guard[job=dup]", "run.guard", {"job": "dup"}, EXACT_ZERO)
    b = make_check("run.guard[job=dup]", "run.guard", {"job": "dup"}, EXACT_ZERO)
    ordered, per_suite = _collect([
        (_Job("j1", "id1", None), [a]), (_Job("j2", "id2", None), [b]),
    ])
    assert len(ordered) == 1
    assert len(per_suite["id1"]) == len(per_suite["id2"]) == 1


# --- explain ----------------------------------------------------------------

def test_explain_accepts_aliases_families_and_full_ids():
    assert explain("id1").startswith("serre.ladder-wide")
    assert explain("mulo").startswith("divpow.merge-binomial")
    assert explain("qcomb.delta-sum").startswith("qcomb.delta-sum")
    assert explain("serre.three-term[Q=1,kind=spin_half,N=2,L=7]").startswith(
        "serre.three-term")
    text = explain("BCN")
    assert "formula:" in text and "regime:" in text


def test_explain_unknown_id():
    with pytest.raises(UnknownId):
        explain("bogus")


def test_family_listing_is_complete():
    families = list_families()
    assert families == sorted(families)
    for name in ("qcomb.periodicity", "serre.ladder-narrow", "site.swap",
                 "loop.serre-nested", "divpow.cross-normalization",
                 "run.guard", "audit.rescale"):
        assert name in families


# --- summary rendering ------------------------------------------------------

def test_summary_lines_flag_failures_and_vacuity():
    failing = make_check("run.guard[job=x]", "run.guard", {"job": "x"}, NONZERO,
                         witness={"value": "1"})
    doc = ReportDocument(
        tool={"name": "qloop", "version": "0.0"},
        config={"backend": "spin_half", "N": 2, "L": 4, "ring": "cyclotomic",
                "suites": ["id1"], "report": None},
        checks=[failing],
        summary={"exact_zero": 0, "vacuous_zero": 3, "approx_zero": 0,
                 "nonzero": 1, "error": 0, "total": 4},
        total_millis=12.0,
    )
    assert not doc.ok
    text = "\n".join(doc.summary_lines())
    assert "warning" in text and "vacuously" in text
    assert "FAIL run.guard[job=x]" in text
