"""Run orchestration: config validation, determinism, auditing, explain."""

import json
import os

import pytest

from qloop.identity import (
    ERROR,
    EXACT_ZERO,
    NONZERO,
    OK_STATUSES,
    format_check_id,
    make_check,
)
from qloop.report import (
    BACKENDS,
    RING_MODES,
    SUITE_NAMES,
    ConfigError,
    ReportDocument,
    ResourceError,
    RunConfig,
    UnknownId,
    _collect,
    _euler_phi,
    _Job,
    _RunEnv,
    _run_job,
    explain,
    list_families,
    run,
    strip_timing,
)
from qloop.opcache import DISABLED_CACHE, MAGIC, OperatorCache
from qloop.repchain import ChainContext, WrapInconsistency, build_site_rep, rescaled_rep
from qloop.rings import (
    InternalInconsistency,
    LaurentPoly,
    FloatRing,
    NotDivisible,
    Quotient,
    TruncationOverflow,
    cyclo_ring,
)
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
    ({"backend": "highest_weight", "n_param": 8, "length": 14},
     "L must be an integer in 1..4, got 14"),
    ({"backend": "highest_weight", "n_param": 3, "length": 9},
     "L must be an integer in 1..8, got 9"),
    ({"backend": "cyclic", "n_param": 5, "length": 14},
     "L must be an integer in 1..6, got 14"),
    ({"backend": "cyclic", "n_param": 2**14 + 1, "length": 1},
     "has more than 16384 states"),
    ({"n_param": 10**6, "length": 2}, r"phi\(2N\) must be at most 322"),
    ({"n_param": 10**5, "length": 2}, r"phi\(2N\) must be at most 322"),
    ({"n_param": 331}, r"phi\(2N\) must be at most 322"),
    ({"backend": "highest_weight", "n_param": 2**14, "length": 1},
     r"phi\(2N\) must be at most 322"),
    ({"backend": "cyclic", "n_param": 2**14, "length": 1},
     r"phi\(2N\) must be at most 322"),
])
def test_config_rejections(kwargs, fragment):
    with pytest.raises(ConfigError, match=fragment):
        RunConfig(**kwargs).validate()


def test_ring_table_budget_accepts_every_n_whose_table_fits():
    # phi(512) = 256 and phi(646) = 288 fit; phi(2N) = 330 at N = 331 does not.
    # qcomb runs at the root only, so its blocks carry one base-Phi digit
    for n_param in (2, 12, 256, 323):
        RunConfig(n_param=n_param, length=2, suites=("qcomb",)).validate()
    assert [_euler_phi(m) for m in (1, 2, 12, 512, 646, 662)] == [
        1, 1, 4, 256, 288, 330]


@pytest.mark.parametrize("kwargs,digits,degree", [
    ({"suites": ("qcomb",), "ring": "phi-adic"}, 1, 322),
    ({}, 3, 107),                                  # the divpow phi-adic audit
    ({"ring": "phi-adic", "suites": ("id1",)}, 5, 64),
    ({"ring": "phi-adic"}, 6, 53),                 # barred, up to order 2N+1
])
def test_ring_table_budget_counts_phi_adic_digits(kwargs, digits, degree):
    # the largest table is over Z[q]/Phi_2N^p, 8*(p*phi(2N))^3 bytes
    fits = max(n for n in range(2, 330) if _euler_phi(2 * n) <= degree)
    too_large = min(n for n in range(2, 330) if _euler_phi(2 * n) > degree)
    config = RunConfig(n_param=fits, length=2, **kwargs)
    assert max(job.digits for job in config.validate()) == digits
    with pytest.raises(ConfigError, match=rf"phi\(2N\) must be at most {degree} "):
        RunConfig(n_param=too_large, length=2, **kwargs).validate()


@pytest.mark.parametrize("backend,n_param", [("spin_half", 2), ("highest_weight", 3)])
@pytest.mark.parametrize("kwargs", [
    {}, {"ring": "float"}, {"suites": ("divpow",)},
    {"ring": "phi-adic"}, {"ring": "phi-adic", "suites": ("id1",)},
    {"ring": "phi-adic", "suites": ("rep-gate",)},
    {"ring": "phi-adic", "suites": ("qcomb", "site")},
])
def test_ring_digits_is_the_largest_table_a_run_builds(monkeypatch, backend,
                                                       n_param, kwargs):
    built = []
    real = Quotient.mult_tensor

    def recording(quo):
        built.append(quo.degree)
        return real(quo)
    monkeypatch.setattr(Quotient, "mult_tensor", recording)
    config = RunConfig(backend=backend, n_param=n_param, length=2, **kwargs)
    digits = max(job.digits for job in config.validate())
    run(config)
    assert max(built) == digits * cyclo_ring(n_param).quo.degree


def _recording_builders(monkeypatch):
    """Wrap every suite builder so it appends its suite to the list returned."""
    import qloop.report as report

    built = []
    for suite, real in list(report._SUITE_BUILDERS.items()):
        def builder(config, suite=suite, real=real):
            built.append(suite)
            return real(config)
        monkeypatch.setitem(report._SUITE_BUILDERS, suite, builder)
    return built


def test_ring_digits_reads_each_jobs_declared_digits(monkeypatch):
    import qloop.report as report

    real = report._SUITE_BUILDERS["qcomb"]
    config = RunConfig(n_param=100, length=2, suites=("qcomb",))
    assert max(job.digits for job in config.validate()) == 1
    monkeypatch.setitem(report._SUITE_BUILDERS, "qcomb", lambda config: real(config) + [
        _Job("qcomb/planted", "qcomb", lambda env: [], digits=7)])
    # phi(200) = 80, and a table of 7 digits fits phi(2N) <= 46 only
    with pytest.raises(ConfigError, match=r"Z\[q\]/Phi_2N\^7 table"):
        config.validate()


@pytest.mark.parametrize("ring", RING_MODES)
def test_validate_builds_the_job_list_and_no_chain_or_table(monkeypatch, ring):
    def refuse(*args, **kwargs):
        raise AssertionError("validate built a chain or a ring table")

    monkeypatch.setattr(ChainContext, "__init__", refuse)
    monkeypatch.setattr(Quotient, "mult_tensor", refuse)
    built = _recording_builders(monkeypatch)
    for backend in BACKENDS:
        config = RunConfig(backend=backend, n_param=3, length=2, ring=ring,
                           rescale_audit=True)
        jobs = config.validate()
        assert built == list(config.selected_suites())
        assert {job.suite for job in jobs} == set(built)
        built.clear()


def test_rescale_audit_builds_each_suite_once(monkeypatch):
    built = _recording_builders(monkeypatch)
    doc = run(RunConfig(n_param=2, length=3, suites=("id1", "site"),
                        rescale_audit=True))
    # one builder pass: the audit reruns the same jobs on the rescaled chain
    assert built == ["id1", "site"]
    audits = [c for c in doc.checks if c.family == "audit.rescale"]
    assert [c.status for c in audits] == [EXACT_ZERO, EXACT_ZERO]
    assert all(c.nontrivial["checks_compared"] > 0 for c in audits)


def test_every_job_stays_within_its_declared_digits(monkeypatch):
    import qloop.report as report

    running, seen = [], []
    real_tensor, real_run_job = Quotient.mult_tensor, report._run_job

    def recording(quo):
        seen.append((running[-1], quo.degree))
        return real_tensor(quo)

    def tracking(job, env):
        running.append(job)
        try:
            return real_run_job(job, env)
        finally:
            running.pop()
    monkeypatch.setattr(Quotient, "mult_tensor", recording)
    monkeypatch.setattr(report, "_run_job", tracking)
    run(RunConfig(n_param=2, length=2, ring="phi-adic"))
    degree = cyclo_ring(2).quo.degree
    assert all(d <= job.digits * degree for job, d in seen), [
        (job.job_id, job.digits, d) for job, d in seen if d > job.digits * degree]
    # the declarations are tight: some job builds the table it declares
    assert any(job.digits > 1 and d == job.digits * degree for job, d in seen)


def test_a_float_run_builds_one_float_ring():
    # the store memoizes float images per ring object, so every job of a
    # run must read the same one
    env = _RunEnv(RunConfig(n_param=2, length=2, ring="float"), DISABLED_CACHE)
    ring = env.root_ring()
    assert isinstance(ring, FloatRing)
    assert env.generic_ring() is ring and env.generic_ring(max_order=3) is ring


@pytest.mark.parametrize("kwargs,message", [
    ({"n_param": True}, "N must be an integer >= 2, got True"),
    ({"length": True}, "L must be an integer in 1..14, got True"),
    ({"q_sectors": (True,)}, "Q must lie in 0..1, got True"),
    ({"jobs": True}, "jobs must be a positive integer, got True"),
])
def test_config_rejects_booleans_as_integers(kwargs, message):
    with pytest.raises(ConfigError) as exc:
        RunConfig(**kwargs).validate()
    assert str(exc.value) == message


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

    def __init__(self, workers, pairs):
        self.sizes.append(workers)
        self.pairs = pairs

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, indices, chunksize=1):
        assert chunksize >= 1
        return [_run_job(*self.pairs[i]) for i in indices]


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


def test_rescale_audit_runs_in_the_run_pool(monkeypatch):
    import qloop.report as report
    from qloop.cli import main

    monkeypatch.setattr(report, "_core_count", lambda: 2)
    monkeypatch.setattr(report, "_fork_pool", _InlinePool)
    _InlinePool.sizes = []
    assert main(["run", "--N", "2", "--L", "4", "--rescale-audit",
                 "--jobs", "2"]) == 0
    # one pool for the plain and the rescaled jobs, not one per audited suite
    assert _InlinePool.sizes == [2]


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

    def builder(config):
        return real(config) + [_Job("qcomb/planted", "qcomb", lambda env: job_fn())]

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


def test_a_worker_that_dies_is_a_resource_error(monkeypatch):
    import qloop.report as report

    parent = os.getpid()

    def die(env):
        if os.getpid() == parent:
            pytest.fail("the job ran in the test's process, not in a forked worker")
        os._exit(1)

    monkeypatch.setattr(report, "_core_count", lambda: 2)
    pairs = [(_Job("qcomb/fine", "qcomb", lambda env: []), None),
             (_Job("qcomb/dies", "qcomb", die), None)]
    with pytest.raises(ResourceError, match="a job worker process died"):
        report._execute(pairs, 2)


# `qloop run` on two workers, with one more qcomb job whose {body} runs only
# in a worker process; sys.argv[1] is left for the body to use
_PLANTED_RUN = """
import os, sys, time
from pathlib import Path
import qloop.report as report
parent = os.getpid()
real = report._SUITE_BUILDERS["qcomb"]

def planted(env):
    if os.getpid() != parent:
        {body}
    return []

report._SUITE_BUILDERS["qcomb"] = lambda config: real(config) + [
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


def test_a_status_changed_by_the_rescale_fails_the_audit(monkeypatch):
    import qloop.report
    real = qloop.report.rescaled_rep

    def raising_scaled_to_zero(rep, alpha, beta):
        return real(rep, LaurentPoly(0), beta)

    monkeypatch.setattr(qloop.report, "rescaled_rep", raising_scaled_to_zero)
    doc = run(RunConfig(n_param=2, length=3, suites=("id1",), rescale_audit=True))
    audit, = [c for c in doc.checks if c.family == "audit.rescale"]
    assert all(c.ok for c in doc.checks if c is not audit)
    assert audit.status == NONZERO
    mismatches = audit.extra["mismatches"]
    assert mismatches and audit.witness == mismatches[0]
    # a zero raising operator leaves the Serre words vacuous
    assert {(m["plain"], m["rescaled"]) for m in mismatches} == \
        {("ExactZero", "VacuousZero")}
    assert not doc.ok


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


def test_every_check_id_is_derived_from_family_and_params():
    doc = run(RunConfig(n_param=2, length=3, rescale_audit=True))
    audits = [c for c in doc.checks if c.family == "audit.rescale"]
    assert len(audits) == 5
    for check in doc.checks:
        if check.family == "audit.rescale":
            # the audit id names the suite only; alpha and beta are params
            expected = format_check_id(check.family, {"suite": check.params["suite"]})
        else:
            expected = format_check_id(check.family, check.params)
        assert check.check_id == expected


def test_rescale_audit_skips_unaudited_suites():
    doc = run(RunConfig(n_param=2, length=3, rescale_audit=True,
                        suites=("qcomb", "rep-gate")))
    assert not [c for c in doc.checks if c.family == "audit.rescale"]


# --- job guard and collection ----------------------------------------------

def test_guard_converts_faults_to_error_records():
    class SubclassedDivision(NotDivisible):
        pass

    for exc, kind in (
        (InvalidRegime("outside the narrow window"), "InvalidRegime"),
        (NotDivisible("q-factorial does not divide"), "NotDivisible"),
        (TruncationOverflow("phi-adic digits exhausted"), "TruncationOverflow"),
        (WrapInconsistency("clock wraps"), "WrapInconsistency"),
        (InternalInconsistency("two routes disagree"), "InternalInconsistency"),
        # the kind names the guarded class that matches, not the subclass
        (SubclassedDivision("remainder left"), "NotDivisible"),
    ):
        def boom(env):
            raise exc

        out = _run_job(_Job("t/x", "id1", boom), None)
        assert len(out) == 1 and out[0].status == ERROR
        assert out[0].family == "run.guard"
        assert out[0].error_kind == kind
        assert out[0].check_id == "run.guard[job=t/x]"
        assert out[0].detail == f"{type(exc).__name__}: {exc}"


def test_guard_escalates_memory_errors():
    def boom(env):
        raise MemoryError("chain too large")

    with pytest.raises(ResourceError):
        _run_job(_Job("t/big", "site", boom), None)


def test_collect_rejects_conflicting_duplicate_ids():
    a = make_check("run.guard", {"job": "dup"}, EXACT_ZERO)
    b = make_check("run.guard", {"job": "dup"}, NONZERO)
    jobs = [(_Job("j1", "id1", None), [a]), (_Job("j2", "id2", None), [b])]
    with pytest.raises(InternalInconsistency):
        _collect(jobs)


def test_collect_merges_agreeing_duplicates():
    a = make_check("run.guard", {"job": "dup"}, EXACT_ZERO)
    b = make_check("run.guard", {"job": "dup"}, EXACT_ZERO)
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
    failing = make_check("run.guard", {"job": "x"}, NONZERO,
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
