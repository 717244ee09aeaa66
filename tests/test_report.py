"""Run orchestration: config validation, determinism, auditing, explain."""

import json

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
from qloop.repchain import build_site_rep, rescaled_rep
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


def test_report_file_round_trips(tmp_path):
    path = tmp_path / "out" / "report.json"
    doc = run(RunConfig(n_param=2, length=3, suites=("qcomb",),
                        report_path=str(path)))
    on_disk = json.loads(path.read_text())
    assert on_disk == doc.to_json_dict()


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
