"""Benchmark of `qloop run` at pinned configurations.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --record-expected

Each sample is a fresh `python3 -m qloop run` process on the checkout's
`src/`, because every user invocation pays for qloop's module-level
caches.  The battery is deterministic: the seed only orders the steps of
each round.

The host's speed drifts by 20-30% over tens of seconds on a shared VM, so
a run measures in rounds: each round makes a sample of the program and
one of `perfbench/reference/`, a frozen copy of qloop, back to back, and
likewise a set-up probe of each, in an order drawn from the seed.  Rounds
continue while another fits in `--seconds` (at least three).  A timing is
reported as the median over rounds of program / reference, times the
reference's seconds on the host that defined the benchmark
(`Workload.reference_s`): seconds at a fixed host speed.  A change to
qloop moves the program side only; a slow or fast spell of the host moves
both.  The table also prints the raw medians of both sides.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` the run makes one untraced
sample and one traced in-process run of the program, and reports the
per-layer metrics.  Lines before it give a human-readable table, the
environment stamp and every failure.  Scratch space (cache directories,
reports) lives under `perfbench/_scratch/` and is removed at exit; the
full result of the last run of each workload is kept in `perfbench/_out/`.

Correctness: every program sample's per-check statuses are compared with
the statuses recorded in `perfbench/expected.json`, and the SHA-256 of its
`strip_timing` report with the recorded fingerprint; reference samples
must exit 0.  `--record-expected` rewrites that file from the current tree;
use it only when a change is meant to alter the reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# A frozen copy of qloop's sources (src/ at the commit that defined the
# benchmark), run in alternation with the program.  Never edit it: its hash
# is checked, and the reported timings are relative to it.
REFERENCE_SRC = BENCH_DIR / "reference"
REFERENCE_SHA256 = "b882a1100dc78ac15654c4a3eefa99bb8d5dafa20791779de3bf72fd8009d921"
EXPECTED_PATH = BENCH_DIR / "expected.json"
SCRATCH_ROOT = BENCH_DIR / "_scratch"
OUT_DIR = BENCH_DIR / "_out"

# A run must end within 180 s; stop waiting for children well before.
RUN_DEADLINE_S = 170.0
# An untimed run makes at least this many rounds, however short --seconds is
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    qloop_args: tuple[str, ...]
    backend: str
    n_param: int
    length: int
    # the reference copy's wall, cpu and set-up seconds on the host that
    # defined the benchmark: they fix the scale of the reported timings
    reference_s: tuple[float, float, float]
    # None: no disk cache; "warm": one directory prefilled once, untimed;
    # "cold": a fresh empty directory for every sample
    cache: str | None = None


WORKLOADS = {w.name: w for w in (
    # Full battery with multi-term Laurent entries; most of its time is in
    # the uncached divided-power audits (Laurent and phi-adic division,
    # DictBlock products).
    Workload("hw-n3l3-full",
             ("--backend", "highest_weight", "--N", "3", "--L", "3"),
             "highest_weight", 3, 3, (1.45, 1.41, 0.237)),
    # Root-of-unity word products of the lemma chain and the nested
    # commutators: specialization and CycloBlock products, no divided-power
    # audits, Laurent powers read from a warm disk cache.
    Workload("root-n2l7-warm",
             ("--N", "2", "--L", "7", "--Q", "1",
              "--suite", "lemmas", "--suite", "serre-nested"),
             "spin_half", 2, 7, (0.928, 0.922, 0.298), cache="warm"),
    # The spin_half battery, single-monomial entries, on the 2-worker job
    # pool with a cold disk cache: the only workload where job orchestration
    # can gain, and the one that exercises disk-cache writes.
    Workload("sh-n2l5-j2-cold",
             ("--N", "2", "--L", "5", "--jobs", "2"),
             "spin_half", 2, 5, (1.42, 1.52, 0.183), cache="cold"),
)}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# the timings, in the order of Workload.reference_s
REFERENCE_TIMED = ("wall_s", "cpu_s", "setup_s")

_SUITES = ("qcomb", "rep-gate", "barred", "divpow", "id1", "id2", "site",
           "lemmas", "serre-nested")

# Per-layer metrics of the traced run, grouped by layer.  Each comment names
# the end-to-end metric the group should move, and on which workload.
PER_LAYER_UNITS = {
    # wall_s on sh-n2l5-j2-cold only: the other workloads run one worker.
    # job seconds are busy time per thread, waits on the store lock included
    "report.run.s": "s",
    "report.job.count": "count",
    "report.job.s_sum": "s",
    "report.job.s_max": "s",
    # where the time goes, per suite
    **{f"report.suite.{suite}.s": "s" for suite in _SUITES},
    # observability only: per-check millis over total_millis (untraced run)
    "report.millis_coverage": "ratio",
    # busy time of serre's public check_* functions
    "serre.checks.calls": "count",
    "serre.checks.s": "s",
    # wall_s on hw-n3l3-full and sh-n2l5-j2-cold; zero on root-n2l7-warm
    "divpow.divided_power.calls": "count",
    "divpow.divided_power.s": "s",
    # wall_s on hw-n3l3-full; on root-n2l7-warm the disk cache serves the fill
    "divpow.store_get.calls": "count",
    "divpow.store_get.s": "s",
    "divpow.store_fill.orders": "count",
    "divpow.store_hit_ratio": "ratio",
    # wall_s on root-n2l7-warm
    "repchain.specialize.calls": "count",
    "repchain.specialize.s": "s",
    "repchain.specialize.entries": "count",
    # wall_s on all three workloads
    "repchain.graded_matmul.calls": "count",
    "repchain.graded_matmul.s": "s",
    "repchain.residual.calls": "count",
    "repchain.residual.s": "s",
    # setup_s on all three workloads
    "repchain.generators.s": "s",
    # wall_s on hw-n3l3-full
    "blocks.dict_matmul.calls": "count",
    "blocks.dict_matmul.s": "s",
    "blocks.dict_matmul.nnz_out": "count",
    # wall_s and peak_rss_mb on root-n2l7-warm; mac = rows * inner * cols * D^2
    "blocks.cyclo_matmul.calls": "count",
    "blocks.cyclo_matmul.s": "s",
    "blocks.cyclo_matmul.mac": "count",
    "blocks.cyclo_matmul.object_fallbacks": "count",
    # wall_s on hw-n3l3-full
    "blocks.from_entries.calls": "count",
    "blocks.from_entries.s": "s",
    "blocks.add.calls": "count",
    "blocks.add.s": "s",
    "blocks.map_values.calls": "count",
    "blocks.map_values.s": "s",
    # wall_s on hw-n3l3-full
    "rings.laurent_mul.calls": "count",
    "rings.laurent_divexact.calls": "count",
    "rings.laurent_divexact.s": "s",
    "rings.phiadic_divexact.calls": "count",
    "rings.phiadic_divexact.s": "s",
    # wall_s on root-n2l7-warm
    "rings.cyclo_from_laurent.calls": "count",
    "rings.cyclo_from_laurent.s": "s",
    # wall_s on hw-n3l3-full: reached only through phi-adic division
    "rings.cyclo_divexact.calls": "count",
    "rings.cyclo_divexact.s": "s",
    # wall_s on root-n2l7-warm (reads) and sh-n2l5-j2-cold (writes)
    "opcache.load.calls": "count",
    "opcache.load.hits": "count",
    "opcache.load.s": "s",
    "opcache.store.calls": "count",
    "opcache.store.s": "s",
    "opcache.store.bytes": "B",
    # self time per layer: a span's duration minus its wrapped children's
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    # traced wall over the untraced sample's wall, minus one
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


class Runner:
    """Starts children one at a time, waits for each, enforces the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def run(self, argv: list[str], cwd: Path, capture: bool = False,
            src: Path = SRC) -> ChildResult:
        """Run argv with the qloop package taken from src."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline reached before a child could start")
        out_path = cwd / "child.stdout"
        err_path = cwd / "child.stderr"
        with open(out_path if capture else os.devnull, "wb") as out, \
                open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted (SIGTERM, Ctrl-C): leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"child {argv[1:4]} killed by signal "
                             f"{-proc.returncode}: {err_path.read_text()[-2000:]}")
        return ChildResult(
            exit_code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text() if capture else "",
        )


def qloop_argv(workload: Workload) -> list[str]:
    argv = ["run", *workload.qloop_args, "--report", "report.json"]
    if workload.cache:
        argv += ["--cache-dir", "cache"]
    return argv


# ---------------------------------------------------------------------------
# correctness


def fingerprint(doc: dict) -> str:
    from qloop.report import strip_timing

    text = json.dumps(strip_timing(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def statuses(doc: dict) -> dict[str, str]:
    return {c["id"]: c["status"] for c in doc["checks"]}


def read_report(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def judge(expected: dict, exit_code: int, doc: dict | None, label: str) -> Verdict:
    want = expected["statuses"]
    verdict = Verdict(attempted=len(want), failed=0)
    if exit_code != 0 or doc is None:
        verdict.failed = len(want)
        verdict.problems.append(f"{label}: exit code {exit_code}, every check fails")
        return verdict
    got = statuses(doc)
    bad = sorted(cid for cid in want if got.get(cid) != want[cid])
    extra = sorted(set(got) - set(want))
    verdict.failed = len(bad) + len(extra)
    verdict.attempted += len(extra)
    for cid in (bad + extra)[:10]:
        verdict.problems.append(
            f"{label}: {cid} expected {want.get(cid, 'absent')} got {got.get(cid, 'missing')}")
    fp = fingerprint(doc)
    if fp != expected["fingerprint"]:
        verdict.problems.append(
            f"{label}: fingerprint {fp[:16]} != recorded {expected['fingerprint'][:16]}")
    return verdict


def snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in directory.iterdir()}


# ---------------------------------------------------------------------------
# environment stamp


def commit_hash() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_hash(src: Path = SRC) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "qloop").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def version_of(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment_stamp() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": version_of("numpy"),
        "scipy": version_of("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "commit": commit_hash(),
        "src_sha256": source_hash(),
    }


# ---------------------------------------------------------------------------
# one benchmark run


@dataclass
class Tree:
    """One qloop source tree the benchmark runs, and what it measured."""
    name: str
    src: Path
    warm_dir: Path
    samples: list[ChildResult] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int, scratch: Path,
                 runner: Runner, expected: dict):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.runner = runner
        self.expected = expected
        self.verdicts: list[Verdict] = []
        self.problems: list[str] = []
        self.coverages: list[float] = []
        self.program = Tree("sample", SRC, scratch / "warm")
        self.reference = Tree("reference", REFERENCE_SRC, scratch / "warm-reference")
        self.traced_wall = 0.0

    def prepare(self) -> None:
        for tree in (self.program, self.reference):
            # an untimed import writes bytecode and warms the file cache
            self.runner.run([sys.executable, "-m", "qloop", "--version"],
                            self.scratch, src=tree.src)
            if self.w.cache == "warm":
                tree.warm_dir.mkdir()
                fill = self.runner.run([sys.executable, "-m", "qloop", *qloop_argv(self.w)],
                                       tree.warm_dir, src=tree.src)
                self.check(tree, fill.exit_code, tree.warm_dir, f"{tree.name} prefill",
                           record=False)

    def check(self, tree: Tree, exit_code: int, cwd: Path, label: str,
              record: bool = True) -> dict | None:
        """Judge the program's report against the recorded statuses; the
        reference copy need only succeed, since a change to the program may
        rightly change its reports."""
        doc = read_report(cwd / "report.json")
        (cwd / "report.json").unlink(missing_ok=True)
        if tree is self.reference:
            if exit_code != 0 or doc is None:
                self.problems.append(f"{label}: exit code {exit_code}")
            return doc
        verdict = judge(self.expected, exit_code, doc, label)
        self.problems += verdict.problems
        if record:
            self.verdicts.append(verdict)
        return doc

    def probe_setup(self, tree: Tree) -> None:
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
                self.w.backend, str(self.w.n_param), str(self.w.length)]
        if self.w.cache == "warm":
            argv.append(str(tree.warm_dir / "cache"))
        elif self.w.cache == "cold":
            argv.append(tempfile.mkdtemp(prefix="probe-", dir=self.scratch))
        result = self.runner.run(argv, self.scratch, capture=True, src=tree.src)
        if result.exit_code != 0:
            raise BenchError(f"{tree.name} set-up probe exited {result.exit_code}")
        tree.setup.append(float(result.stdout.strip()))

    def _qloop(self, tree: Tree, prefix: list[str], tag: str) -> tuple[ChildResult, dict | None]:
        """One qloop invocation in its own directory; warm samples share
        their tree's prefilled directory, which must not be written to."""
        cwd = tree.warm_dir if self.w.cache == "warm" else self.scratch / tag
        cwd.mkdir(exist_ok=True)
        before = snapshot(cwd / "cache") if self.w.cache == "warm" else None
        result = self.runner.run([*prefix, *qloop_argv(self.w)], cwd, src=tree.src)
        doc = self.check(tree, result.exit_code, cwd, tag)
        if before is not None and snapshot(cwd / "cache") != before:
            self.problems.append(f"{tag}: the warm cache was written to")
        if cwd != tree.warm_dir:
            shutil.rmtree(cwd)
        return result, doc

    def sample(self, tree: Tree) -> None:
        result, doc = self._qloop(tree, [sys.executable, "-m", "qloop"],
                                  f"{tree.name}-{len(tree.samples)}")
        if tree is self.program and doc is not None and doc.get("total_millis"):
            millis = sum(c.get("millis", 0.0) for c in doc["checks"])
            self.coverages.append(millis / doc["total_millis"])
        tree.samples.append(result)

    def measure(self, rng: random.Random) -> None:
        """Rounds while another fits in --seconds.  A round makes a sample of
        the program and one of the reference copy back to back, so that the
        pair sees the same host, and likewise a set-up probe of each; the
        seed draws which pair goes first and which tree goes first in each."""
        start = time.perf_counter()
        longest = 0.0
        while (len(self.program.samples) < MIN_ROUNDS
               or time.perf_counter() - start + longest <= self.seconds):
            t0 = time.perf_counter()
            steps = [self.sample, self.probe_setup]
            rng.shuffle(steps)
            for step in steps:
                trees = [self.program, self.reference]
                rng.shuffle(trees)
                for tree in trees:
                    step(tree)
            longest = max(longest, time.perf_counter() - t0)

    def traced(self) -> dict[str, float]:
        out = self.scratch / "trace.json"
        result, _ = self._qloop(
            self.program, [sys.executable, str(BENCH_DIR / "traced_qloop.py"), str(out)],
            "traced")
        self.traced_wall = result.wall_s
        trace = json.loads(out.read_text())
        OUT_DIR.mkdir(exist_ok=True)
        shutil.move(out, OUT_DIR / f"trace-{self.w.name}.json")
        if trace["missing_probes"]:
            print(f"note: probes not found: {', '.join(trace['missing_probes'])}")
        raw = trace["metrics"]
        metrics = {name: float(raw.get(name, 0.0)) for name in PER_LAYER_UNITS}
        metrics["report.job.count"] = raw.get("report.job.calls", 0.0)
        metrics["report.job.s_sum"] = raw.get("report.job.s", 0.0)
        gets = raw.get("divpow.store_get.calls", 0)
        metrics["divpow.store_hit_ratio"] = (
            raw.get("divpow.store_get.hits", 0) / gets if gets else 0.0)
        return metrics

    def run(self, trace: bool) -> dict[str, float]:
        """Measure; with trace, return the per-layer metrics."""
        self.prepare()
        rng = random.Random(self.seed)
        if not trace:
            self.measure(rng)
            return {}
        traced_first = rng.random() < 0.5
        if traced_first:
            per_layer = self.traced()
        self.sample(self.program)
        if not traced_first:
            per_layer = self.traced()
        untraced = statistics.median(s.wall_s for s in self.program.samples)
        per_layer["trace.overhead_frac"] = self.traced_wall / untraced - 1.0
        per_layer["report.millis_coverage"] = statistics.median(self.coverages) \
            if self.coverages else 0.0
        return per_layer

    def values(self, tree: Tree) -> dict[str, list[float]]:
        """Every measured value of each end-to-end metric, for one tree."""
        return {
            "wall_s": [s.wall_s for s in tree.samples],
            "cpu_s": [s.cpu_s for s in tree.samples],
            "peak_rss_mb": [s.peak_rss_mb for s in tree.samples],
            "setup_s": tree.setup,
        }

    def ratios(self) -> dict[str, list[float]]:
        """Per round, the program's time over the reference copy's."""
        prog, ref = self.values(self.program), self.values(self.reference)
        return {name: [a / b for a, b in zip(prog[name], ref[name])]
                for name in REFERENCE_TIMED}

    def end_to_end(self) -> dict[str, float]:
        """The timings are the median ratio to the reference copy times the
        reference's seconds on the host that defined the benchmark, so a
        host that runs faster or slower for a while moves both sides of
        each ratio; peak memory is the program's own median."""
        metrics = {name: statistics.median(vals) * nominal for (name, vals), nominal
                   in zip(self.ratios().items(), self.w.reference_s)}
        metrics["peak_rss_mb"] = statistics.median(self.values(self.program)["peak_rss_mb"])
        return {name: metrics[name] for name in END_TO_END_UNITS}


# ---------------------------------------------------------------------------
# entry points


def require_checkout() -> None:
    if not (SRC / "qloop" / "__init__.py").is_file():
        raise BenchError(f"no qloop sources at {SRC.relative_to(ROOT)}/qloop; "
                         "run from the root of a full checkout")
    if source_hash(REFERENCE_SRC) != REFERENCE_SHA256:
        raise BenchError(f"{REFERENCE_SRC.relative_to(ROOT)}/qloop differs from the "
                         "frozen copy the benchmark's scale was measured with")
    sys.path.insert(0, str(SRC))


def make_scratch(prefix: str) -> Path:
    SCRATCH_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH_ROOT))


def remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        SCRATCH_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def load_expected(name: str) -> dict:
    try:
        return json.loads(EXPECTED_PATH.read_text())[name]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no recorded statuses for {name}: {exc}") from None


def print_table(bench: Bench, per_layer: dict[str, float], trace: bool,
                attempted: int, failed: int) -> None:
    """Every metric by name with its unit, and the failure share."""
    if trace:
        print(f"{'metric':40} {'value':>14}  unit")
        for name, value in per_layer.items():
            print(f"{name:40} {value:14.6g}  {PER_LAYER_UNITS[name]}")
    else:
        # value: as reported; program and reference: medians of their own
        # measurements; with fewer than ten rounds the highest percentile
        # is the maximum
        print(f"{'metric':14} {'value':>10} {'program':>10} {'max':>10} "
              f"{'reference':>10} {'n':>3}  unit")
        prog, ref = bench.values(bench.program), bench.values(bench.reference)
        for name, value in bench.end_to_end().items():
            print(f"{name:14} {value:10.5g} {statistics.median(prog[name]):10.5g} "
                  f"{max(prog[name]):10.5g} {statistics.median(ref[name]):10.5g} "
                  f"{len(prog[name]):3d}  {END_TO_END_UNITS[name]}")
    print(f"{'failed_frac':40} {failed / attempted:14.6g}  fraction "
          f"({failed} of {attempted} checks in {len(bench.verdicts)} runs)")


def run_workload(args, name: str) -> int:
    workload = WORKLOADS[name]
    require_checkout()
    expected = load_expected(workload.name)
    stamp = environment_stamp()
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    scratch = make_scratch(f"{workload.name}-")
    try:
        bench = Bench(workload, args.seed, args.seconds, scratch, runner, expected)
        per_layer = bench.run(bool(args.trace))
    finally:
        remove_scratch(scratch)
    stamp["loadavg_after"] = list(os.getloadavg())
    if args.trace:
        metrics, units = per_layer, PER_LAYER_UNITS
    else:
        metrics, units = bench.end_to_end(), END_TO_END_UNITS
    attempted = sum(v.attempted for v in bench.verdicts)
    failed = sum(v.failed for v in bench.verdicts)
    print(f"qloop benchmark  workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("command: qloop " + " ".join(qloop_argv(workload)))
    print("env: " + json.dumps(stamp, sort_keys=True))
    print_table(bench, per_layer, bool(args.trace), attempted, failed)
    for problem in bench.problems:
        print(f"FAIL {problem}")
    if not bench.problems:
        print(f"every report matches the recorded statuses and fingerprint "
              f"{expected['fingerprint'][:16]}")
    result = {
        "correct": failed == 0 and not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": stamp, "seed": args.seed,
                    "program": bench.values(bench.program),
                    "reference": bench.values(bench.reference),
                    "problems": bench.problems},
                   indent=2) + "\n")
    print(json.dumps(result))
    return 0


def record_expected() -> int:
    """Run each workload once and record its statuses and fingerprint."""
    require_checkout()
    runner = Runner(time.monotonic() + 3600)
    out = {}
    scratch = make_scratch("record-")
    try:
        for workload in WORKLOADS.values():
            cwd = scratch / workload.name
            cwd.mkdir()
            result = runner.run([sys.executable, "-m", "qloop", *qloop_argv(workload)], cwd)
            doc = read_report(cwd / "report.json")
            if result.exit_code != 0 or doc is None:
                raise BenchError(f"{workload.name}: qloop exited {result.exit_code}")
            out[workload.name] = {
                "fingerprint": fingerprint(doc),
                "summary": doc["summary"],
                "statuses": statuses(doc),
            }
            print(f"{workload.name}: {doc['summary']}")
    finally:
        remove_scratch(scratch)
    EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite perfbench/expected.json from this tree")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so children are killed and scratch removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.record_expected:
            return record_expected()
        if args.workload is None:
            parser.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        return max(run_workload(args, name) for name in names)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
