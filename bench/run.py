"""symf benchmark: one workload, timed cold, warm and at set-up.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout that holds `src/symf`; nothing needs
installing.  Workloads are defined in workloads.py.  Each is driven as a
closed loop by one caller: the next query starts only after the previous
one returned, and at most one child process runs at a time.

A cycle is one fresh interpreter (for cli_session, one fresh process per
command, run as `python -m symf` would through command.py) with an empty
private SYMF_CACHE_DIR.  It runs every query once (the cold pass) and
then again (the warm pass: same process and full memos in process, the
filled cache directory for cli_session).  A run
makes a fixed number of cycles: as many as fitted in --seconds when the
benchmark was defined (CYCLE_S), so a slower or faster library changes
the time a run takes, not how many samples it draws.  Answers are
checked after the timed passes: the first cycle's against oracles or an
independent route, later cycles' against the first.

Times are scaled to a reference CPU speed (speed.py): each timed span is
bracketed by samples of a fixed reference loop taken in the process that
ran it, and is reported at the speed at which that loop takes
speed.REF_S.  A query's latency is its median over the run's cycles,
cold_s and warm_s are sums of those medians over the pass, and setup_s
is the median of the run's set-up samples.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced cycles; the traced one records a span around every public call
the benchmark makes into the library (see spans.py), and the run prints
per-layer self times, call and term counts, and the tracing overhead.
Spans are written to .bench_out/ when the run ends.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# The library is always the checkout's own source, never an installed
# copy; without it the run exits 1 and prints no result.
if not (SRC / "symf" / "__init__.py").is_file():
    sys.exit("bench: no symf package under %s; run from a checkout" % SRC)
sys.path[:0] = [str(BENCH), str(SRC)]
from spans import clock, self_times, top_level_time  # noqa: E402
from speed import scaled  # noqa: E402
import workloads  # noqa: E402

# Wall seconds of one untraced cycle of each workload at the baseline
# (Python 3.11 on 2 vCPUs: 7 to 9.5 s for each, with the host's speed).
# A run makes --seconds // CYCLE_S cycles, at least MIN_CYCLES, and a
# traced run that many untraced and traced pairs over twice the time.
# It starts no cycle that would run past RUN_LIMIT_S of wall time,
# judged by the last one.
CYCLE_S = 7.5
MIN_CYCLES = 2
# set-up probes per cycle of cli_session
CLI_SETUP_PROBES = 3
RUN_LIMIT_S = 150.0
# CPU seconds any one child may use before the kernel stops it.
CHILD_CPU_LIMIT_S = 120

# query_tail_ms is printed but is not a metric: across ten seeds it spread
# by 5-16% of the median, against at most 8% for the others.  On
# schur_expand the seed's query order decides which queries pay for the
# memo tables they share; on cli_session it is one 1.3 s process whose
# host speed can change within it.
E2E_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
             "query_p50_ms": "ms", "peak_rss_mb": "MB"}
_TERMED = ("symfunc.to_basis_p", "symfunc.to_basis_h", "symfunc.to_basis_e",
           "symfunc.to_basis_s", "symfunc.to_basis_m", "symfunc.mul",
           "plethysm.plethysm", "plethysm.fundamental_p",
           "plethysm.fundamental_s", "invariants.inv_char",
           "enumeration.deals_cycle_index",
           "enumeration.regular_graphs_cycle_index", "expr.evaluate_text")
_UNTERMED = ("symfunc.scalar", "invariants.polyfunctor",
             "characters.table_build", "characters.table_load",
             "enumeration.card_deals", "enumeration.regular_graphs",
             "selftest.run_selftest") + tuple(
    "cli.main." + c for c in ("eval", "inv", "hilbert", "deals", "regular",
                              "table", "selftest"))
_COUNTERS = {"characters.cache_bytes_written": "bytes",
             "characters.cache_bytes_read": "bytes",
             "cli.process_start_s": "s", "verify.s": "s",
             "trace.overhead_frac": "ratio",
             "trace.unattributed_frac": "ratio"}


def layer_units():
    units = {}
    for name in _TERMED + _UNTERMED:
        units[name + ".s"] = "s"
        units[name + ".calls"] = "count"
        if name in _TERMED:
            units[name + ".terms_out"] = "count"
    units.update(_COUNTERS)
    return units


LAYER_UNITS = layer_units()


# ---------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------

@dataclass
class Child:
    """One finished child process.  `started` is the clock reading just
    before the spawn, `elapsed` the wall time to its exit."""

    rc: int
    stdout: str
    stderr: str
    started: float
    elapsed: float
    maxrss_kb: int

    def result(self):
        """The JSON object a worker printed last."""
        if self.rc != 0:
            raise RuntimeError("benchmark worker exited with %s:\n%s"
                               % (self.rc, self.stderr[-2000:]))
        return json.loads(self.stdout.strip().splitlines()[-1])


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU,
                       (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def spawn(args, cache, tmp):
    """Run `python3 ARGS` to completion with the private cache directory."""
    env = dict(os.environ, PYTHONPATH=str(SRC), SYMF_CACHE_DIR=str(cache),
               PYTHONHASHSEED="0")
    with open(os.path.join(tmp, "child.out"), "w+b") as out, \
            open(os.path.join(tmp, "child.err"), "w+b") as err:
        started = clock()
        proc = subprocess.Popen([sys.executable] + args, stdout=out,
                                stderr=err, env=env, cwd=str(ROOT),
                                preexec_fn=_limit_cpu)
        # wait4 rather than Popen.wait, for the child's own peak RSS
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = clock() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode("utf-8", "replace"),
                     err.read().decode("utf-8", "replace"), started, elapsed,
                     usage.ru_maxrss)


def command_latency(elapsed, ref):
    """Latency at the reference speed of a command that took `elapsed`
    seconds and made the reference samples `ref`: a warm-up, one before
    and one after the command."""
    return scaled(elapsed - sum(ref), *ref[1:])


def worker(mode, *args):
    return [str(BENCH / "worker.py"), mode] + [str(a) for a in args]


class Run:
    """State of one benchmark run: its scratch directory and its tallies."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.queries = (workloads.queries(workload, seed)
                        if workload in workloads.WORKLOADS else [])
        self.start = clock()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.verify_s = 0.0
        (ROOT / ".bench_tmp").mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=str(ROOT / ".bench_tmp"))
        self._caches = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fresh_cache(self):
        self._caches += 1
        path = os.path.join(self.tmp, "cache%d" % self._caches)
        os.mkdir(path)
        return path

    def cycles(self, trace):
        """How many cycles (traced: untraced and traced pairs) to run."""
        per_cycle = CYCLE_S * (2 if trace else 1)
        return max(MIN_CYCLES, int(self.seconds // per_cycle))

    def another_cycle(self, done, wanted, last_cycle_s):
        """Whether to start cycle number `done` + 1."""
        if done >= wanted:
            return False
        return clock() - self.start + last_cycle_s <= RUN_LIMIT_S

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def setup_sample(self):
        """Seconds from spawn to ready of a fresh interpreter that imports
        symf and builds the query list, at the reference speed."""
        child = spawn(worker("setup", self.workload, self.seed),
                      self.fresh_cache(), self.tmp)
        res = child.result()
        return scaled(res["ready"] - child.started, *res["ready_ref"])

    # -- in-process workloads ----------------------------------------

    def session(self, mode):
        child = spawn(worker(mode, self.workload, self.seed),
                      self.fresh_cache(), self.tmp)
        res = child.result()
        res["setup_s"] = scaled(res["ready"] - child.started,
                                *res["ready_ref"])
        res["query_s"] = sum(res["cold_lat"]) + sum(res["warm_lat"])
        for label in ("cold", "warm"):
            lat, ref = res[label + "_lat"], res[label + "_ref"]
            res[label + "_lat"] = [scaled(t, ref[i], ref[i + 1])
                                   for i, t in enumerate(lat)]
        return res

    def tally(self, res, verified):
        """Count failures in one session against the verified answers."""
        warm_bad = set(res["warm_mismatch"])
        for qid, q in enumerate(self.queries):
            cold_ok = verified[qid] is not None and res["answers"][qid] == verified[qid]
            warm_ok = cold_ok and qid not in warm_bad
            self.attempted += 2
            if not cold_ok:
                self.fail("cold %s" % (q,))
            if not warm_ok:
                self.fail("warm %s" % (q,))

    def verify(self, answers):
        """The answers that check out, None where one does not."""
        t0 = clock()
        out = []
        for q, answer in zip(self.queries, answers):
            problem = workloads.check(q, answer)
            out.append(answer if problem is None else None)
            if problem is not None and len(self.failures) < 20:
                self.failures.append("%s: %s" % (q, problem))
        self.verify_s += clock() - t0
        return out

    # -- cli_session ---------------------------------------------------

    def references(self):
        """Exit code and stdout of every command, computed in this process
        through symf.cli.main with its own cache directory."""
        from symf.cli import main
        t0 = clock()
        previous = os.environ.get("SYMF_CACHE_DIR")
        os.environ["SYMF_CACHE_DIR"] = self.fresh_cache()
        refs = []
        try:
            for argv in self.queries:
                buf = io.StringIO()
                with redirect_stdout(buf):
                    rc = main(list(argv))
                refs.append((rc, buf.getvalue()))
        finally:
            if previous is None:
                del os.environ["SYMF_CACHE_DIR"]
            else:
                os.environ["SYMF_CACHE_DIR"] = previous
        self.verify_s += clock() - t0
        return refs

    def command(self, argv, cache):
        """One `python -m symf` command in a fresh process, through
        command.py; returns the child and its latency."""
        ref_file = os.path.join(self.tmp, "ref.json")
        child = spawn([str(BENCH / "command.py"), ref_file] + argv, cache,
                      self.tmp)
        with open(ref_file) as f:
            ref = json.load(f)
        os.unlink(ref_file)
        return child, command_latency(child.elapsed, ref)

    def cli_cycle(self, refs):
        """Both passes of cli_session in fresh processes sharing one cache."""
        cache = self.fresh_cache()
        out = {"maxrss_kb": 0}
        for label in ("cold", "warm"):
            lat = []
            for argv, (rc, text) in zip(self.queries, refs):
                child, latency = self.command(argv, cache)
                lat.append(latency)
                out["maxrss_kb"] = max(out["maxrss_kb"], child.maxrss_kb)
                self.attempted += 1
                if child.rc != 0 or rc != 0 or child.stdout != text:
                    self.fail("%s %s: exit %s, reference exit %s%s" % (
                        label, argv, child.rc, rc,
                        "" if child.stdout == text else ", stdout differs"))
            out[label + "_lat"] = lat
        return out

    def cli_traced_cycle(self, refs):
        """cli_session with every command run through the traced worker."""
        cache = self.fresh_cache()
        out = {"spans": [], "counters": {}, "process_start_s": 0.0,
               "query_s": 0.0, "attributed_s": 0.0}
        for label in ("cold", "warm"):
            lat = []
            for qid, (argv, (rc, text)) in enumerate(zip(self.queries, refs)):
                child = spawn(worker("cli", *argv), cache, self.tmp)
                res = child.result()
                self.attempted += 1
                if res["rc"] != rc or res["stdout"] != text:
                    self.fail("traced %s %s differs" % (label, argv))
                offset = len(out["spans"])
                for span in res["spans"]:
                    if span[3] is not None:
                        span[3] += offset
                    span[4] = qid
                    out["spans"].append(span)
                for key, value in res["counters"].items():
                    out["counters"][key] = out["counters"].get(key, 0) + value
                started = res["ready"] - child.started
                lat.append(command_latency(child.elapsed, res["ref"]))
                out["process_start_s"] += started
                out["query_s"] += child.elapsed - sum(res["ref"])
                out["attributed_s"] += started + top_level_time(res["spans"])
            out[label + "_lat"] = lat
        return out


# ---------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------

def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value).  With 20 or fewer samples that percentile would
    not lie above the median, so the maximum stands in for it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def per_query(cycles, key):
    """Each query's median latency over the cycles of a run, at the
    reference speed."""
    return [statistics.median(lat) for lat in zip(*(c[key] for c in cycles))]


def e2e_metrics(cycles, setup):
    """The end-to-end metrics of a run, and a note on how they were taken."""
    cold, warm = per_query(cycles, "cold_lat"), per_query(cycles, "warm_lat")
    pct, tail_s = tail(cold)
    values = {
        "setup_s": statistics.median(setup),
        "cold_s": sum(cold),
        "warm_s": sum(warm),
        "query_p50_ms": 1000 * statistics.median(cold),
        "peak_rss_mb": statistics.median(c["maxrss_kb"] for c in cycles) / 1024,
    }
    note = "latencies are each query's median of %d cycles; query_tail_ms " \
           "= %.6g ms (p%.1f of %d queries); setup_s is the median of %d" % (
               len(cycles), 1000 * tail_s, pct, len(cold), len(setup))
    return values, note


def layer_metrics(traced, untraced, verify_s):
    """Per-layer metrics over both passes of a traced cycle, as medians
    over the traced cycles.  The overhead compares the cold passes' sums
    of per-query median latencies, as cold_s does."""
    per_cycle = []
    for t in traced:
        values = dict.fromkeys(LAYER_UNITS, 0)
        for name, agg in self_times(t["spans"]).items():
            for key, value in agg.items():
                if name + "." + key in values:
                    values[name + "." + key] = value
        for key, value in t.get("counters", {}).items():
            values["characters." + key] = value
        values["cli.process_start_s"] = t.get("process_start_s", 0.0)
        values["trace.unattributed_frac"] = 1 - t["attributed_s"] / t["query_s"]
        per_cycle.append(values)
    out = {name: statistics.median(c[name] for c in per_cycle)
           for name in LAYER_UNITS}
    traced_s = sum(per_query(traced, "cold_lat"))
    plain_s = sum(per_query(untraced, "cold_lat"))
    out["trace.overhead_frac"] = traced_s / plain_s - 1
    out["verify.s"] = verify_s
    return out


# ---------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------

def run_workload(run, trace):
    """Cycles of one workload; returns (metrics, units, notes, spans)."""
    cli = run.workload == "cli_session"
    # the first interpreter only fills the bytecode cache
    run.setup_sample()
    refs = run.references() if cli else None
    setup, plain, traced = [], [], []
    wanted, last = run.cycles(trace), 0.0
    while run.another_cycle(len(plain), wanted, last):
        t0 = clock()
        if cli:
            # symf's own processes report no ready time; probes do
            if not trace:
                setup += [run.setup_sample() for _ in range(CLI_SETUP_PROBES)]
            res = run.cli_cycle(refs)
        else:
            res = run.session("session")
            setup.append(res["setup_s"])
        plain.append(res)
        if trace:
            if cli:
                traced.append(run.cli_traced_cycle(refs))
            else:
                tres = run.session("traced")
                tres["attributed_s"] = top_level_time(tres["spans"])
                traced.append(tres)
        last = clock() - t0
    if not cli:
        verified = run.verify(plain[0]["answers"])
        for res in plain + traced:
            run.tally(res, verified)
    if trace:
        spans = []
        for t in traced:
            offset = len(spans)
            spans += [[name, start, end, None if up is None else up + offset,
                       qid, terms]
                      for name, start, end, up, qid, terms in t["spans"]]
        return layer_metrics(traced, plain, run.verify_s), LAYER_UNITS, \
            ["%d untraced and %d traced cycles" % (len(plain), len(traced))], spans
    values, note = e2e_metrics(plain, setup)
    return values, E2E_UNITS, [note, "%d cycles" % len(plain)], None


def cap_probe(run):
    """The h2[h30] cap: must exit 4 within the deadline."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               SYMF_CACHE_DIR=run.fresh_cache())
    t0 = clock()
    try:
        rc = subprocess.run([sys.executable, "-m", "symf"] + workloads.CAP_PROBE,
                            env=env, cwd=str(ROOT), capture_output=True,
                            timeout=workloads.CAP_PROBE_DEADLINE_S).returncode
    except subprocess.TimeoutExpired:
        rc = None
    elapsed = clock() - t0
    run.attempted = 1
    if rc != 4:
        got = "killed at the deadline" if rc is None else "exit %d" % rc
        run.fail("%s: %s after %.1fs, want exit 4 within %.0fs" % (
            " ".join(workloads.CAP_PROBE), got, elapsed,
            workloads.CAP_PROBE_DEADLINE_S))
    return {}, {}, ["elapsed %.2fs" % elapsed], None


def measure(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds)
    try:
        if workload == "cap_probe":
            values, units, notes, spans = cap_probe(run)
        else:
            values, units, notes, spans = run_workload(run, trace)
    finally:
        run.close()
    for name, value in values.items():
        print("%s %s = %.6g %s" % (workload, name, value, units[name]))
    attempted = max(run.attempted, 1)
    print("%s seed=%d failed=%d attempted=%d failed_frac=%.6g ratio; %s" % (
        workload, seed, run.failed, attempted, run.failed / attempted,
        "; ".join(notes)))
    for line in run.failures:
        print("%s FAILED %s" % (workload, line))
    if spans is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / ("trace-%s-seed%d.json" % (workload, seed))
        fields = ("name", "start", "end", "parent", "query", "terms")
        path.write_text(json.dumps([dict(zip(fields, s)) for s in spans]))
        print("%s spans written to %s" % (workload, path.relative_to(ROOT)))
    return {
        "correct": run.failed == 0, "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    # so that a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("cap_probe", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print("python %s, %d cpus, %s" % (platform.python_version(),
                                      os.cpu_count(), platform.machine()))
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    results = {}
    for name in workloads.WORKLOADS + ("cap_probe",):
        results[name] = measure(name, args.seed, args.seconds, args.trace)
    print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
