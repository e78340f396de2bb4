"""Child process of the benchmark: one fresh interpreter per use.

    worker.py setup   WORKLOAD SEED           import, build queries, stop
    worker.py session WORKLOAD SEED           cold pass, then warm pass
    worker.py traced  WORKLOAD SEED           the same with spans
    worker.py cli     ARG...                  one traced `symf` command

It prints one JSON object on its last stdout line.  `ready` is the
monotonic clock reading once symf is imported and the first query is
ready; the parent subtracts its own reading taken before the spawn.
Everything is timed with the queries' results consumed inside the
timed region; encoding and comparing answers happens after it.  Timed
spans are bracketed by reference-loop samples (speed.py), which are
reported next to them and are not part of any span.
"""

import io
import json
import os
import resource
import sys
from contextlib import redirect_stdout

import speed
from spans import Tracer, clock


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _ready_ref():
    """Reference samples taken once the first query is ready, for the
    set-up time, after one that warms the loop up (the first run in a
    fresh process is 15-30% slower)."""
    return [speed.sample() for _ in range(4)][1:]


def _pass(queries, tracer):
    """Latencies, reference samples before the first query and after
    each, and answers of one pass over the queries."""
    from workloads import QueryError, run_query
    answers, latencies, samples = [], [], [speed.sample()]
    for qid, q in enumerate(queries):
        if tracer is not None:
            tracer.qid = qid
        t0 = clock()
        try:
            answers.append(run_query(q, tracer))
        except Exception as exc:  # a failed query, counted by the parent
            answers.append(QueryError(repr(exc)))
        latencies.append(clock() - t0)
        samples.append(speed.sample())
    return latencies, samples, answers


def session(workload, seed, traced):
    from workloads import encode, queries
    qs = queries(workload, seed)
    ready = clock()
    ready_ref = _ready_ref()
    tracer = Tracer() if traced else None
    cold_lat, cold_ref, cold_ans = _pass(qs, tracer)
    warm_lat, warm_ref, warm_ans = _pass(qs, tracer)
    cold_enc = [encode(a) for a in cold_ans]
    warm_diff = [i for i, a in enumerate(warm_ans) if encode(a) != cold_enc[i]]
    return {
        "ready": ready, "ready_ref": ready_ref,
        "cold_lat": cold_lat, "warm_lat": warm_lat,
        "cold_ref": cold_ref, "warm_ref": warm_ref,
        "answers": cold_enc, "warm_mismatch": warm_diff,
        "maxrss_kb": _maxrss_kb(),
        "spans": tracer.spans if traced else None,
    }


def _table_files(r):
    from symf.characters import cache_dir
    try:
        names = os.listdir(cache_dir())
    except OSError:
        return {}
    return {n: os.path.getsize(os.path.join(cache_dir(), n))
            for n in names if n.endswith("-r%d.json" % r)}


def cli(argv):
    """One CLI command in process through symf.cli.main, with spans at
    the calls cli makes into the library."""
    import symf.cli as cli
    ready = clock()
    tracer = Tracer()
    counters = {"cache_bytes_written": 0, "cache_bytes_read": 0}

    def character_table(r):
        before = _table_files(r)
        if before:
            counters["cache_bytes_read"] += sum(before.values())
            return tracer.call("characters.table_load", real_table, r)
        out = tracer.call("characters.table_build", real_table, r)
        counters["cache_bytes_written"] += sum(_table_files(r).values())
        return out

    real_table = cli.character_table
    cli.character_table = character_table
    cli.to_basis = tracer.wrap(lambda f, b: "symfunc.to_basis_" + b, cli.to_basis)
    for module, names in (("expr", ("evaluate_text",)),
                          ("invariants", ("inv_char",)),
                          ("enumeration", ("card_deals", "deals_cycle_index",
                                           "regular_graphs",
                                           "regular_graphs_cycle_index"))):
        for name in names:
            setattr(cli, name, tracer.wrap("%s.%s" % (module, name),
                                           getattr(cli, name)))
    cli.PolyFunctor = tracer.wrap("invariants.polyfunctor", cli.PolyFunctor)
    if argv[0] == "selftest":
        import symf.selftest as selftest
        selftest.run_selftest = tracer.wrap("selftest.run_selftest",
                                            selftest.run_selftest)
    tracer.qid = 0
    buf = io.StringIO()
    # a warm-up sample, as in command.py, then one before and one after
    ref = [speed.sample(), speed.sample()]
    with redirect_stdout(buf):
        rc = tracer.call("cli.main." + argv[0], cli.main, argv)
    ref.append(speed.sample())
    return {"ready": ready, "rc": rc, "stdout": buf.getvalue(),
            "spans": tracer.spans, "counters": counters, "ref": ref}


def main(argv):
    mode = argv[0]
    if mode == "cli":
        out = cli(argv[1:])
    elif mode == "setup":
        if argv[1] == "cli_session":
            import symf.cli  # noqa: F401
        from workloads import queries
        queries(argv[1], int(argv[2]))
        out = {"ready": clock(), "ready_ref": _ready_ref()}
    else:
        out = session(argv[1], int(argv[2]), traced=(mode == "traced"))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
