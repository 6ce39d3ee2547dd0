"""Seeded compile/query benchmark for modaltpi.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each run is one closed loop in one fresh interpreter: a single
caller that waits for every answer.

A run is a series of rounds, each with its own inputs drawn from the
seed and the round number.  A round sets up (generates its inputs,
compiles its query pool with `compile_kb` from KB text and round-trips
the pool through JSON) and then runs its operations: compiles, a
compiled-query pass and a direct-query pass over the same queries, each
pass starting from an empty sat cache.  The output checks of a round run
when it ends, outside the timed parts.  Rounds repeat until `--seconds`
have passed, at least MIN_ROUNDS times.  Every time is scaled to a
reference speed of the host (see clock.py), `setup_s` is the median
set-up time over the rounds, and the latency percentiles are taken over
the operations of all rounds.

The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones.  With `--trace 1` the run makes one untraced round and
replays it with every layer boundary wrapped (see layers.py), then
reports the per-layer metrics and the tracing overhead; its spans are
written to `.bench_out/spans-<workload>.jsonl`.

Exit codes: 0 when every check passes, 1 when an output check fails,
2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3
ZIPF_S = 1.1
# Every generated KB has a candidate bound (see gen.candidate_bound) of at
# most this.  Without it about one 4-variable KB in three hundred compiles
# for seconds to minutes, so which KBs a seed happens to draw would move
# throughput and tail latency far more than any regression bound; with it
# no compile can reach the size cap either.
CANDIDATE_BOUND = 16

X_GOLDEN = "(p1 | p2) & <>[]~p3 & []<>p2"
Y_GOLDEN = "p1 | p2"
GOLDEN_NAMES = ("p1", "p2", "p3")
# The paper's worked example: its 8 candidates in T (9 strings, two of
# which are the same clause) and its 3 theory prime implicates in K.
PAPER_CANDIDATES = [
    "p1 | p2",
    "p1 | [](<>p2 & (p1 | p2))",
    "p1 | <>([]~p3 & <>p2 & (p1 | p2))",
    "[](<>p2 & (p1 | p2)) | p2",
    "[](<>p2 & (p1 | p2))",
    "[](<>p2 & (p1 | p2)) | <>([]~p3 & <>p2 & (p1 | p2))",
    "<>([]~p3 & <>p2 & (p1 | p2)) | p2",
    "<>([]~p3 & <>p2 & (p1 | p2)) | [](<>p2 & (p1 | p2))",
    "<>([]~p3 & <>p2 & (p1 | p2))",
]
PAPER_THETA = [
    "p1 | p2",
    "[](<>p2 & (p1 | p2))",
    "<>([]~p3 & <>p2 & (p1 | p2))",
]

HARD = dict(names=("a", "b", "c", "d"), max_clauses=6)
SMALL = dict(names=("a", "b", "c"), max_clauses=4)

# name -> why, KBs compiled per round, random KBs in the query pool,
# whether the pool holds the golden instance (first), query stream
# ("ordered": the vocabulary of each compilation in turn),
# queries per pass (None: every pair once), and how many
# pool KBs the queries go to (None: all).  The pools are large so that
# compile times and omega sizes do not hang on a few KBs a seed draws.
WORKLOADS = {
    "compile-hard": dict(
        why="compile_kb alone: 4-variable KBs of up to 6 clauses in K and T, "
            "so normal_forms, pi and the tableau calls of minimization do "
            "the work; queries only probe the golden instance",
        compile=dict(HARD, count=2000), pool=None, golden=True,
        stream="ordered", queries=None, hot=None),
    "qa-distinct": dict(
        why="every query asked once per compilation in shuffled order, so "
            "most miss the cache: cold qa and semantics work, compiled vs "
            "direct",
        compile=None, pool=dict(SMALL, count=600), golden=False,
        stream="distinct", queries=20_000, hot=None),
    "qa-repeat": dict(
        why="Zipf-skewed queries drawn with replacement, so most repeat and"
            " hit the cache: formula building and the omega loop",
        compile=None, pool=dict(SMALL, count=600), golden=True,
        stream="zipf", queries=20_000, hot=51),
}


def _import_package():
    src = ROOT / "src"
    if not (src / "modaltpi" / "__init__.py").is_file():
        print(f"error: no package at {src / 'modaltpi'}; run from the "
              "root of a modaltpi checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


_import_package()

import modaltpi.formula as F  # noqa: E402
import modaltpi.pi as P  # noqa: E402
import modaltpi.qa as Q  # noqa: E402
import modaltpi.semantics as S  # noqa: E402
from modaltpi.errors import BudgetExceededError, CapacityError  # noqa: E402

import clock  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402

FAILURES = (CapacityError, BudgetExceededError)
FAILED = "failed"
SYSTEMS = (S.System.K, S.System.T)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def bounded_kbs(rng, names, max_clauses, count):
    """`count` (x, y) texts of the `rand_instance` shape whose candidate
    bound is at most CANDIDATE_BOUND."""
    out = []
    while len(out) < count:
        props, modal = gen.kb_clauses(rng, names, max_clauses)
        if gen.candidate_bound(props, modal) <= CANDIDATE_BOUND:
            out.append(gen.kb_text(props, modal))
    return out


def make_inputs(workload, seed, round_no):
    """Every input of one round of a run, as text, and its operations.

    Operations: ("compile", kb index, system), ("qc", pair index) for a
    compiled answer, ("qd", pair index) for a direct one, and ("clear",),
    which starts a part of the round (see `fresh_start`).  A pair is
    (compilation index, query index), a compilation is (pool KB index,
    system).
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{round_no}")
    compile_kbs = bounded_kbs(rng, **spec["compile"]) if spec["compile"] else []
    pool = [(X_GOLDEN, Y_GOLDEN, GOLDEN_NAMES)] if spec["golden"] else []
    if spec["pool"]:
        names = spec["pool"]["names"]
        pool += [(x, y, names) for x, y in bounded_kbs(rng, **spec["pool"])]
    vocab = {n: gen.clause_vocabulary(n) for n in {kb[2] for kb in pool}}
    comps = [(i, s) for i in range(len(pool)) for s in SYSTEMS]
    asked = range(2 * (spec["hot"] or len(pool)))
    sizes = [len(vocab[pool[i][2]]) for i, _ in comps]
    if spec["stream"] == "ordered":
        pairs = [(c, q) for c in asked for q in range(sizes[c])]
    elif spec["stream"] == "distinct":
        # a sample without replacement of all (compilation, query) pairs
        starts = list(itertools.accumulate(sizes[c] for c in asked))
        total = starts[-1]
        pairs = []
        for k in rng.sample(range(total), min(spec["queries"], total)):
            c = bisect.bisect_right(starts, k)
            pairs.append((c, k - (starts[c - 1] if c else 0)))
    else:
        # each compilation gets its own Zipf ranking of the vocabulary;
        # the stream picks a compilation uniformly, then draws a query
        ranked = [gen.zipf_ranking(rng, range(sizes[c]), ZIPF_S) for c in asked]
        pairs = []
        for _ in range(spec["queries"]):
            c = rng.randrange(len(asked))
            items, cum = ranked[c]
            pairs.append((c, rng.choices(items, cum_weights=cum)[0]))
    ops = [("clear",)]
    ops += [("compile", i, s) for i in range(len(compile_kbs)) for s in SYSTEMS]
    for kind in ("qc", "qd"):
        ops.append(("clear",))
        ops += [(kind, k) for k in range(len(pairs))]
    return dict(compile_kbs=compile_kbs, pool=pool, vocab=vocab, comps=comps,
                pairs=pairs, ops=ops)


# ---------------------------------------------------------------------------
# Set-up and measured rounds
# ---------------------------------------------------------------------------

def compile_text(x_text, y_text, system):
    return P.compile_kb(F.parse(x_text), F.parse(y_text), system)


def setup(workload, seed, round_no, work_dir, timer):
    """Generate inputs, compile the query pool, save and load it back.

    Adds the time of each step to the timer under ("setup", step) keys,
    with ("setup", "compile", n) for the n-th pool compile.  Returns
    (inputs, loaded compilations with None for a failed compile,
    compilations whose theta the round trip changed)."""
    started = time.perf_counter()
    inputs = make_inputs(workload, seed, round_no)
    timer.add(("setup", "inputs"), time.perf_counter() - started)
    loaded, changed = [], 0
    for n, (i, system) in enumerate(inputs["comps"]):
        x_text, y_text, _ = inputs["pool"][i]
        started = time.perf_counter()
        try:
            comp = compile_text(x_text, y_text, system)
        except FAILURES:
            comp = None
        timer.add(("setup", "compile", n), time.perf_counter() - started)
        if comp is None:
            loaded.append(None)
            continue
        path = str(work_dir / f"comp{n}.json")
        started = time.perf_counter()
        Q.save_compilation(comp, path)
        back = Q.load_compilation(path)
        timer.add(("setup", "json", n), time.perf_counter() - started)
        changed += back.theta != comp.theta
        loaded.append(back)
    return inputs, loaded, changed


def execute(op, inputs, comps):
    """Run one operation; FAILED when the program refused it."""
    kind = op[0]
    try:
        if kind == "compile":
            x_text, y_text = inputs["compile_kbs"][op[1]]
            return compile_text(x_text, y_text, op[2])
        c, q = inputs["pairs"][op[1]]
        comp = comps[c]
        if comp is None:
            return FAILED
        names = inputs["pool"][inputs["comps"][c][0]][2]
        query = F.parse(inputs["vocab"][names][q])
        if kind == "qc":
            return Q.answer_query(comp, query)
        return Q.answer_query_direct(comp.x, comp.y, query, comp.system)
    except FAILURES:
        return FAILED


def fresh_start():
    """Empty the sat cache, collect garbage and freeze what survives, so
    that the collections inside a part of a round scan only what that part
    allocates, whatever ran before it."""
    S.clear_cache()
    gc.collect()
    gc.freeze()


def run_round(workload, seed, round_no, work_dir):
    """Set up, then run every op of the round, each part from an empty
    cache.  Returns the set-up, its time, the pool's compile times and
    each op's time, all scaled by `clock.Clock`, and each op's outcome."""
    fresh_start()
    timer = clock.Clock()
    inputs, comps, changed = setup(workload, seed, round_no, work_dir, timer)
    outcomes = []
    for k, op in enumerate(inputs["ops"]):
        if op[0] == "clear":
            fresh_start()
            outcomes.append(None)
            continue
        started = time.perf_counter()
        outcome = execute(op, inputs, comps)
        timer.add(k, time.perf_counter() - started)
        outcomes.append(outcome)
    scaled = timer.finish()
    gc.unfreeze()
    return dict(inputs=inputs, comps=comps, changed=changed,
                setup_s=sum(v for k, v in scaled.items()
                            if isinstance(k, tuple)),
                pool_times=[scaled[("setup", "compile", n)]
                            for n in range(len(inputs["comps"]))],
                times=[scaled.get(k, 0.0) for k in range(len(inputs["ops"]))],
                outcomes=outcomes, host_factor=timer.factors)


# ---------------------------------------------------------------------------
# Output checks (never inside a timed region)
# ---------------------------------------------------------------------------

def check_golden(problems):
    x, y = F.parse(X_GOLDEN), F.parse(Y_GOLDEN)
    t = P.compile_kb(x, y, S.System.T)
    if set(t.candidates) != {F.parse(s) for s in PAPER_CANDIDATES} \
            or len(t.candidates) != 8:
        problems.append("golden T candidates differ from the paper's 8")
    k = P.compile_kb(x, y, S.System.K)
    if set(k.theta) != {F.parse(s) for s in PAPER_THETA}:
        problems.append("golden K theta differs from the paper's 3 clauses")


def check_compilation(comp, problems):
    """theta equivalent to X modulo []Y; False when the tableau runs out
    of budget before deciding, which the run counts."""
    try:
        same = S.equivalent_mod(F.land(comp.theta), comp.x, comp.box_y,
                                comp.system)
    except BudgetExceededError:
        return False
    if not same:
        problems.append(f"theta is not equivalent to X modulo []Y: "
                        f"{comp.system.value} {comp.x}")
    return True


def check_answers(inputs, comps, outcomes, problems):
    """Compiled answers against direct ones; countermodels of false direct
    answers against `evaluate`.  Returns (compared, T mismatches)."""
    answers = {"qc": {}, "qd": {}}
    for op, outcome in zip(inputs["ops"], outcomes):
        if op[0] in answers and outcome is not FAILED:
            answers[op[0]][op[1]] = outcome
    compared = t_mismatch = 0
    for k, verdict in answers["qc"].items():
        ref = answers["qd"].get(k)
        if ref is None:
            continue
        compared += 1
        comp = comps[inputs["pairs"][k][0]]
        if verdict.answer != ref.answer:
            if comp.system is S.System.K:
                problems.append(f"K mismatch on {verdict.query} against "
                                f"{comp.x}: compiled {verdict.answer}")
            else:
                t_mismatch += 1
        if not ref.answer:
            model, world = ref.witness
            if not (S.evaluate(model, world, F.land(comp.x, comp.box_y))
                    and not S.evaluate(model, world, ref.query)):
                problems.append(f"bad countermodel for {ref.query} "
                                f"against {comp.x}")
    return compared, t_mismatch


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def quantile(samples, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def e2e_metrics(t, same_queries):
    """Percentiles and rates over the operations of all rounds.  When
    every round asks the same queries (`same_queries`), each query's time
    is first its median over the rounds, so that the few queries a short
    host spike hits cannot make up the tail."""
    def pooled(rounds):
        if same_queries:
            return [statistics.median(ts) for ts in zip(*rounds)]
        return [x for r in rounds for x in r]

    compiles = [x for r in t.compile_times for x in r]
    qc, qd = pooled(t.qc), pooled(t.qd)
    return {
        "setup_s": (statistics.median(t.setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "compile_ms_p50": (quantile(compiles, 0.50) * 1e3, "ms"),
        "compile_ms_p95": (quantile(compiles, 0.95) * 1e3, "ms"),
        "compile_per_s": (len(compiles) / sum(compiles), "1/s"),
        "qa_compiled_us_p50": (quantile(qc, 0.50) * 1e6, "us"),
        "qa_compiled_us_p99": (quantile(qc, 0.99) * 1e6, "us"),
        "qa_direct_us_p50": (quantile(qd, 0.50) * 1e6, "us"),
        "qa_direct_us_p99": (quantile(qd, 0.99) * 1e6, "us"),
        "qa_per_s": (len(qc) / sum(qc), "1/s"),
    }


def round_seconds(rd):
    """Scaled time of a round's set-up and operations."""
    return rd["setup_s"] + sum(rd["times"])


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "per_candidate", "per_query")):
        return "ratio"
    if name.endswith("omega_size"):
        return "clauses"
    return "count"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def run(workload, seed, seconds, traced):
    work_dir = OUT / f"work-{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, seed, seconds, traced, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


class Tally:
    """What the rounds of a run add up to: scaled times (one list per
    round), counts and the problems the output checks found."""

    def __init__(self):
        self.setup_times, self.compile_times, self.qc, self.qd = [], [], [], []
        self.host_factors, self.problems = [], []
        self.compile_failed = self.failed = self.dropped = 0
        self.compared = self.t_mismatch = self.undecided = 0
        self.repeats = self.queries = 0

    def add(self, rd):
        """Take the times of a round and run its output checks."""
        inputs, comps, outcomes = rd["inputs"], rd["comps"], rd["outcomes"]
        ops = inputs["ops"]
        self.setup_times.append(rd["setup_s"])
        self.host_factors += rd["host_factor"]
        timed = {kind: [t for op, t in zip(ops, rd["times"]) if op[0] == kind]
                 for kind in ("compile", "qc", "qd")}
        self.compile_times.append(rd["pool_times"] + timed["compile"])
        self.qc.append(timed["qc"])
        self.qd.append(timed["qd"])
        made = [o for op, o in zip(ops, outcomes) if op[0] == "compile"]
        self.dropped += sum(c is None for c in comps)
        self.compile_failed += (sum(c is None for c in comps)
                                + sum(o is FAILED for o in made))
        self.failed += (sum(c is None for c in comps)
                        + sum(o is FAILED for o in outcomes))
        pairs = inputs["pairs"]
        self.repeats += len(pairs) - len(set(pairs))
        self.queries += len(pairs)
        if rd["changed"]:
            self.problems.append(f"JSON round trip changed theta of "
                                 f"{rd['changed']} compilations")
        self.undecided += sum(not check_compilation(c, self.problems)
                              for c in comps + made
                              if c is not None and c is not FAILED)
        compared, t_mismatch = check_answers(inputs, comps, outcomes,
                                             self.problems)
        self.compared += compared
        self.t_mismatch += t_mismatch

    def count(self, kind):
        rounds = {"compile": self.compile_times, "qc": self.qc, "qd": self.qd}
        return sum(map(len, rounds[kind]))

    def extra(self):
        """Counts and ratios reported on every run."""
        return {
            "compile_fail_frac": (self.compile_failed / self.count("compile"),
                                  "ratio"),
            "qa_mismatch_frac": (self.t_mismatch / max(1, self.compared),
                                 "ratio"),
            "qa.dropped_compilations": (self.dropped, "count"),
            "qa.repeat_frac": (self.repeats / max(1, self.queries), "ratio"),
            "check.undecided": (self.undecided, "count"),
        }


def _run(workload, seed, seconds, traced, work_dir):
    tally = Tally()
    if traced:
        untraced = run_round(workload, seed, 0, work_dir)
        tally.add(untraced)
        tracer = layers.Tracer()
        tracer.install(roots=[(sys.modules[__name__], "execute", "bench.op")])
        try:
            traced_round = run_round(workload, seed, 0, work_dir)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{workload}.jsonl")
        per_layer = layers.layer_metrics(tracer.spans)
        per_layer["trace.overhead_frac"] = (
            round_seconds(traced_round) / round_seconds(untraced) - 1)
        if per_layer["trace.nesting_gap_s"] > 1e-6:
            tally.problems.append("self times do not add up to compile_kb "
                                  "spans")
    else:
        # checks run between rounds, outside the timed parts
        end = time.perf_counter() + seconds
        while (len(tally.setup_times) < MIN_ROUNDS
               or time.perf_counter() < end):
            tally.add(run_round(workload, seed, len(tally.setup_times),
                                work_dir))
    check_golden(tally.problems)

    t = tally
    print(f"workload {workload} seed {seed}: {WORKLOADS[workload]['why']}")
    print(f"  rounds {len(t.setup_times)}; host speed factor median "
          f"{statistics.median(t.host_factors):.3f}; compiles "
          f"{t.count('compile')}, compiled answers {t.count('qc')}, direct "
          f"answers {t.count('qd')}, compared {t.compared}, T mismatches "
          f"{t.t_mismatch}, failed {t.failed}; checks "
          f"{'FAILED' if t.problems else 'passed'}")
    for p in t.problems[:20]:
        print("  check failed:", p)
    extra = t.extra()
    if traced:
        metrics = dict(extra)
        metrics.update((n, (v, unit_of(n))) for n, v in per_layer.items())
    else:
        metrics = e2e_metrics(t, WORKLOADS[workload]["stream"] == "ordered")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:38s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not t.problems,
        "attempted": t.count("compile") + t.count("qc") + t.count("qd"),
        "failed": t.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 1 if t.problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
