"""library-session: one warm process answering public-API queries.

The session parses a few specs once (seeded loop families and two
fixtures), then answers a seeded stream of queries drawn with heavy repeats
from a fixed pool per spec:

* ``canonical_form`` and ``monomial_in_ideal`` on words of degree 2..10;
* ``is_central_monomial`` on loop-family words;
* ``central_monomials_upto`` at rising degree per spec.

The first occurrence of a query is cold, its repeats find pacqa's class
cache warm, so a change that drops or bounds that cache shows its cost
here.  Each distinct query is checked after the timed window: normal forms
against the trace-monoid reference in ``reference.py``, centrality and
center sizes against the closed forms in ``families.py``.  Repeats must
return a result equal to the first.
"""
from __future__ import annotations

import math
import pickle
import random
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from math import comb
from pathlib import Path

import families as fam
from families import ANTI, COMM
import measure
import tracing
from reference import TraceIdeal

ZIPF_S = 1.2              # repeat skew over each spec's pool
# Largest class a pool word may have: the full families reach 2520
# (shape 5+3+2), the others stay at 630, so that the slowest cold queries
# are the 1260- and 2520-member classes of the full families, a flat group
# that holds the latency tail for every seed.
FULL_MAX_CLASS = 2520
OTHER_MAX_CLASS = 630
# query kinds per block of twenty; the seed shuffles the block once
KINDS = (("canonical_form", 9), ("monomial_in_ideal", 6),
         ("is_central_monomial", 4), ("central_monomials_upto", 1))
LOOP_SLOTS = ((4, COMM, 0), (4, ANTI, 0), (4, COMM, 0), (4, ANTI, 0),
              (5, COMM, 1), (5, ANTI, 1))
# fixtures: (name, loops at the base vertex, arrows that may end a word)
FIXTURE_SPECS = (("comm_four_loops_arrow_out", ("a", "b", "c", "d"), ("e",)),
                 ("anti_two_loops_arrow", ("a", "b"), ("c",)))
CENTER_DEGREES = {4: range(2, 7), 5: range(2, 6)}
SESSION_QUERIES = 6_000   # queries per session
MIN_SESSIONS = 2          # sessions per run, at least: for the repeat check
TRACED_QUERIES = SESSION_QUERIES  # queries per pass of a traced run


@dataclass
class SpecEntry:
    text: str
    family: fam.LoopFamily | None   # None for a fixture
    letters: tuple[str, ...]        # loops at the base vertex
    tails: tuple[str, ...]          # arrows that may end a word
    max_class: int                  # largest class of a pool word


@dataclass
class Session:
    specs: list[SpecEntry]
    stream: list[tuple[str, int, object]]   # (kind, spec index, argument)


def shapes(max_parts: int, max_class: int) -> list[tuple[int, ...]]:
    """Letter multiplicities of the pool words: every partition of a degree
    2..10 into at most ``max_parts`` (and three) parts whose words have at
    most ``max_class`` rearrangements.  The shapes are the same for every
    seed, so the cold cost of a pool is too."""
    out = []

    def parts(total: int, largest: int, room: int):
        if total == 0:
            yield ()
            return
        if room == 0:
            return
        for first in range(min(total, largest), 0, -1):
            for rest in parts(total - first, first, room - 1):
                yield (first,) + rest

    for degree in range(2, 11):
        for shape in parts(degree, degree, min(max_parts, 3)):
            if multinomial(shape) <= max_class:
                out.append(shape)
    return out


def multinomial(shape: tuple[int, ...]) -> int:
    count, total = 1, 0
    for part in shape:
        total += part
        count *= comb(total, part)
    return count


def _pool(rng: random.Random, entry: SpecEntry) -> list[tuple[str, ...]]:
    """One word per shape: seeded letters for the parts, seeded order,
    and on a fixture sometimes a seeded non-loop last arrow."""
    words = []
    for shape in shapes(len(entry.letters), entry.max_class):
        letters = rng.sample(entry.letters, len(shape))
        word = [a for a, m in zip(letters, shape) for _ in range(m)]
        rng.shuffle(word)
        if entry.tails and rng.random() < 0.3:
            word.append(rng.choice(entry.tails))
        words.append(tuple(word))
    rng.shuffle(words)
    return words


def build_session(seed: int) -> Session:
    rng = random.Random(f"library-session:{seed}")
    fixture_dir = Path(__file__).resolve().parent.parent / "src" / "pacqa" \
        / "fixtures"
    specs = []
    for k, flavor, drop in LOOP_SLOTS:
        f = fam.loop_family(rng, k, flavor, drop)
        specs.append(SpecEntry(f.text, f, f.names, (),
                               OTHER_MAX_CLASS if drop else FULL_MAX_CLASS))
    for name, letters, tails in FIXTURE_SPECS:
        text = (fixture_dir / f"{name}.quiver").read_text(encoding="utf-8")
        specs.append(SpecEntry(text, None, letters, tails, OTHER_MAX_CLASS))
    pools = [_pool(rng, entry) for entry in specs]
    loop_specs = [i for i, e in enumerate(specs) if e.family is not None]
    block = [kind for kind, times in KINDS for _ in range(times)]
    rng.shuffle(block)
    n = SESSION_QUERIES
    any_spec = rng.choices(range(len(specs)), k=n)
    loop_spec = rng.choices(loop_specs, k=n)
    longest = max(map(len, pools))
    ranks = rng.choices(range(longest), [1.0 / (r + 1) ** ZIPF_S
                                         for r in range(longest)], k=n)
    stream = []
    uptos = 0
    for i in range(n):
        kind = block[i % len(block)]
        if kind == "central_monomials_upto":
            # cycle through the loop specs, each at rising degree
            si = loop_specs[uptos % len(loop_specs)]
            degrees = CENTER_DEGREES[specs[si].family.k]
            arg = degrees[(uptos // len(loop_specs)) % len(degrees)]
            uptos += 1
        else:
            si = loop_spec[i] if kind == "is_central_monomial" \
                else any_spec[i]
            pool = pools[si]
            arg = pool[ranks[i] % len(pool)]
        stream.append((kind, si, arg))
    return Session(specs, stream)


def run_stream(session: Session, count: int):
    """Parse the specs, then answer the first ``count`` queries of the
    stream (``count`` <= its length).  Returns per-query latencies, the
    first result per distinct query, repeat mismatches, errors and the time
    of all the queries.  Times are CPU time of this thread, which leaves
    out the time it waited for a core."""
    import pacqa
    funcs = {
        "canonical_form": pacqa.canonical_form,
        "monomial_in_ideal": pacqa.monomial_in_ideal,
        "is_central_monomial": pacqa.is_central_monomial,
        "central_monomials_upto": pacqa.central_monomials_upto,
    }
    ideals = [pacqa.parse_spec(e.text).ideal for e in session.specs]
    latencies = array("d")
    first: dict = {}
    mismatches: list = []
    errors: list = []
    clock = time.thread_time
    start = clock()
    for query in session.stream[:count]:
        kind, si, arg = query
        t0 = clock()
        try:
            result = funcs[kind](ideals[si], arg)
        except Exception as exc:  # a failed query counts, the run goes on
            latencies.append(math.inf)
            errors.append((query, repr(exc)))
            continue
        latencies.append(clock() - t0)
        seen = first.setdefault(query, result)
        if seen is not result and seen != result:
            mismatches.append(query)
    return latencies, first, mismatches, errors, clock() - start


def _summary(kind: str, result):
    """A comparable digest of one query result."""
    if kind == "central_monomials_upto":
        return tuple((d, len(els)) for d, els in result.by_degree)
    if kind == "is_central_monomial":
        return result.central
    return result


def expected(session: Session, ideals: list[TraceIdeal], query):
    """The reference answer for one query, computed without pacqa."""
    kind, si, arg = query
    entry = session.specs[si]
    if kind == "central_monomials_upto":
        f = entry.family
        return tuple((d, fam.central_count(f, d)) for d in range(1, arg + 1)
                     if fam.central_count(f, d))
    form = ideals[si].normal_form(arg)
    if kind == "canonical_form":
        return form
    if kind == "monomial_in_ideal":
        return form is None
    return form is not None and _central(entry.family, arg)


def _central(f: fam.LoopFamily, word) -> bool:
    """Centrality of a nonzero word of a square-free loop family: its
    support must lie in the untouched loops; anticommutative words also
    need all multiplicities even, or (full family, odd degree) every loop
    an odd number of times."""
    counts = Counter(word)
    if not set(counts) <= set(f.untouched):
        return False
    if f.flavor == COMM:
        return True
    if all(c % 2 == 0 for c in counts.values()):
        return True
    return (not f.dropped and len(word) % 2 == 1
            and len(counts) == f.k
            and all(c % 2 == 1 for c in counts.values()))


def _parse_lists(text: str):
    """Arrow names, relations, monomials and flavor of a spec text, read
    with a few lines of string handling rather than pacqa's parser."""
    names, rel, mono, anti = [], [], [], False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, body = line.partition(":")
        key = key.strip()
        if line.startswith("ideal"):
            anti = line.split()[1] == ANTI
        elif key == "arrows":
            names = [item.split(":")[0].strip() for item in body.split(",")]
        elif key == "zero":
            mono += [tuple(w.strip().split("*")) for w in body.split(",")]
        elif key in ("comm", "anti"):
            rel += [tuple(w.strip().split("*")) for w in body.split(",")]
    return names, rel, mono, anti


def verify(session: Session, first: dict, mismatches, errors) -> list[str]:
    problems = [f"repeat of {q} returned a different result"
                for q in mismatches[:5]]
    problems += [f"{q} raised {e}" for q, e in errors[:5]]
    ideals = [TraceIdeal.from_lists(*_parse_lists(e.text))
              for e in session.specs]
    for query, result in first.items():
        want = expected(session, ideals, query)
        got = _summary(query[0], result)
        if got != want:
            problems.append(f"{query}: got {got}, reference {want}")
    return problems


def forked_session(session: Session, count: int, recorder=None) -> dict:
    """One session in a child forked from the cold parent: a warm process
    for its whole query stream.  The child checks its own answers after
    the timed loop and sends back latencies, digests and problems."""
    def body() -> bytes:
        if recorder is not None:
            recorder.reset(0)
        lat, first, mism, errs, cpu = run_stream(session, count)
        trace = None
        if recorder is not None:
            trace = (recorder.spans, recorder.counts)
        return pickle.dumps({
            "latencies": lat.tobytes(), "cpu": cpu,
            "problems": verify(session, first, mism, errs),
            "failed": len(errs) + len(mism),
            "failed_queries": set(mism) | {q for q, _ in errs},
            "digest": {q: _summary(q[0], r) for q, r in first.items()},
            "trace": trace})

    payload, _, usage, _ = measure.forked(body)
    if payload is None:
        raise RuntimeError("library session died without a report")
    out = pickle.loads(payload)
    latencies = array("d")
    latencies.frombytes(out["latencies"])
    out["latencies"] = latencies
    out["rss_mb"] = usage.ru_maxrss / 1024.0
    return out


def main(session: Session, args, setup_s: float, stem: str) -> int:
    import pacqa
    if args.trace:
        plain = forked_session(session, TRACED_QUERIES)
        recorder = tracing.Recorder()
        uninstall = tracing.install(pacqa, recorder)
        try:
            traced = forked_session(session, TRACED_QUERIES, recorder)
        finally:
            uninstall()
        spans, counts = traced["trace"]
        measure.write_spans(measure.OUT / f"{stem}-spans.tsv", spans)
        metrics, totals, self_s = measure.layer_metrics(spans, counts)
        metrics["trace.overhead_s"] = (traced["cpu"] - plain["cpu"], "s")
        runs = [plain, traced]
        problems = plain["problems"] + traced["problems"]
        if plain["digest"] != traced["digest"]:
            problems.append("traced and untraced sessions answered "
                            "differently")
        extra = {"calls": dict(totals), "self_s": self_s}
    else:
        runs = []
        start = time.perf_counter()
        while (len(runs) < MIN_SESSIONS
               or time.perf_counter() - start < args.seconds):
            runs.append(forked_session(session, SESSION_QUERIES))
        problems = [p for r in runs for p in r["problems"]]
        if any(r["digest"] != runs[0]["digest"] for r in runs):
            problems.append("sessions answered differently")
        typical = [measure.upper_quartile(column)
                   for column in zip(*(r["latencies"] for r in runs))]
        tail_value, tail_pct, samples = measure.tail(typical)
        distinct = len(set(session.stream[:SESSION_QUERIES]))
        failed_queries = set().union(*(r["failed_queries"] for r in runs))
        finite = [t for t in typical if math.isfinite(t)]
        metrics = {
            # a closed-loop client's rate over the stream, from the same
            # per-query latencies
            "ops_per_s": (len(finite) / sum(finite), "1/s"),
            "latency_p50_ms": (statistics.median(typical) * 1e3, "ms"),
            "latency_tail_ms": (tail_value * 1e3, "ms"),
            "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB"),
            "ok_ratio": (1 - len(failed_queries) / distinct, "ratio"),
            "setup_s": (setup_s, "s"),
        }
        extra = {"tail_percentile": tail_pct, "samples": samples,
                 "sessions": len(runs),
                 "distinct_queries": distinct,
                 "elapsed_s": time.perf_counter() - start}
        print(f"  {len(runs)} sessions of {SESSION_QUERIES} queries, "
              f"{extra['distinct_queries']} distinct; tail = "
              f"p{tail_pct:.3f} of {samples} queries")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    extra["failures"] = problems[:50]
    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    measure.emit(not problems, attempted, failed, metrics, extra, stem)
    return 0
