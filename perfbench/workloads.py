"""The three workloads: each runs whole ``qadb`` CLI commands and scores them.

A workload repeats a fixed unit of CLI work -- a *pass* -- until its time
is up, always at least once, and reports medians over passes. Inputs are
made, and outputs checked, outside the timed passes.

* gen-remote -- a pass is ``build-db --checkpoint`` over 60 passages, then
  ``revise`` over 360 sampled rows, both through the loopback model server,
  then ``coverage`` of the built database.
* retrieve-sparse / retrieve-dense -- a pass is ``retrieve`` over the
  seed's 100 queries on a 200k-question database, then ``eval`` of its
  results.

One process issues the traffic (the CLI: one client, closed loop) while
the benchmark waits; the model server is one more process, with one
thread and one connection.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import checks, gen, tracing

HERE = Path(__file__).resolve().parent
RETRIEVE = {  # workload -> (mode, method)
    "retrieve-sparse": ("sparse", "count"),
    "retrieve-dense": ("dense", "max"),
}
K_QUESTIONS = 50
TOP_N = 10
CHECK_NATURAL, CHECK_KEYWORD = 3, 7  # queries recomputed by brute force per run
RUN_DEADLINE_S = 165.0  # after this long a run kills its CLI command and fails it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "items_per_s": "1/s",
    "followup_items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "answer_recall": "fraction",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "corpus.load_s": "s",
    "backend.requests_per_passage": "count",
    "backend.requests_per_row": "count",
    "backend.prompts_per_request": "count",
    "backend.bytes_per_passage": "B",
    "backend.client_s": "s",
    "backend.server_busy_s": "s",
    "backend.retries": "count",
    "backend.errors_5xx": "count",
    "construction.detect_s": "s",
    "construction.generate_s": "s",
    "construction.verify_s": "s",
    "construction.merge_s": "s",
    "construction.build_self_s": "s",
    "construction.detected_per_passage": "count",
    "construction.generated_per_passage": "count",
    "construction.verified_per_passage": "count",
    "construction.unique_questions_per_passage": "count",
    "construction.verified_per_detected": "ratio",
    "revision.revise_s": "s",
    "revision.rounds_per_row": "count",
    "database.save_s": "s",
    "database.bytes_per_question": "B",
    "database.load_s": "s",
    "retrieval.index_build_s": "s",
    "retrieval.load_vectors_s": "s",
    "retrieval.tokenize_ms": "ms",
    "retrieval.accumulate_ms": "ms",
    "retrieval.candidates_per_query": "count",
    "retrieval.embed_query_ms": "ms",
    "retrieval.select_ms": "ms",
    "retrieval.aggregate_ms": "ms",
    "retrieval.aggregate_share": "ratio",
    "trace.self_sum_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Command:
    """One finished CLI process, as measured from outside."""

    t_spawn: float
    wall: float
    rss_mb: float
    exit: int
    items: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit == 0


class Cli:
    """Launches ``qadb`` commands through ``launch.py`` and measures each."""

    def __init__(self, root: Path, records: Path, deadline: float):
        self.records = records
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "QADB_BACKEND_ENDPOINT"}
        self.env["PYTHONPATH"] = str(root / "src")
        self._n = 0

    def run(self, args: list, traced: bool, endpoint: str | None = None) -> Command:
        self._n += 1
        record = self.records / f"cmd{self._n}.json"
        log = self.records / f"cmd{self._n}.log"
        env = dict(self.env, QADB_BACKEND_ENDPOINT=endpoint) if endpoint else self.env
        argv = [sys.executable, str(HERE / "launch.py"), str(record),
                "trace" if traced else "items", "--", *map(str, args)]
        with open(log, "wb") as out:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(max(0.0, self.deadline - t_spawn), proc.kill)
            watchdog.start()
            try:
                _, status = os.waitpid(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.monotonic() - t_spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            print(f"qadb {args[0]} exited {proc.returncode}; see {log}", file=sys.stderr)
        data = json.loads(record.read_text()) if record.exists() else {}
        return Command(t_spawn, wall, data.get("peak_rss_kb", 0) / 1024.0, proc.returncode,
                       data.get("items", []), data.get("spans", []), data.get("counters", {}))


class ModelServer:
    """The loopback model server process (``server.py``)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "server.py")],
                                     stdout=subprocess.PIPE)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError("model server did not start")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.endpoint = self.base + "/generate"

    def stats(self, reset: bool = False) -> dict:
        with urllib.request.urlopen(self.base + "/stats" + ("?reset=1" if reset else "")) as r:
            return json.loads(r.read())

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def report(self, values: dict, units: dict) -> None:
        """Record every metric of ``units``; a layer a workload leaves idle reads 0."""
        for name, unit in units.items():
            self.metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit}

    def to_json(self) -> dict:
        return {
            "correct": not self.errors and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def make_inputs(family: str, work: Path, seed: int) -> Path:
    """Generate (or find cached) inputs in a child process.

    The generator peaks at ~1 GB; doing it here would leave this process
    that large while it launches and times the CLI.
    """
    subprocess.run([sys.executable, str(HERE / "gen.py"), family, str(work), str(seed)],
                   check=True, env=dict(os.environ, PYTHONPATH=f"{HERE.parent / 'src'}"))
    return gen.inputs_dir(family, work, seed)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(n=100)`` cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def repeat(pass_fn, seconds: float) -> list:
    """Run ``pass_fn(i)`` while ``seconds`` last, at least once.

    Another pass starts only if, as long as the last one, it would end
    less than half a pass after ``seconds``: a run with long passes then
    lasts ``seconds`` on average rather than up to a pass more. Stops early
    after a pass with a failed command: the run has failed.
    """
    results = []
    start = time.monotonic()
    last = 0.0
    while not results or (time.monotonic() - start + last / 2 < seconds
                          and all(cmd.ok for cmd in results[-1]["cmds"])):
        began = time.monotonic()
        results.append(pass_fn(len(results)))
        last = time.monotonic() - began
    return results


def process_spans(cmd: Command) -> list[list]:
    """The command's spans under a root covering the process, spawn to exit."""
    root = ["cli.process", cmd.t_spawn, cmd.t_spawn + cmd.wall, -1, None]
    return [root] + [
        [name, start, end, parent + 1 if parent >= 0 else 0, item]
        for name, start, end, parent, item in cmd.spans
    ]


def layer_values(cmds: list[Command], n_queries: int) -> dict:
    """Per-layer metrics that come from spans alone."""
    totals: dict[str, float] = {}
    per_call: dict[str, list[float]] = {}
    for cmd in cmds:
        spans = process_spans(cmd)
        for span, own in zip(spans, tracing.self_times(spans)):
            totals[span[0]] = totals.get(span[0], 0.0) + own
            per_call.setdefault(span[0], []).append(own)

    def call(name):  # setup-type layers: median self time of one call
        return statistics.median(per_call.get(name, [0.0]))

    def per_query_ms(name):
        return 1000.0 * totals.get(name, 0.0) / n_queries if n_queries else 0.0

    query_ms = sum(per_query_ms(n) for n in totals if n.startswith("retrieval.")
                   and n not in ("retrieval.build_index", "retrieval.load_vectors"))
    candidates = sum(cmd.counters.get("retrieval.candidates", 0) for cmd in cmds)
    return {
        "cli.import_s": call("cli.import"),
        "cli.self_s": totals.get("cli.process", 0.0) + totals.get("cli.main", 0.0),
        "corpus.load_s": totals.get("corpus.load", 0.0),
        "construction.detect_s": totals.get("construction.detect", 0.0),
        "construction.generate_s": totals.get("construction.generate", 0.0),
        "construction.verify_s": totals.get("construction.verify", 0.0),
        "construction.merge_s": totals.get("construction.merge", 0.0),
        "construction.build_self_s": totals.get("construction.build_database", 0.0),
        "revision.revise_s": (totals.get("revision.revise_iterative", 0.0)
                              + totals.get("revision.revise_once", 0.0)),
        "database.save_s": call("database.save"),
        "database.load_s": call("database.load"),
        "retrieval.index_build_s": call("retrieval.build_index"),
        "retrieval.load_vectors_s": call("retrieval.load_vectors"),
        "retrieval.tokenize_ms": per_query_ms("retrieval.tokenize"),
        "retrieval.accumulate_ms": per_query_ms("retrieval.accumulate"),
        "retrieval.candidates_per_query": candidates / n_queries if n_queries else 0.0,
        "retrieval.embed_query_ms": per_query_ms("retrieval.embed_query"),
        "retrieval.select_ms": per_query_ms("retrieval.retrieve_questions"),
        "retrieval.aggregate_ms": per_query_ms("retrieval.aggregate"),
        "retrieval.aggregate_share": (
            per_query_ms("retrieval.aggregate") / query_ms if query_ms else 0.0),
        "trace.self_sum_s": sum(totals.values()),
    }


def report_trace(result: Result, untraced: list[dict], traced: list[dict], layers) -> None:
    """Per-layer metrics as medians over traced passes, and the tracing overhead."""
    per_pass = [layers(p) for p in traced]
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
    values["trace.untraced_wall_s"] = statistics.median(p["wall"] for p in untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    result.report(values, PER_LAYER)


def item_ms(cmd: Command) -> list[float]:
    """Latency of each per-item call the command made."""
    return [1000.0 * (end - start) for start, end in cmd.items]


def report_end_to_end(result: Result, passes: list[dict], values: dict):
    """End-to-end metrics; per-pass values, percentiles too, are medians over passes.

    A slow spell of the host that covers a minority of passes moves no median.
    """
    def median(key):
        return statistics.median(p[key] for p in passes)

    values.update({
        "setup_s": statistics.median(s for p in passes for s in p["setups"]),
        "wall_s": median("wall"),
        "peak_rss_mb": median("rss_mb"),
        "ok_ratio": 1.0 - result.failed / result.attempted,
        "items_per_s": median("items_per_s"),
        "followup_items_per_s": median("followup_items_per_s"),
        "item_p50_ms": statistics.median(percentile(p["item_ms"], 50) for p in passes),
        "item_p90_ms": statistics.median(percentile(p["item_ms"], 90) for p in passes),
    })
    result.report(values, END_TO_END)


# --- gen-remote ----------------------------------------------------------


def gen_remote(root: Path, work: Path, seed: int, seconds: float, trace: bool,
               deadline: float) -> Result:
    from qadb import QADatabase
    from qadb.metrics import load_examples

    result = Result()
    inputs = make_inputs("remote", work, seed)
    corpus, rows, gold = inputs / "corpus.jsonl", inputs / "rows.jsonl", inputs / "gold.jsonl"
    n_passages = len(checks.read_jsonl(corpus))
    n_rows = len(checks.read_jsonl(rows))
    n_gold = len(checks.read_jsonl(gold))
    revisions = checks.reference_revisions(inputs)
    coverage = QADatabase.load(inputs / "reference.qadb").answer_coverage(
        load_examples(gold.read_text(encoding="utf-8").splitlines())
    )
    funnel = json.loads((inputs / "reference.funnel.json").read_text())
    runs = fresh_dir(work / "passes")
    cli = Cli(root, runs, deadline)

    def one_pass(index: int, traced: bool) -> dict:
        out = runs / f"{'t' if traced else 'u'}{index}"
        out.mkdir(parents=True)
        server.stats(reset=True)
        build = cli.run(["build-db", "--corpus", corpus, "--db", out / "db.qadb",
                         "--checkpoint", out / "run.ckpt"], traced, server.endpoint)
        build_stats = server.stats(reset=True)
        revise = cli.run(["revise", "--corpus", corpus, "--questions", rows,
                          "--out", out / "revised.jsonl"], traced, server.endpoint)
        revise_stats = server.stats(reset=True)
        cover = cli.run(["coverage", "--db", out / "db.qadb", "--gold", gold,
                         "--out", out / "coverage.json"], traced)
        cmds = [build, revise, cover]
        first = build_stats["first_request_at"]
        return {
            "dir": out, "build": build, "revise": revise, "cover": cover, "cmds": cmds,
            "build_stats": build_stats, "revise_stats": revise_stats,
            "wall": sum(c.wall for c in cmds),
            "rss_mb": max(c.rss_mb for c in cmds),
            "setups": [first - build.t_spawn] if first is not None else [],
            "items_per_s": n_passages / build.wall,
            "followup_items_per_s": n_rows / revise.wall,
            "item_ms": item_ms(revise),
        }

    server = ModelServer()
    try:
        passes = repeat(lambda i: one_pass(i, False), seconds / 2 if trace else seconds)
        traced = [one_pass(i, True) for i in range(len(passes))] if trace else []
    finally:
        server.stop()

    for p in passes + traced:
        result.attempted += n_passages + n_rows + n_gold
        result.failed += ((0 if p["build"].ok else n_passages) + (0 if p["revise"].ok else n_rows)
                          + (0 if p["cover"].ok else n_gold))
        if p["build"].ok and p["revise"].ok:
            result.errors += checks.check_remote_pass(p["dir"], inputs, revisions)
        if p["cover"].ok:
            got = json.loads((p["dir"] / "coverage.json").read_text())["coverage"]
            if got != coverage:
                result.errors.append(f"coverage {got} != in-process {coverage}")
    if result.failed or result.errors:
        return result

    if not trace:
        report_end_to_end(result, passes, {"answer_recall": coverage})
        return result

    def layers(p: dict) -> dict:
        build_stats, revise_stats = p["build_stats"], p["revise_stats"]
        requests = build_stats["requests"] + revise_stats["requests"]
        client = [s for c in p["cmds"] for s in c.spans if s[0] == "backend.generate_batch"]
        out = layer_values(p["cmds"], 0)
        out.update({
            "database.bytes_per_question":
                (p["dir"] / "db.qadb").stat().st_size / funnel["unique_questions"],
            "backend.requests_per_passage": build_stats["requests"] / n_passages,
            "backend.requests_per_row": revise_stats["requests"] / n_rows,
            "backend.prompts_per_request":
                (build_stats["prompts"] + revise_stats["prompts"]) / requests,
            "backend.bytes_per_passage":
                (build_stats["bytes_in"] + build_stats["bytes_out"]) / n_passages,
            "backend.client_s": sum(end - start for _, start, end, _, _ in client),
            "backend.server_busy_s": build_stats["busy_s"] + revise_stats["busy_s"],
            "backend.retries": requests - len(client),
            "backend.errors_5xx": build_stats["errors_5xx"] + revise_stats["errors_5xx"],
            "revision.rounds_per_row":
                sum(1 for s in p["revise"].spans if s[0] == "revision.revise_once") / n_rows,
            "construction.verified_per_detected": funnel["verified"] / funnel["detected"],
        })
        for stage in ("detected", "generated", "verified", "unique_questions"):
            out[f"construction.{stage}_per_passage"] = funnel[stage] / n_passages
        return out

    report_trace(result, passes, traced, layers)
    return result


# --- retrieve-sparse / retrieve-dense ------------------------------------


def retrieve(root: Path, work: Path, workload: str, seed: int, seconds: float,
             trace: bool, deadline: float) -> Result:
    mode, method = RETRIEVE[workload]
    result = Result()
    inputs = make_inputs("retrieval", work, seed)
    queries, gold = gen.retrieval_queries(inputs, seed)
    config = work / "retrieve.cfg"
    config.write_text(
        f"retrieval_mode = {mode}\nretrieval_method = {method}\n"
        f"k_questions = {K_QUESTIONS}\ntop_n = {TOP_N}\n"
        f"embedding_dim = {gen.EMBED_DIM}\nseed = {gen.EMBED_SEED}\n", encoding="utf-8")
    qfile, gfile = work / "queries.jsonl", work / "gold.jsonl"
    gen.write_jsonl(qfile, queries)
    gen.write_jsonl(gfile, gold)
    n = len(queries)
    embeddings = ["--embeddings", inputs / "vectors.qvec"] if mode == "dense" else []
    runs = fresh_dir(work / "passes")
    cli = Cli(root, runs, deadline)

    def one_pass(index: int, traced: bool) -> dict:
        out = runs / f"{'t' if traced else 'u'}{index}"
        out.mkdir(parents=True)
        found = cli.run(["retrieve", "--config", config, "--db", inputs / "db.qadb",
                         "--queries", qfile, "--out", out / "results.jsonl", *embeddings],
                        traced)
        scored = cli.run(["eval", "--task", "retrieval", "--results", out / "results.jsonl",
                          "--gold", gfile, "--corpus", inputs / "corpus.jsonl",
                          "--report", out / "recall.json"], traced)
        answering = sum(end - start for start, end in found.items)
        return {
            "dir": out, "found": found, "cmds": [found, scored],
            "wall": found.wall + scored.wall,
            "rss_mb": max(found.rss_mb, scored.rss_mb),
            "setups": [found.items[0][0] - found.t_spawn] if found.items else [],
            "items_per_s": n / found.wall,
            "followup_items_per_s": n / answering if answering else 0.0,  # 0: failed
            "item_ms": item_ms(found),
        }

    passes = repeat(lambda i: one_pass(i, False), seconds / 2 if trace else seconds)
    traced = [one_pass(i, True) for i in range(len(passes))] if trace else []

    recalls = set()
    for p in passes + traced:
        result.attempted += n
        if not all(cmd.ok for cmd in p["cmds"]):
            result.failed += n
            continue
        report = json.loads((p["dir"] / "recall.json").read_text())
        recalls.add(report["macro"]["recall@10"])
    if result.failed:
        return result
    if len(recalls) != 1:
        result.errors.append(f"recall@10 differs between passes: {sorted(recalls)}")

    rng = random.Random(f"check:{seed}")
    natural = queries[::gen.NATURAL_EVERY]
    keyword = [q for i, q in enumerate(queries) if i % gen.NATURAL_EVERY]
    sample = {q["query_id"] for q in rng.sample(natural, CHECK_NATURAL)
              + rng.sample(keyword, CHECK_KEYWORD)}
    brute = checks.BruteForce(inputs / "db.qadb",
                              inputs / "vectors.qvec" if mode == "dense" else None)
    picked = [q for q in queries if q["query_id"] in sample]
    for p in passes + traced:
        result.errors += checks.check_retrieval(p["dir"] / "results.jsonl", picked, brute,
                                                mode, method, K_QUESTIONS, TOP_N)
    if result.errors:
        return result

    if not trace:
        report_end_to_end(result, passes, {"answer_recall": recalls.pop()})
        return result
    report_trace(result, passes, traced, lambda p: layer_values(p["cmds"], n))
    return result


def run(workload: str, root: Path, seed: int, seconds: float, trace: bool) -> Result:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = root / "perfbench" / "_work"
    work.mkdir(parents=True, exist_ok=True)
    if workload == "gen-remote":
        return gen_remote(root, work, seed, seconds, trace, deadline)
    return retrieve(root, work, workload, seed, seconds, trace, deadline)
