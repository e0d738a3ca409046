"""The benchmark's trace hooks wrap ``qadb`` functions by name; a rename that
breaks them must fail here, not only in a full benchmark run."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from fixtures import build_db
from qadb import QADatabase
from qadb.retrieval import hashing_embedder, save_vectors

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"

# Runs each argv through cli.main under both hooks; prints, per command, its
# exit code, the span names it entered, the per-item calls it timed and the
# BM25 candidates it counted.
CHILD = """
import json, sys
from perfbench import tracing
from qadb import cli

rec, items, runs = tracing.Recorder(), [], []
tracing.install_layer_spans(rec)
tracing.install_item_timer(items)
for argv in json.loads(sys.argv[1]):
    spans, timed, counted = len(rec.spans), len(items), rec.counters["retrieval.candidates"]
    code = cli.main(argv)
    names = sorted({span[0] for span in rec.spans[spans:]})
    runs.append({"exit": code, "spans": names, "items": len(items) - timed,
                 "candidates": rec.counters["retrieval.candidates"] - counted})
print(json.dumps(runs))
"""

BUILD = {"corpus.load", "construction.build_database", "construction.detect",
         "construction.generate", "construction.verify", "construction.merge", "database.save"}
QUERY = {"retrieval.retrieve_passages", "retrieval.retrieve_questions", "retrieval.aggregate"}
SPARSE = QUERY | {"retrieval.accumulate", "retrieval.tokenize"}
DENSE = QUERY | {"retrieval.load_vectors", "retrieval.embed_query"}
REVISE = {"corpus.load", "revision.revise_iterative", "revision.revise_once"}


def test_trace_hooks_run_every_benchmarked_command(tmp_path):
    for name in ("corpus.jsonl", "fixture.qadb", "queries.jsonl"):
        shutil.copyfile(DATA / name, tmp_path / name)
    questions = sorted(QADatabase.load(DATA / "fixture.qadb"), key=lambda q: q.qid)
    embed = hashing_embedder(16)
    save_vectors(str(tmp_path / "q.qvec"), np.stack([embed(q.question) for q in questions]))
    (tmp_path / "dense.cfg").write_text(
        "retrieval_mode = dense\nretrieval_method = max\nembedding_dim = 16\n"
    )
    rows = [{"question": q.question, "answer": q.answers[0].text,
             "passage_id": q.answers[0].passage_ids[0]} for q in questions[:3]]
    (tmp_path / "rows.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    # "what", "is", "the" and "of" in every question, as in the benchmark's database
    build_db([(f"p{i % 60}", f"a{i}", f"what is the relation{i % 5} of title{i % 60} facet{i}?")
              for i in range(240)]).save(tmp_path / "common.qadb")
    (tmp_path / "natural.jsonl").write_text(
        json.dumps({"query_id": "n1", "question": "what is the relation1 of title7?"}) + "\n")
    retrieve = ["retrieve", "--db", "fixture.qadb", "--queries", "queries.jsonl"]
    commands = [
        ["build-db", "--corpus", "corpus.jsonl", "--db", "built.qadb", "--checkpoint", "run.ckpt"],
        [*retrieve, "--out", "cold.jsonl"],
        [*retrieve, "--out", "warm.jsonl"],
        [*retrieve, "--out", "dense.jsonl", "--config", "dense.cfg", "--embeddings", "q.qvec"],
        ["retrieve", "--db", "common.qadb", "--queries", "natural.jsonl", "--out", "natural.out"],
        ["revise", "--corpus", "corpus.jsonl", "--questions", "rows.jsonl", "--out", "rev.jsonl"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    build, cold, warm, dense, natural, revise = json.loads(result.stdout.splitlines()[-1])
    runs = (build, cold, warm, dense, natural, revise)
    assert [run["exit"] for run in runs] == [0] * 6, result.stderr
    queries = len((DATA / "queries.jsonl").read_text().splitlines())

    assert BUILD <= set(build["spans"]) and build["items"] == 0
    assert SPARSE | {"database.load", "retrieval.build_index"} <= set(cold["spans"])
    assert SPARSE <= set(warm["spans"])
    assert DENSE <= set(dense["spans"])
    for run in (cold, warm, dense):
        assert run["items"] == queries
    # the image is built once; a loaded one parses no database
    assert "database.load" not in warm["spans"] + dense["spans"]
    # dense queries score no BM25 postings, sparse ones embed nothing
    assert "retrieval.accumulate" not in dense["spans"]
    assert not {"retrieval.load_vectors", "retrieval.embed_query"} & set(cold["spans"] + warm["spans"])
    assert REVISE <= set(revise["spans"]) and revise["items"] == len(rows)
    # the wrapped scores() still gets k: the 48 "relation1" rows and the 4 "title7"
    # rows are the candidates, where the full accumulate counts all 240
    assert SPARSE <= set(natural["spans"]) and natural["items"] == 1
    assert natural["candidates"] == 52
