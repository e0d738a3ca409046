"""Tests of the benchmark itself: generators, self-time arithmetic, server.

Run: ``PYTHONPATH=src python3 -m pytest -q perfbench/tests``
"""

from __future__ import annotations

import http.client
import json
import socketserver
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, gen, server, tracing, workloads  # noqa: E402


def _file_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# --- generators ------------------------------------------------------------


def test_remote_inputs_same_seed_same_bytes(tmp_path):
    a = gen.remote_inputs(tmp_path / "a", 5)
    b = gen.remote_inputs(tmp_path / "b", 5)
    c = gen.remote_inputs(tmp_path / "c", 6)
    assert _file_bytes(a) == _file_bytes(b)
    assert _file_bytes(a)["corpus.jsonl"] != _file_bytes(c)["corpus.jsonl"]


def test_remote_passages_have_fixed_shape():
    for row in gen.remote_corpus_rows(3):
        words = row["text"].split()
        assert len(words) == gen.PASSAGE_TOKENS
        assert sum(w[0].isupper() for w in words) == sum(gen.REMOTE_ENTITY_RUNS)


def test_retrieval_inputs_same_seed_same_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "N_QUESTIONS", 4000)
    monkeypatch.setattr(gen, "GOLD_SIZE_MIX", {2: 12, 3: 8})
    a = gen.retrieval_inputs(tmp_path / "a", 9)
    b = gen.retrieval_inputs(tmp_path / "b", 9)
    assert _file_bytes(a) == _file_bytes(b)
    assert gen.retrieval_queries(a, 9) == gen.retrieval_queries(b, 9)
    assert gen.retrieval_queries(a, 9) != gen.retrieval_queries(a, 13)  # same database


def test_retrieval_database_shape(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "N_QUESTIONS", 4000)
    monkeypatch.setattr(gen, "GOLD_SIZE_MIX", {2: 12, 3: 8})
    inputs = gen.retrieval_inputs(tmp_path, 2)
    header = json.loads((inputs / "db.qadb").read_text().splitlines()[0])
    assert header["question_count"] == 4000
    queries, gold = gen.retrieval_queries(inputs, 2)
    assert len(queries) == 20
    natural = [q for q in queries if q["question"].startswith("what is the ")]
    assert len(natural) == 20 // gen.NATURAL_EVERY
    sizes = [min(len(set(g["gold_answers"])), 3) for g in gold]  # the last stratum is open
    assert sizes == [2] * 12 + [3] * 8


def test_vectors_equal_hashing_embedder(tmp_path, monkeypatch):
    from qadb import QADatabase
    from qadb.retrieval import hashing_embedder, load_vectors

    monkeypatch.setattr(gen, "N_QUESTIONS", 4000)
    inputs = gen.retrieval_inputs(tmp_path, 1)
    db = QADatabase.load(inputs / "db.qadb")
    vectors = load_vectors(str(inputs / "vectors.qvec"))
    embed = hashing_embedder(gen.EMBED_DIM, gen.EMBED_SEED)
    for q in db.questions[::397]:
        assert (vectors[q.qid] == embed(q.question)).all()


def test_cache_keeps_newest_sets(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "CACHE_KEEP", 2)
    for seed in (1, 2, 3):
        gen.remote_inputs(tmp_path, seed)
    kept = sorted(p.name for p in (tmp_path / "inputs").iterdir())
    assert kept == [gen.inputs_dir("remote", tmp_path, s).name for s in (2, 3)]


# --- self-time arithmetic --------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 3.0, 0, None],
        ["b", 5.0, 6.0, 0, None],
        ["a.child", 1.5, 2.0, 1, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([7.0, 1.5, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 2.0, 6.0, 0, None],
        ["b", 4.0, 8.0, 0, None],  # overlaps a by 2
        ["c", 9.0, 12.0, 0, None],  # ends after its parent
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_process_root_makes_self_times_sum_to_wall():
    cmd = workloads.Command(t_spawn=100.0, wall=5.0, rss_mb=1.0, exit=0, spans=[
        ["cli.import", 100.2, 100.5, -1, None],
        ["cli.main", 100.5, 104.0, -1, None],
        ["database.load", 100.6, 102.0, 1, None],
    ])
    spans = workloads.process_spans(cmd)
    assert [s[3] for s in spans] == [-1, 0, 0, 2]
    assert sum(tracing.self_times(spans)) == pytest.approx(5.0)


# --- pass scheduling -------------------------------------------------------


def _fake_passes(monkeypatch, lengths: list[float]):
    """A pass function whose i-th pass takes ``lengths[i]`` seconds of a fake clock."""
    clock = [0.0]
    monkeypatch.setattr(workloads.time, "monotonic", lambda: clock[0])

    def one_pass(index):
        clock[0] += lengths[index]
        return {"cmds": [workloads.Command(0.0, lengths[index], 0.0, 0)]}

    return one_pass


def test_repeat_stops_before_a_pass_that_would_end_half_a_pass_late(monkeypatch):
    # 20 s passes in 35 s: the second would end 5 s late (< 10 s), a third 25 s late
    assert len(workloads.repeat(_fake_passes(monkeypatch, [20.0] * 5), 35.0)) == 2
    # 25 s passes: a second would end 15 s late (> 12.5 s)
    assert len(workloads.repeat(_fake_passes(monkeypatch, [25.0] * 5), 35.0)) == 1
    # short passes fill the time
    assert len(workloads.repeat(_fake_passes(monkeypatch, [5.0] * 20), 35.0)) == 7


def test_repeat_runs_once_even_past_the_time(monkeypatch):
    assert len(workloads.repeat(_fake_passes(monkeypatch, [50.0] * 3), 35.0)) == 1


def test_recorder_nests_spans_and_shares_item_ids():
    rec = tracing.Recorder()

    class Layer:
        @staticmethod
        def outer(x):
            return Layer.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    rec.wrap(Layer, "outer", "layer.outer", lambda x: f"item{x}")
    rec.wrap(Layer, "inner", "layer.inner")
    assert Layer.outer(3) == 7
    (o_name, o_start, o_end, o_parent, o_item), (i_name, i_start, i_end, i_parent, i_item) = rec.spans
    assert (o_name, o_parent, o_item) == ("layer.outer", -1, "item3")
    assert (i_name, i_parent, i_item) == ("layer.inner", 0, "item3")
    assert o_start <= i_start <= i_end <= o_end


# --- loopback server -------------------------------------------------------


@pytest.fixture
def loopback():
    srv = server.make_server()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _post(conn: http.client.HTTPConnection, payload: dict) -> tuple[int, bytes]:
    body = json.dumps(payload)
    conn.request("POST", "/generate", body=body, headers={"Content-Type": "application/json"})
    reply = conn.getresponse()
    return reply.status, reply.read()


def test_frame_reply_is_one_complete_http_message():
    framed = server.frame_reply(200, "OK", b'{"outputs": []}')
    head, _, body = framed.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    assert lines[0] == "HTTP/1.1 200 OK"
    assert "Content-Length: 15" in lines and "Connection: keep-alive" in lines
    assert body == b'{"outputs": []}'


def test_server_answers_on_one_connection_with_one_send_per_reply(loopback, monkeypatch):
    writes = []
    original = socketserver._SocketWriter.write
    monkeypatch.setattr(socketserver._SocketWriter, "write",
                        lambda self, b: writes.append(bytes(b)) or original(self, b))
    conn = http.client.HTTPConnection("127.0.0.1", loopback.server_address[1], timeout=10)
    p1 = {"inputs": ["context: Ann Arbor hosts games"], "max_candidates": 4,
          "decode_mode": "beam"}
    p2 = {"inputs": ["question: what is Ann of X? context: Ann Arbor",
                     "answer: Ann title: T context: Ann Arbor"],
          "max_candidates": 1, "decode_mode": "greedy"}
    status1, body1 = _post(conn, p1)
    status2, body2 = _post(conn, p2)
    # the single-threaded server answers this only after finishing the
    # bookkeeping of the previous request, as the benchmark relies on
    conn.request("GET", "/stats")
    counters = json.loads(conn.getresponse().read())
    conn.close()
    assert (status1, status2) == (200, 200)
    assert json.loads(body1)["outputs"][0][:2] == ["Ann Arbor", "Ann"]
    assert len(json.loads(body2)["outputs"]) == 2
    assert len(writes) == 3 and all(w.startswith(b"HTTP/1.1 200 OK\r\n") for w in writes)
    assert counters["requests"] == 2 and counters["prompts"] == 3
    assert counters["bytes_in"] == len(json.dumps(p1)) + len(json.dumps(p2))
    assert counters["bytes_out"] == len(body1) + len(body2)
    assert counters["errors_5xx"] == 0 and counters["busy_s"] > 0
    assert counters["first_request_at"] is not None


def test_server_counts_5xx_and_rejects_bad_requests(loopback):
    class Broken:
        def generate(self, request):
            raise RuntimeError("model crashed")

    conn = http.client.HTTPConnection("127.0.0.1", loopback.server_address[1], timeout=10)
    assert _post(conn, {"inputs": "not a list"})[0] == 400
    loopback.backend = Broken()
    assert _post(conn, {"inputs": ["context: x"], "max_candidates": 1})[0] == 500
    conn.request("GET", "/stats")
    counters = json.loads(conn.getresponse().read())
    conn.close()
    assert counters["errors_5xx"] == 1 and counters["requests"] == 2


def test_stats_endpoint_resets(loopback):
    conn = http.client.HTTPConnection("127.0.0.1", loopback.server_address[1], timeout=10)
    _post(conn, {"inputs": ["context: Ann Arbor"], "max_candidates": 1})
    conn.request("GET", "/stats?reset=1")
    assert json.loads(conn.getresponse().read())["requests"] == 1
    conn.request("GET", "/stats")
    assert json.loads(conn.getresponse().read())["requests"] == 0
    conn.close()


# --- checks and the benchmark definition -----------------------------------


def test_brute_force_matches_qadb_retrieval(tmp_path, monkeypatch):
    from qadb import QADatabase
    from qadb.retrieval import build_index, hashing_embedder, load_vectors, retrieve_passages

    monkeypatch.setattr(gen, "N_QUESTIONS", 4000)
    monkeypatch.setattr(gen, "GOLD_SIZE_MIX", {2: 4, 3: 4})
    inputs = gen.retrieval_inputs(tmp_path, 4)
    queries, _ = gen.retrieval_queries(inputs, 4)
    db = QADatabase.load(inputs / "db.qadb")
    index = build_index(db, hashing_embedder(64, 0),
                        dense_vectors=load_vectors(str(inputs / "vectors.qvec")))
    for mode, method in workloads.RETRIEVE.values():
        brute = checks.BruteForce(inputs / "db.qadb",
                                  inputs / "vectors.qvec" if mode == "dense" else None)
        for q in queries:
            got = [(p.passage_id, p.score) for p in retrieve_passages(
                index, db, q["question"], method=method, mode=mode, top_n=10, k_questions=50)]
            want = brute.rows(q["question"], mode, method, 50, 20)
            assert checks.rows_match(got, want, 10)


def test_rows_match_allows_only_rounding_ties():
    want = [("a", 3.0, (3, 0.5)), ("b", 2.0, (2, 0.4)), ("c", 2.0, (2, 0.4 + 1e-13)),
            ("d", 2.0, (2, 0.3))]
    assert checks.rows_match([("a", 3.0), ("c", 2.0), ("b", 2.0)], want, 3)
    assert checks.rows_match([("a", 3.0), ("c", 2.0)], want, 2)  # tie cut by top_n
    assert not checks.rows_match([("a", 3.0), ("b", 2.0), ("d", 2.0)], want, 3)
    assert not checks.rows_match([("a", 3.0), ("b", 2.0)], want, 3)
    assert not checks.rows_match([("a", 3.0), ("b", 2.5), ("c", 2.0)], want, 3)
    exact = [("a", 1.0, (1, 0.5)), ("b", 1.0, (1, 0.5))]
    assert not checks.rows_match([("b", 1.0), ("a", 1.0)], exact, 2)  # equal keys: id order


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) == {"gen-remote", *workloads.RETRIEVE}
