"""Output checks, run outside the timed region; any failure fails the run.

* gen-remote: the database a pass built through the loopback server must
  be byte-equal to an in-process ``StubBackend`` build of the same corpus,
  its funnel report equal to that build's report, and its revise records
  equal to an in-process revise of the same rows.
* retrieve-*: for a seeded sample of queries, the CLI's result rows must
  equal an independent brute-force recomputation: every question scored,
  ranked by (score desc, qid asc), cut to k, then aggregated, with scores
  within 1e-9. The recomputation shares no code with ``qadb.retrieval``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-9
_WORD = re.compile(r"\w+")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def body_rows(path: Path) -> list[dict]:
    """Records of a CLI output file, without its header line."""
    return [row for row in read_jsonl(path) if "header" not in row]


# --- gen-remote ----------------------------------------------------------


def reference_revisions(inputs: Path) -> list[dict]:
    """In-process stub revise of the benchmark's revise rows, with the CLI's defaults."""
    from qadb import StubBackend, load_corpus
    from qadb.config import RunConfig
    from qadb.revision import revise_iterative

    corpus = load_corpus(str(inputs / "corpus.jsonl"))
    rounds = RunConfig().max_revision_rounds
    return [
        revise_iterative(r["question"], r["answer"], corpus[r["passage_id"]], StubBackend(),
                         rounds).to_record()
        for r in read_jsonl(inputs / "rows.jsonl")
    ]


def check_remote_pass(pass_dir: Path, inputs: Path, revisions: list[dict]) -> list[str]:
    errors = []
    if (pass_dir / "db.qadb").read_bytes() != (inputs / "reference.qadb").read_bytes():
        errors.append("remote database differs from the in-process stub build")
    report = json.loads((pass_dir / "db.qadb.report.json").read_text(encoding="utf-8"))
    report.pop("fingerprint")  # hashes the endpoint, which differs by design
    reference = json.loads((inputs / "reference.funnel.json").read_text(encoding="utf-8"))
    if report != reference:
        errors.append(f"funnel report {report} != stub build {reference}")
    if body_rows(pass_dir / "revised.jsonl") != revisions:
        errors.append("remote revise records differ from the in-process stub revise")
    return errors


# --- retrieve-* ----------------------------------------------------------


def embed(text: str, dim: int, seed: int) -> np.ndarray:
    """Feature hashing as the README specifies: blake2b bucket and sign per token."""
    vector = np.zeros(dim)
    for token in _WORD.findall(text.lower()):
        value = int.from_bytes(
            hashlib.blake2b(f"{seed}:{token}".encode(), digest_size=8).digest(), "little"
        )
        vector[value % dim] += 1.0 if (value >> 32) & 1 else -1.0
    return vector


def _unit(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    return matrix / np.where(norms == 0.0, 1.0, norms)


class BruteForce:
    """Exhaustive scorer over every question of a saved database.

    With ``vectors_path`` it scores dense, otherwise BM25.
    """

    def __init__(self, db_path: Path, vectors_path: Path | None = None,
                 k1: float = 1.2, b: float = 0.75):
        self.k1, self.b = k1, b
        self.qids: list[int] = []
        self.passages: list[set[str]] = []
        docs: list[list[str]] = []
        with open(db_path, encoding="utf-8") as fh:
            next(fh)  # header
            for line in fh:
                record = json.loads(line)
                self.qids.append(record["qid"])
                self.passages.append(
                    {pid for a in record["answers"] for pid in a["passage_ids"]}
                )
                docs.append(_WORD.findall(record["question"].lower()))
        self.doc_len = np.array([len(d) for d in docs], dtype=np.float64)
        self.avgdl = sum(len(d) for d in docs) / len(docs)
        self.postings: dict[str, dict[int, int]] = {}
        self.vectors = None
        if vectors_path is None:  # sparse
            for i, doc in enumerate(docs):
                for token in doc:
                    slot = self.postings.setdefault(token, {})
                    slot[i] = slot.get(i, 0) + 1
        else:
            blob = Path(vectors_path).read_bytes()
            count, dim = struct.unpack("<II", blob[4:12])
            raw = np.frombuffer(blob[12:], dtype=np.float32).reshape(count, dim)
            self.vectors = _unit(raw.astype(np.float64))

    def bm25(self, query: str) -> np.ndarray:
        scores = np.zeros(len(self.qids))
        n = len(self.qids)
        for token in _WORD.findall(query.lower()):
            plist = self.postings.get(token)
            if not plist:
                continue
            df = len(plist)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            docs = np.fromiter(plist.keys(), dtype=np.int64, count=df)
            tf = np.fromiter(plist.values(), dtype=np.float64, count=df)
            norm = self.k1 * (1 - self.b + self.b * self.doc_len[docs] / self.avgdl)
            scores[docs] += idf * tf * (self.k1 + 1) / (tf + norm)
        return scores

    def rows(self, query: str, mode: str, method: str, k: int, top_n: int,
             dim: int = 64, seed: int = 0) -> list[tuple[str, float, tuple]]:
        """Ranked ``(passage id, score, sort key)``; the key is what ``ties`` compares."""
        if mode == "sparse":
            scores = self.bm25(query)
            candidates = np.flatnonzero(scores > 0.0)
        else:
            scores = self.vectors @ _unit(embed(query, dim, seed))
            candidates = np.arange(len(scores))
        qids = np.array(self.qids)[candidates]
        order = np.lexsort((qids, -scores[candidates]))[:k]
        hits = [(float(scores[candidates[i]]), candidates[i]) for i in order]
        best: dict[str, float] = {}
        count: dict[str, int] = {}
        for score, doc in hits:
            for pid in self.passages[doc]:
                count[pid] = count.get(pid, 0) + 1
                best[pid] = max(best.get(pid, -math.inf), score)
        if method == "count":
            ranked = sorted(count, key=lambda p: (-count[p], -best[p], p))
            return [(p, float(count[p]), (count[p], best[p])) for p in ranked[:top_n]]
        ranked = sorted(best, key=lambda p: (-best[p], p))
        return [(p, best[p], (best[p],)) for p in ranked[:top_n]]


def _ties(a: tuple, b: tuple) -> bool:
    """Sort keys equal up to float rounding: counts exactly, scores within SCORE_TOL."""
    return all(x == y if isinstance(x, int) else abs(x - y) <= SCORE_TOL for x, y in zip(a, b))


def rows_match(got: list[tuple[str, float]], want: list[tuple[str, float, tuple]],
               top_n: int) -> bool:
    """CLI rows equal the brute-force ranking, scores within SCORE_TOL.

    Entries whose sort keys differ only by float rounding may come in
    either order: the two sides compute the same sums on different arrays,
    where BLAS may round the last bit differently. Exactly equal keys must
    still be broken by passage id. ``want`` runs past ``top_n``
    so that a tie group cut by the top_n boundary is seen whole.
    """
    if len(got) != min(len(want), top_n):
        return False
    if any(abs(g_score - w_score) > SCORE_TOL
           for (_, g_score), (_, w_score, _) in zip(got, want)):
        return False
    start = 0
    while start < len(got):
        end = start + 1
        while end < len(want) and _ties(want[end][2], want[start][2]):
            end += 1
        key_of = {pid: key for pid, _, key in want[start:end]}
        mine = [pid for pid, _ in got[start:end]]
        if not set(mine) <= set(key_of):
            return False
        # exactly equal keys still break by passage id, ascending
        if any(key_of[a] == key_of[b] and a > b for i, a in enumerate(mine) for b in mine[i + 1:]):
            return False
        start = end
    return True


def check_retrieval(results: Path, queries: list[dict], brute: BruteForce,
                    mode: str, method: str, k: int, top_n: int) -> list[str]:
    """Compare the CLI's rows for ``queries`` with the brute-force rows."""
    by_query: dict[str, list[tuple[int, str, float]]] = {}
    for row in body_rows(results):
        by_query.setdefault(row["query_id"], []).append(
            (row["rank"], row["passage_id"], row["score"])
        )
    errors = []
    for query in queries:
        got = [(pid, score) for _, pid, score in sorted(by_query.get(query["query_id"], []))]
        want = brute.rows(query["question"], mode, method, k, 2 * top_n)
        if not rows_match(got, want, top_n):
            errors.append(f"{query['query_id']}: CLI rows {got[:3]}... != brute force "
                          f"{[w[:2] for w in want[:3]]}...")
    return errors
