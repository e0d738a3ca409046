"""Question indexing and indirect passage retrieval.

A query is matched against *generated questions* (sparse BM25 or dense
inner product), and question hits are mapped onto passages through their
provenance: either the best-scoring generated question per passage
("max") or the number of a passage's questions inside the top-k hits
("count"). A direct passage-level index built with the same machinery
serves as the conventional retrieval baseline.
"""

from __future__ import annotations

import hashlib
import math
import re
import struct
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .database import QADatabase
from .errors import EmbeddingDimMismatch, ModeUnavailable

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_QUESTION_FETCH = 50

SPARSE = "sparse"
DENSE = "dense"

METHOD_MAX = "max"
METHOD_COUNT = "count"
METHOD_DIRECT = "direct"

_WORD = re.compile(r"\w+", re.UNICODE)

Embedder = Callable[[str], np.ndarray]


def tokenize(text: str) -> list[str]:
    """Lowercased Unicode word tokens; no stemming, no stopword removal."""
    return _WORD.findall(text.lower())


@dataclass(frozen=True)
class RetrievalHit:
    qid: int | str
    score: float
    rank: int


@dataclass(frozen=True)
class PassageScore:
    passage_id: str
    score: float
    method: str


class _Bm25:
    """Impact-ordered BM25 index with the non-negative idf variant.

    score(q, d) = sum over query token occurrences t of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
    with idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)). Every term is
    precomputed at build (Lin & Trotman, ICTIR 2015): token id t owns the
    ascending ``rows[offsets[t]:offsets[t + 1]]`` and their ``weights``.
    """

    def __init__(self, docs: Iterable[list[str]], k1: float = DEFAULT_K1, b: float = DEFAULT_B):
        self.token_ids: dict[str, int] = {}
        ids, lengths = [], []
        for doc in docs:
            ids += [self.token_ids.setdefault(token, len(self.token_ids)) for token in doc]
            lengths.append(len(doc))
        self.size = n = len(lengths)
        avgdl = sum(lengths) / n if n else 0.0
        doc_len = np.array(lengths, dtype=np.int64)
        # one int64 per token occurrence, token-major, so np.unique counts tf
        pairs = np.array(ids, dtype=np.int64) * n + np.repeat(np.arange(n), doc_len)
        pairs, tf = np.unique(pairs, return_counts=True)
        tokens, rows = np.divmod(pairs, n)
        self.offsets = np.searchsorted(tokens, np.arange(len(self.token_ids) + 1))
        self.rows = rows.astype(np.int32)
        # math.log, not np.log, which may round the last bit differently
        dfs = np.diff(self.offsets).tolist()
        idf = np.array([math.log(1.0 + (n - df + 0.5) / (df + 0.5)) for df in dfs])
        norm = k1 * (1 - b + b * doc_len[rows] / avgdl)
        self.weights = idf[tokens] * tf * (k1 + 1) / (tf + norm)

    def scores(self, query_tokens: Sequence[str]) -> np.ndarray:
        """``(row, score)`` records of the documents scoring > 0, by row.

        ``np.bincount`` adds the weights in query-token order, repeats
        included, so each sum rounds as a term-at-a-time loop's does.
        """
        spans = [slice(self.offsets[t], self.offsets[t + 1])
                 for t in map(self.token_ids.get, query_tokens) if t is not None]
        acc = np.bincount(np.concatenate([self.rows[:0], *(self.rows[s] for s in spans)]),
                          np.concatenate([self.weights[:0], *(self.weights[s] for s in spans)]),
                          minlength=self.size)
        rows = np.flatnonzero(acc > 0.0)
        found = np.empty(len(rows), dtype=[("row", np.intp), ("score", np.float64)])
        found["row"], found["score"] = rows, acc[rows]
        return found


class QuestionIndex:
    """Dual sparse/dense index over short texts keyed by stable ids.

    Built over generated questions for indirect retrieval, and reused
    over passage texts for the direct baseline.
    """

    def __init__(
        self,
        keys: Sequence[int | str],
        texts: Sequence[str],
        embedder: Embedder | None = None,
        *,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
        dense_vectors: np.ndarray | None = None,
    ):
        self.keys = tuple(keys)
        # the tie-break: rank[i] is the place of keys[i] in ascending key order
        order = sorted(range(len(self.keys)), key=self.keys.__getitem__)
        self.rank = np.argsort(order)  # the inverse permutation
        self.sparse = _Bm25((tokenize(t) for t in texts), k1=k1, b=b)
        self.embedder = embedder
        if dense_vectors is not None:
            if dense_vectors.shape[0] != len(self.keys):
                raise EmbeddingDimMismatch(
                    f"{dense_vectors.shape[0]} vectors for {len(self.keys)} texts"
                )
            self.dense: np.ndarray | None = _unit_rows(np.asarray(dense_vectors, dtype=np.float64))
        elif embedder is not None:
            self.dense = _unit_rows(_embed_all(embedder, texts))
        else:
            self.dense = None

    def embed_query(self, query: str) -> np.ndarray:
        if self.dense is None or self.embedder is None:
            raise ModeUnavailable("index has no dense vectors / query embedder")
        vector = np.asarray(self.embedder(query), dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != self.dense.shape[1]:
            raise EmbeddingDimMismatch(f"query vector dim {vector.shape} != {self.dense.shape[1]}")
        return _unit_rows(vector[None, :])[0]


def _embed_all(embedder: Embedder, texts: Sequence[str]) -> np.ndarray:
    vectors = [np.asarray(embedder(text), dtype=np.float64) for text in texts]
    shapes = sorted({v.shape for v in vectors})
    if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
        raise EmbeddingDimMismatch(f"embedder returned vectors of shapes {shapes}")
    return np.stack(vectors) if vectors else np.zeros((0, 0))


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms == 0.0, 1.0, norms)  # all-zero rows stay zero


def build_index(
    db: QADatabase,
    embedder: Embedder | None = None,
    *,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    dense_vectors: np.ndarray | None = None,
) -> QuestionIndex:
    """Index a question database; dense vectors only when an embedder is given."""
    qids = [q.qid for q in db.questions]
    texts = [q.question for q in db.questions]
    return QuestionIndex(qids, texts, embedder, k1=k1, b=b, dense_vectors=dense_vectors)


def build_passage_index(
    corpus: Corpus,
    embedder: Embedder | None = None,
    *,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> QuestionIndex:
    """Passage-text index for the direct retrieval baseline."""
    return QuestionIndex([p.id for p in corpus], [p.text for p in corpus], embedder, k1=k1, b=b)


def _top_k(scores: np.ndarray, rank: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best ``scores``, ordered (score desc, ``rank`` asc).

    A partition finds the k-th best score; only the entries at or above it
    are sorted, so ties at the boundary are cut by rank as a full sort would.
    """
    neg = -scores  # partitioning from the low end stays fast when few scores are high
    kth = np.partition(neg, k - 1)[k - 1] if k < len(neg) else np.inf
    picked = np.flatnonzero(neg <= kth)
    return picked[np.lexsort((rank[picked], neg[picked]))][:k]


def retrieve_questions(
    index: QuestionIndex, query: str, k: int, mode: str = SPARSE
) -> list[RetrievalHit]:
    """Top-k index entries for a query, ranked (score desc, key asc).

    Sparse mode returns only entries scoring > 0, so fewer than k hits is
    normal; dense mode returns min(k, index size) hits.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if mode == SPARSE:
        found = index.sparse.scores(tokenize(query))
        rows, scores = found["row"], found["score"]
    elif mode == DENSE:
        scores = index.dense @ index.embed_query(query)
        rows = np.arange(len(scores))
    else:
        raise ValueError(f"unknown retrieval mode {mode!r}")
    top = _top_k(scores, index.rank[rows], k)
    ranked = enumerate(zip(rows[top].tolist(), scores[top].tolist()), start=1)
    return [RetrievalHit(index.keys[row], score, rank) for rank, (row, score) in ranked]


def _credit(db: QADatabase, hits: Sequence[RetrievalHit]) -> tuple[dict, dict[str, float]]:
    """Per passage: how many of ``hits`` it generated, and its best hit score."""
    counts: dict[str, int] = {}
    best: dict[str, float] = {}
    for hit in hits:
        for pid in db.question(hit.qid).passage_ids:
            counts[pid] = counts.get(pid, 0) + 1
            if pid not in best or hit.score > best[pid]:
                best[pid] = hit.score
    return counts, best


def score_passages_max(db: QADatabase, hits: Sequence[RetrievalHit]) -> list[PassageScore]:
    """Passage score = best hit score among the passage's generated questions.

    Passages none of whose questions were hit are absent from the output.
    """
    ranked = sorted(_credit(db, hits)[1].items(), key=lambda kv: (-kv[1], kv[0]))
    return [PassageScore(pid, score, METHOD_MAX) for pid, score in ranked]


def score_passages_count(
    db: QADatabase, hits: Sequence[RetrievalHit], k: int = DEFAULT_QUESTION_FETCH
) -> list[PassageScore]:
    """Passage score = how many of the top-k hit questions it generated.

    A question generated from several passages counts once per passage.
    Ties break by the max-method score over the same top-k hits, then by
    passage id.
    """
    counts, best = _credit(db, [hit for hit in hits if hit.rank <= k])
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], -best[kv[0]], kv[0]))
    return [PassageScore(pid, float(count), METHOD_COUNT) for pid, count in ranked]


def retrieve_passages(
    index: QuestionIndex,
    db: QADatabase,
    query: str,
    *,
    method: str = METHOD_COUNT,
    top_n: int = 10,
    mode: str = SPARSE,
    k_questions: int = DEFAULT_QUESTION_FETCH,
    passage_index: QuestionIndex | None = None,
) -> list[PassageScore]:
    """Ranked passages for a query under the chosen aggregation method.

    Question-based methods fetch ``k_questions`` question hits before
    aggregation; the direct baseline needs a prebuilt ``passage_index``.
    """
    if method == METHOD_DIRECT:
        if passage_index is None:
            raise ModeUnavailable("direct method requires a passage index")
        hits = retrieve_questions(passage_index, query, top_n, mode)
        return [PassageScore(str(h.qid), h.score, METHOD_DIRECT) for h in hits]
    hits = retrieve_questions(index, query, k_questions, mode)
    if method == METHOD_MAX:
        return score_passages_max(db, hits)[:top_n]
    if method == METHOD_COUNT:
        return score_passages_count(db, hits, k_questions)[:top_n]
    raise ValueError(f"unknown aggregation method {method!r}")


def hashing_embedder(dim: int = 64, seed: int = 0) -> Embedder:
    """Deterministic feature-hashing text embedder for tests and demos.

    Token hashes (keyed by ``seed``) pick a bucket and a sign; equal text
    always embeds identically, across processes and platforms.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def embed(text: str) -> np.ndarray:
        vector = np.zeros(dim, dtype=np.float64)
        for token in tokenize(text):
            digest = hashlib.blake2b(f"{seed}:{token}".encode("utf-8"), digest_size=8).digest()
            value = int.from_bytes(digest, "little")
            vector[value % dim] += 1.0 if (value >> 32) & 1 else -1.0  # bucket, sign
        return vector

    return embed


_VEC_MAGIC = b"QVEC"


def save_vectors(path: str, matrix: np.ndarray) -> None:
    """Write embeddings: magic, (count, dim) header, float32 rows in key order."""
    mat = np.ascontiguousarray(matrix, dtype=np.float32)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {mat.shape}")
    with open(path, "wb") as fh:
        fh.write(_VEC_MAGIC + struct.pack("<II", *mat.shape))
        fh.write(mat.tobytes())


def load_vectors(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != _VEC_MAGIC:
        raise ValueError(f"{path}: not an embedding file")
    count, dim = struct.unpack("<II", blob[4:12])
    expected = 12 + 4 * count * dim
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(blob)}")
    return np.frombuffer(blob[12:], dtype=np.float32).reshape(count, dim).astype(np.float64)
