"""Question indexing and indirect passage retrieval.

A query is matched against *generated questions* (sparse BM25 or dense
inner product), and question hits are mapped onto passages through their
provenance: either the best-scoring generated question per passage
("max") or the number of a passage's questions inside the top-k hits
("count"). A direct passage-level index built with the same machinery
serves as the conventional retrieval baseline. A database's index is kept
as an array image next to its file (``open_index``), so later processes
query it without parsing the database.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
import struct
import sys
import zipfile
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import jsonl
from .corpus import Corpus
from .database import QADatabase
from .errors import ContractViolation, EmbeddingDimMismatch, ModeUnavailable, NonFiniteVectors

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_QUESTION_FETCH = 50
IMAGE_VERSION = 2  # bump when tokenize() or the arrays of QuestionIndex change

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
    precomputed at build (Lin & Trotman, ICTIR 2015): token ``vocab[t]``
    owns the ascending ``rows[offsets[t]:offsets[t + 1]]`` and their ``weights``.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        self.token_ids = {token: t for t, token in enumerate(arrays["vocab"].tolist())}
        self.offsets, self.rows, self.weights = arrays["offsets"], arrays["rows"], arrays["weights"]
        self.size = int(arrays["size"])

    @staticmethod
    def build(docs: Iterable[list[str]], k1: float, b: float) -> dict[str, np.ndarray]:
        """The arrays ``__init__`` reads, for tokenized ``docs``."""
        token_ids: dict[str, int] = {}
        ids, lengths = [], []
        for doc in docs:
            ids += [token_ids.setdefault(token, len(token_ids)) for token in doc]
            lengths.append(len(doc))
        n = len(lengths)
        avgdl = sum(lengths) / n if n else 0.0
        doc_len = np.array(lengths, dtype=np.int64)
        # one int64 per token occurrence, token-major, so np.unique counts tf
        pairs = np.array(ids, dtype=np.int64) * n + np.repeat(np.arange(n), doc_len)
        pairs, tf = np.unique(pairs, return_counts=True)
        tokens, rows = np.divmod(pairs, n)
        offsets = np.searchsorted(tokens, np.arange(len(token_ids) + 1))
        # math.log, not np.log, which may round the last bit differently
        dfs = np.diff(offsets).tolist()
        idf = np.array([math.log(1.0 + (n - df + 0.5) / (df + 0.5)) for df in dfs])
        norm = k1 * (1 - b + b * doc_len[rows] / avgdl)
        return {"vocab": np.array(list(token_ids), dtype=str), "offsets": offsets,
                "rows": rows.astype(np.int32), "size": np.array(n),
                "weights": idf[tokens] * tf * (k1 + 1) / (tf + norm)}

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
    over passage texts for the direct baseline. It runs from ``arrays``
    alone, made by ``index_arrays`` or loaded by ``open_index``; the BM25
    arrays are read at the first sparse query. Row i, the i-th smallest key, credits
    ``passages[passage_cols[passage_offsets[i]:passage_offsets[i + 1]]]``.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray], embedder: Embedder | None = None, *,
                 dense_vectors: np.ndarray | None = None):
        self.arrays = arrays  # an NpzFile reads a member each time it is indexed
        self.keys = arrays["keys"]
        # Python lists: aggregation reads a few items of each per hit
        self.passages, self.passage_offsets, self.passage_cols = (
            arrays[name].tolist() for name in ("passages", "passage_offsets", "passage_cols"))
        self.embedder = embedder
        # dense rows as given (float32 stays float32), their float64 norms, float32 unit rows
        self.vectors = self.norms = self.screen = None
        if dense_vectors is not None:
            width = dense_vectors.shape[1] if embedder is None else np.size(embedder(""))
            if dense_vectors.shape != (len(self.keys), width):
                raise EmbeddingDimMismatch(
                    f"vectors of shape {dense_vectors.shape}, expected {(len(self.keys), width)}")
            self.vectors = dense_vectors
        elif embedder is not None:
            data, ends = arrays["text_utf8"].tobytes(), arrays["text_offsets"].tolist()
            texts = [data[a:z].decode("utf-8") for a, z in zip(ends, ends[1:])]
            self.vectors = _embed_all(embedder, texts)
        if self.vectors is not None:
            self.norms, self.screen = _norms_and_screen(self.vectors)

    @cached_property
    def sparse(self) -> _Bm25:
        return _Bm25(self.arrays)

    def embed_query(self, query: str) -> np.ndarray:
        if self.vectors is None or self.embedder is None:
            raise ModeUnavailable("index has no dense vectors / query embedder")
        vector = np.asarray(self.embedder(query), dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != self.vectors.shape[1]:
            raise EmbeddingDimMismatch(f"query vector dim {vector.shape} != {self.vectors.shape[1]}")
        return vector / _row_norms(vector[None, :])[0]


def index_arrays(keys: Sequence[int | str], texts: Sequence[str],
                 sources: Sequence[Collection[str]] | None = None, *,
                 k1: float, b: float) -> dict[str, np.ndarray]:
    """``QuestionIndex.arrays`` for entries ``keys[i]``, strictly ascending, with ``texts[i]``;
    entry i credits each passage in ``sources[i]`` once, and none without ``sources``."""
    sources = [()] * len(keys) if sources is None else sources
    if len(sources) != len(keys):
        raise ValueError(f"{len(sources)} sources for {len(keys)} keys")
    keys = np.array(keys)
    if (keys[1:] <= keys[:-1]).any():
        raise ValueError("keys must ascend")
    table = sorted(set().union(*sources))
    col = {pid: c for c, pid in enumerate(table)}
    sizes = [len(set(pids)) for pids in sources]
    blobs = [text.encode("utf-8") for text in texts]
    return {
        "keys": keys,
        "passages": np.array(table, dtype=str),
        "passage_offsets": np.cumsum([0, *sizes]),
        # ascending within an entry, as ``table`` is sorted
        "passage_cols": np.fromiter((col[pid] for pids in sources for pid in sorted(set(pids))),
                                    np.int32, sum(sizes)),
        "text_utf8": np.frombuffer(b"".join(blobs), dtype=np.uint8),
        "text_offsets": np.cumsum([0, *map(len, blobs)]),
        **_Bm25.build(map(tokenize, texts), k1, b),
    }


def _embed_all(embedder: Embedder, texts: Sequence[str]) -> np.ndarray:
    vectors = [np.asarray(embedder(text), dtype=np.float64) for text in texts]
    shapes = sorted({v.shape for v in vectors})
    if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
        raise EmbeddingDimMismatch(f"embedder returned vectors of shapes {shapes}")
    # no texts: the width a query vector will have
    return np.stack(vectors) if vectors else np.zeros((0, np.size(embedder(""))))


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    return np.where(norms == 0.0, 1.0, norms)  # all-zero rows stay zero when divided


def _norms_and_screen(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64 ``_row_norms`` of ``vectors`` and their float32 unit rows, made a
    block of rows at a time, so no float64 copy of the whole matrix is held."""
    norms, screen = np.empty(len(vectors)), np.empty(vectors.shape, dtype=np.float32)
    for start in range(0, len(vectors), 4096):
        block, rows = vectors[start:start + 4096].astype(np.float64), slice(start, start + 4096)
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        if len(bad):
            raise NonFiniteVectors(f"vector row {start + bad[0]} holds NaN or infinity")
        norms[rows] = _row_norms(block)
        screen[rows] = block / norms[rows, None]
    return norms, screen


def build_index(db: QADatabase, embedder: Embedder | None = None, *, k1: float = DEFAULT_K1,
                b: float = DEFAULT_B, dense_vectors: np.ndarray | None = None) -> QuestionIndex:
    """Index a question database; dense vectors only when an embedder is given."""
    questions = db.questions
    # a lone answer's tuple, not a new set per question, spares the GC passes over the database
    sources = [q.answers[0].passage_ids if len(q.answers) == 1 else q.passage_ids
               for q in questions]
    arrays = index_arrays([q.qid for q in questions], [q.question for q in questions], sources,
                          k1=k1, b=b)
    return QuestionIndex(arrays, embedder, dense_vectors=dense_vectors)


def open_index(db_path: str | Path, embedder: Embedder | None = None, *, k1: float = DEFAULT_K1,
               b: float = DEFAULT_B, dense_vectors: np.ndarray | None = None) -> QuestionIndex:
    """The index of the database file ``db_path``, kept in its image ``<db_path>.index.npz``.

    The image is keyed by the database bytes, ``k1``, ``b`` and ``IMAGE_VERSION``.
    One that is missing, of another key or unreadable is never read: the index
    is built from the database and the image replaced, or a warning says it was not.
    """
    image = f"{db_path}.index.npz"
    with open(db_path, "rb") as fh:
        digest = hashlib.blake2b()
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
        key = f"qadb index v{IMAGE_VERSION} k1={k1!r} b={b!r} blake2b={digest.hexdigest()}"
        try:
            with ExitStack() as stack:  # closes the image unless the index returned reads it
                arrays = np.lib.npyio.NpzFile(stack.enter_context(open(image, "rb")),
                                              own_fid=True, allow_pickle=False)
                if arrays["key"].item() == key:
                    index = QuestionIndex(arrays, embedder, dense_vectors=dense_vectors)
                    stack.pop_all()
                    return index
        except ContractViolation:  # the vectors given, not the image, are at fault
            raise
        except (OSError, EOFError, LookupError, ValueError, zipfile.BadZipFile):
            pass
        # Parse the very bytes just hashed, even if the file was replaced since.
        fh.seek(0)
        db = io.TextIOWrapper(fh, encoding="utf-8")
        index = build_index(QADatabase.load(db), embedder, k1=k1, b=b, dense_vectors=dense_vectors)
    try:
        with jsonl.replacing(image) as fh:
            np.savez(fh, key=np.array(key), **index.arrays)
    except OSError as exc:
        print(f"warning: {image} not written, the next retrieve rebuilds it: {exc}", file=sys.stderr)
    return index


def build_passage_index(corpus: Corpus, embedder: Embedder | None = None, *,
                        k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> QuestionIndex:
    """Passage-text index for the direct retrieval baseline."""
    ids = sorted(corpus.ids)
    return QuestionIndex(index_arrays(ids, [corpus[pid].text for pid in ids], k1=k1, b=b), embedder)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best ``scores``, ordered (score desc, position asc).

    A partition finds the k-th best score; only the entries at or above it
    are sorted, so ties at the boundary are cut by position as a full sort would.
    """
    neg = -scores  # partitioning from the low end stays fast when few scores are high
    kth = np.partition(neg, k - 1)[k - 1] if k < len(neg) else np.inf
    picked = np.flatnonzero(neg <= kth)
    return picked[np.argsort(neg[picked], kind="stable")][:k]


def _screen_margin(dim: int) -> float:
    """How far below the k-th float32 screen score a row of the exact top k can screen.

    With u = 2**-24, let r and q be a row's and the query's float64 unit vectors
    (norms below 1 + 2**-30 for dim <= 2**20). The exact dot product fl32(r).fl32(q)
    is within (2u + u*u)|r||q| of r.q, plus 2**-150 per subnormal entry. Summing it
    in float32 in any order adds gamma = dim*u / (1 - dim*u) times the sum of |terms|
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, Thm 3.1), plus
    2**-150 per product that underflows. The float64 score is within 1.01*dim*2**-53
    of r.q, and 1.01 covers the second-order terms. So |screen - score| <= bound. The
    k rows screening at least kth all score at least kth - bound, so every row of the
    exact top k, ties included, screens at least kth - 2 * bound. The last 2u covers
    rounding kth - margin to float32, as |kth| < 1.07 and margin < 0.3.
    """
    u = 2.0 ** -24
    if dim > 2 ** 20:
        return math.inf  # keep every row
    gamma = dim * u / (1 - dim * u)
    bound = 1.01 * (gamma + 3 * u) + 1.01 * dim * 2.0 ** -53 + 4 * dim * 2.0 ** -150
    return 2 * bound + 2 * u


def _dense_scores(index: QuestionIndex, query: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows that may reach the top k for ``query``, ascending, with exact float64 scores:
    a float32 screen of every row, then a rescoring of the rows within its error margin."""
    vector = index.embed_query(query)
    rows = np.arange(len(index.keys))
    if k < len(rows):
        screened = index.screen @ vector.astype(np.float32)
        kth = -np.partition(-screened, k - 1)[k - 1]  # from the low end, as _top_k
        rows = np.flatnonzero(screened >= kth - _screen_margin(len(vector)))
    # OpenBLAS runs a gemv of under 9,216 entries on one thread, and scores a row in a
    # group of 4 rows differently from a leftover row; blocks of one height that is a
    # multiple of 4, padded with zero rows, score a row alike wherever it sits
    height = max(4, 8192 // max(1, len(vector)) // 4 * 4)
    block = np.zeros((height, len(vector)))
    scores = np.empty(len(rows))
    for start in range(0, len(rows), height):
        part = rows[start:start + height]
        block[len(part):] = 0.0
        np.divide(index.vectors[part], index.norms[part, None], out=block[:len(part)])
        scores[start:start + len(part)] = (block @ vector)[:len(part)]
    return rows, scores


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
        rows, scores = _dense_scores(index, query, k)
    else:
        raise ValueError(f"unknown retrieval mode {mode!r}")
    top = _top_k(scores, k)  # rows ascend, and so do their keys
    ranked = enumerate(zip(index.keys[rows[top]].tolist(), scores[top].tolist()), start=1)
    return [RetrievalHit(key, score, rank) for rank, (key, score) in ranked]


def _credit(index: QuestionIndex, hits: Sequence[RetrievalHit]) -> tuple[dict, dict[int, float]]:
    """Per passage column of ``index.passages``: how many of ``hits`` it
    generated, and its best hit score. A plain loop: at 50 hits, numpy's
    per-call cost made a vectorized version twice as slow."""
    counts: dict[int, int] = {}
    best: dict[int, float] = {}
    offsets, cols = index.passage_offsets, index.passage_cols
    qids = [hit.qid for hit in hits]
    rows = np.searchsorted(index.keys, qids)
    if not np.array_equal(index.keys[rows[rows < len(index.keys)]], qids):
        raise KeyError(f"hits the index lacks among {qids}")
    for row, hit in zip(rows.tolist(), hits):
        for col in cols[offsets[row]:offsets[row + 1]]:
            counts[col] = counts.get(col, 0) + 1
            if col not in best or hit.score > best[col]:
                best[col] = hit.score
    return counts, best


def score_passages_max(index: QuestionIndex, hits: Sequence[RetrievalHit]) -> list[PassageScore]:
    """Passage score = best hit score among the passage's generated questions.

    Passages none of whose questions were hit are absent from the output.
    """
    best = _credit(index, hits)[1]
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))  # columns ascend with ids
    return [PassageScore(index.passages[col], score, METHOD_MAX) for col, score in ranked]


def score_passages_count(
    index: QuestionIndex, hits: Sequence[RetrievalHit], k: int = DEFAULT_QUESTION_FETCH
) -> list[PassageScore]:
    """Passage score = how many of the top-k hit questions it generated.

    A question generated from several passages counts once per passage.
    Ties break by the max-method score over the same top-k hits, then by
    passage id.
    """
    counts, best = _credit(index, [hit for hit in hits if hit.rank <= k])
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], -best[kv[0]], kv[0]))
    return [PassageScore(index.passages[col], float(n), METHOD_COUNT) for col, n in ranked]


def retrieve_passages(
    index: QuestionIndex,
    query: str,
    *former: str,
    method: str = METHOD_COUNT,
    top_n: int = 10,
    mode: str = SPARSE,
    k_questions: int = DEFAULT_QUESTION_FETCH,
) -> list[PassageScore]:
    """Ranked passages for a query under the chosen aggregation method.

    Question-based methods fetch ``k_questions`` question hits before
    aggregation; for the direct baseline ``index`` is a passage index.
    The former call ``(index, db, query)`` still works; ``db`` goes unread.
    """
    if former:
        (query,) = former
    if method == METHOD_DIRECT:
        hits = retrieve_questions(index, query, top_n, mode)
        return [PassageScore(str(h.qid), h.score, METHOD_DIRECT) for h in hits]
    hits = retrieve_questions(index, query, k_questions, mode)
    if method == METHOD_MAX:
        return score_passages_max(index, hits)[:top_n]
    if method == METHOD_COUNT:
        return score_passages_count(index, hits, k_questions)[:top_n]
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
    return np.frombuffer(blob, dtype=np.float32, offset=12).reshape(count, dim)
