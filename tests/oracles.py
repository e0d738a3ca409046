"""Independent brute-force reference implementations used only by tests.

Everything here is written from the definitions, not from the library
code: BM25 as a direct per-document loop, LCS as the recursive relation,
and the passage-aggregation rules as exhaustive loops over every
(passage, question) pair.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

_WORD = re.compile(r"\w+", re.UNICODE)


def word_tokens(text: str) -> list[str]:
    return _WORD.findall(text.lower())


def bm25_scores_direct(
    query: str, docs: list[str], k1: float = 1.2, b: float = 0.75
) -> list[float]:
    """Textbook BM25, one document at a time, no inverted index.

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)); every query token
    occurrence contributes.
    """
    doc_tokens = [word_tokens(d) for d in docs]
    n = len(doc_tokens)
    avgdl = sum(len(d) for d in doc_tokens) / n if n else 0.0
    query_tokens = word_tokens(query)
    scores = []
    for tokens in doc_tokens:
        score = 0.0
        if avgdl > 0:
            for q in query_tokens:
                tf = tokens.count(q)
                if tf == 0:
                    continue
                df = sum(1 for d in doc_tokens if q in d)
                idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(tokens) / avgdl))
        scores.append(score)
    return scores


def lcs_recursive(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """LCS length straight from the recurrence."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def rouge_l_oracle(candidate: str, references: list[str]) -> float:
    """ROUGE-L F1 from the recursive LCS, max over references, in [0, 100]."""
    cand = tuple(candidate.split())
    if not cand:
        return 0.0
    best = 0.0
    for reference in references:
        ref = tuple(reference.split())
        if not ref:
            continue
        lcs = lcs_recursive(cand, ref)
        if lcs == 0:
            continue
        p = lcs / len(cand)
        r = lcs / len(ref)
        best = max(best, 2 * p * r / (p + r))
    return 100.0 * best


def max_aggregation_oracle(db, hits) -> list[tuple[str, float]]:
    """Best hit score per passage via an exhaustive (passage, question) loop."""
    hit_scores = {hit.qid: hit.score for hit in hits}
    results = []
    passage_ids = sorted({pid for q in db.questions for pid in q.passage_ids})
    for pid in passage_ids:
        scores = [
            hit_scores[q.qid]
            for q in db.questions
            if pid in q.passage_ids and q.qid in hit_scores
        ]
        if scores:
            results.append((pid, max(scores)))
    results.sort(key=lambda kv: (-kv[1], kv[0]))
    return results


def count_aggregation_oracle(db, hits, k: int) -> list[tuple[str, int]]:
    """|GEN(p) ∩ top-k hits| per passage via exhaustive set intersection."""
    top = hits[:k]
    top_qids = {hit.qid for hit in top}
    hit_scores = {hit.qid: hit.score for hit in top}
    results = []
    passage_ids = sorted({pid for q in db.questions for pid in q.passage_ids})
    for pid in passage_ids:
        gen_qids = {q.qid for q in db.questions if pid in q.passage_ids}
        overlap = gen_qids & top_qids
        if overlap:
            tiebreak = max(hit_scores[qid] for qid in overlap)
            results.append((pid, len(overlap), tiebreak))
    results.sort(key=lambda row: (-row[1], -row[2], row[0]))
    return [(pid, count) for pid, count, _ in results]
