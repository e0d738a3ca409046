"""Regenerate the committed CLI fixtures under tests/data/.

The golden retrieval file is produced by the brute-force oracle (direct
BM25 scoring plus exhaustive count aggregation), not by the library's
retrieval path, so the CLI test checks the whole pipeline against an
independent computation. Run from the repository root:

    python3 tests/make_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from fixtures import make_diversity_corpus  # noqa: E402
from oracles import bm25_scores_direct, count_aggregation_oracle  # noqa: E402

from qadb.backend import StubBackend  # noqa: E402
from qadb.config import RunConfig  # noqa: E402
from qadb.construction import build_database  # noqa: E402
from qadb.corpus import save_corpus  # noqa: E402

DATA = Path(__file__).parent / "data"

CONFIG_TEXT = """\
# retrieval fixture: count aggregation over sparse question hits
retrieval_method = count
retrieval_mode = sparse
k_questions = 50
top_n = 5
"""

QUERIES = [
    {"query_id": "amb-1", "question": "where is the home stadium of the michigan wolverines?"},
    {"query_id": "amb-2", "question": "which arena hosts michigan wolverines basketball?"},
]

GOLD = [
    {
        "query_id": "amb-1",
        "question": "where is the home stadium of the michigan wolverines?",
        "gold_answers": ["Michigan Stadium", "Crisler Center", "Yost Ice Arena"],
    },
    {
        "query_id": "amb-2",
        "question": "which arena hosts michigan wolverines basketball?",
        "gold_answers": ["Crisler Center"],
    },
]


def dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def oracle_count_rows(db, query_id: str, question: str, k: int, top_n: int) -> list[dict]:
    """Top-n count-method rows computed entirely by the test oracles."""
    from qadb.retrieval import RetrievalHit

    texts = [q.question for q in db.questions]
    scores = bm25_scores_direct(question, texts)
    positive = [(q.qid, s) for q, s in zip(db.questions, scores) if s > 0]
    positive.sort(key=lambda kv: (-kv[1], kv[0]))
    hits = [RetrievalHit(qid=qid, score=score) for qid, score in positive[:k]]
    ranked = count_aggregation_oracle(db, hits, k)[:top_n]
    return [
        {
            "method": "count",
            "passage_id": pid,
            "query_id": query_id,
            "rank": rank,
            "score": float(count),
        }
        for rank, (pid, count) in enumerate(ranked, start=1)
    ]


def main() -> None:
    DATA.mkdir(exist_ok=True)

    corpus = make_diversity_corpus()
    save_corpus(corpus, str(DATA / "corpus.jsonl"))

    db, _ = build_database(corpus, StubBackend())
    db.save(DATA / "fixture.qadb")

    (DATA / "config_count.txt").write_text(CONFIG_TEXT, encoding="utf-8")
    (DATA / "queries.jsonl").write_text(
        "".join(dump(q) + "\n" for q in QUERIES), encoding="utf-8"
    )
    (DATA / "gold.jsonl").write_text("".join(dump(g) + "\n" for g in GOLD), encoding="utf-8")

    config = RunConfig.from_file(DATA / "config_count.txt")
    header = {
        "fingerprint": config.fingerprint(),
        "method": config.retrieval_method,
        "mode": config.retrieval_mode,
        "k_questions": config.k_questions,
        "top_n": config.top_n,
    }
    lines = [dump({"header": header})]
    for query in QUERIES:
        lines.extend(
            dump(row)
            for row in oracle_count_rows(
                db, query["query_id"], query["question"], config.k_questions, config.top_n
            )
        )
    (DATA / "golden_retrieve_count.jsonl").write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )
    print(f"wrote fixtures to {DATA}")


if __name__ == "__main__":
    main()
