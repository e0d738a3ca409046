"""Indirect passage retrieval: query the generated questions, not the corpus.

An ambiguous question ("where is the home stadium of the michigan
wolverines?") has several correct answers living in different passages.
Direct BM25 over passages rewards surface overlap, so near-duplicate
passages about one answer crowd out the others. Retrieving generated
questions first and mapping them back to passages (max score or top-k
count) surfaces one passage per interpretation instead.
"""

from qadb import (
    Corpus,
    Passage,
    StubBackend,
    answer_recall_at_k,
    build_database,
    build_index,
    build_passage_index,
    retrieve_passages,
)

QUERY = "where is the home stadium of the michigan wolverines?"
GOLD = ("Michigan Stadium", "Crisler Center", "Yost Ice Arena")


def build_corpus() -> Corpus:
    passages = [
        Passage(
            "football#0",
            "Football",
            "Michigan Stadium is the home stadium of the Michigan Wolverines "
            "football team. Michigan Wolverines fans fill Michigan Stadium in Ann Arbor.",
        ),
        Passage(
            "basketball#0",
            "Basketball",
            "Crisler Center is the home arena of the Michigan Wolverines basketball "
            "team. Michigan Wolverines basketball packs Crisler Center in Ann Arbor.",
        ),
        Passage(
            "hockey#0",
            "Hockey",
            "Yost Ice Arena is the home rink of the Michigan Wolverines hockey team. "
            "Michigan Wolverines hockey skates at Yost Ice Arena in Ann Arbor.",
        ),
    ]
    # redundant near-duplicates: heavy on query words, all about one answer
    for i in range(12):
        passages.append(
            Passage(
                f"notes-{i:02d}#0",
                f"notes {i:02d}",
                "the home stadium of the michigan wolverines is the michigan stadium "
                "and the home stadium of the michigan wolverines draws fans to the "
                f"michigan stadium in week {i}.",
            )
        )
    return Corpus(passages)


def main() -> None:
    corpus = build_corpus()
    db, _ = build_database(corpus, StubBackend())
    print(f"{len(corpus)} passages -> {len(db)} generated questions\n")

    index = build_index(db)
    passage_index = build_passage_index(corpus)

    for method in ("direct", "max", "count"):
        scored = retrieve_passages(
            passage_index if method == "direct" else index, QUERY, method=method, top_n=5
        )
        texts = [corpus[ps.passage_id].text for ps in scored]
        recall = answer_recall_at_k(texts, GOLD, 5)
        print(f"method={method!r}: answer recall@5 = {recall:.2f}")
        for ps in scored:
            print(f"   {ps.score:8.3f}  {ps.passage_id}")
        print()

    print(
        "direct retrieval fills the top ranks with near-duplicates of one\n"
        "answer; count aggregation puts all three interpretations on top."
    )


if __name__ == "__main__":
    main()
