"""Build a QA database from raw documents with the deterministic stub backend.

Walks the full construction path: chunk documents into passages, detect
answer spans, generate one question per answer, verify each pair by
re-reading the passage, and merge survivors into a question database.
"""

from qadb import Corpus, StubBackend, build_database, chunk_document

DOCUMENTS = [
    (
        "Michigan Stadium",
        "Michigan Stadium is the home stadium of the Michigan Wolverines football "
        "team. Fans call Michigan Stadium the Big House. It was built in 1927 and "
        "it is the largest stadium in the country.",
    ),
    (
        "Crisler Center",
        "Crisler Center is an indoor arena in Ann Arbor. It is the home arena of "
        "the Michigan Wolverines basketball teams. Crisler Center opened in 1967.",
    ),
    (
        "Yost Ice Arena",
        "Yost Ice Arena hosts the Michigan Wolverines hockey team. Yost Ice Arena "
        "sits on State Street and opened in 1923.",
    ),
]


def main() -> None:
    # 1. chunk each document into fixed-size passages (100 tokens in
    #    production; tiny here so every document stays one chunk)
    passages = []
    for title, body in DOCUMENTS:
        passages.extend(chunk_document(title, body, chunk_size=100))
    corpus = Corpus(passages)
    print(f"corpus: {len(corpus)} passages")
    for p in corpus:
        print(f"  {p.id}  ({len(p.text.split())} tokens)")

    # 2. run the three-stage pipeline; the stub backend is a pure function
    #    of its prompts, so this demo is reproducible bit for bit
    db, report = build_database(corpus, StubBackend())
    print("\nconstruction funnel:")
    print(f"  detected answers    {report.detected}")
    print(f"  generated questions {report.generated}")
    print(f"  verified questions  {report.verified}")
    print(f"  unique questions    {report.unique_questions}")

    # 3. inspect a few merged questions with their provenance
    print("\nsample questions:")
    for question in list(db)[:8]:
        answers = "; ".join(
            f"{entry.text} <- {','.join(entry.passage_ids)}" for entry in question.answers
        )
        print(f"  [{question.qid}] {question.question}  ({answers})")

    stats = db.stats
    print(
        f"\nstats: {stats.unique_questions} unique, "
        f"{stats.multi_mention_questions} with repeated mentions, "
        f"{stats.multi_answer_questions} with multiple distinct answers"
    )


if __name__ == "__main__":
    main()
