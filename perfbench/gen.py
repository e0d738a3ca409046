"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed writes the
same bytes. Outputs are cached under the work directory, so a repeated
seed skips generation; the cache keeps only the newest few input sets
because one retrieval input set is ~100 MB.

Two input families:

* ``remote_inputs`` -- a corpus of 100-token passages for ``build-db`` and
  a sample of (question, answer, passage) rows for ``revise``. Each passage
  carries capitalized entity runs of fixed lengths, so the stub model's
  funnel is the same size on every seed.
* ``retrieval_inputs`` -- a 200k-question database written with
  ``QADatabase.save``, the passage corpus it points into, and the question
  vectors from ``hashing_embedder``. Generating one takes ~12 s, so the
  seed selects one of ``DB_VARIANTS`` databases; ``retrieval_queries``
  then draws the seed's own 100 queries with gold answers from it.

Query phrasing mix (stated, not guessed): one query in four is a natural
question, ``what is the <relation> of <title>?``, whose words ``what``,
``is``, ``the`` and ``of`` occur in every generated question; the other
three are keyword-only, ``<relation> <title>``. Every query asks about a
(title, relation) pair that two or more passages answer differently, so
every query has at least two gold answers. Exactly one of them is stated
by a passage but asked by no generated question: retrieval reaches it
only through that passage's other questions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
from pathlib import Path

N_QUESTIONS = 200_000
QUESTIONS_PER_PASSAGE = 10
UNASKED_PER_PASSAGE = 2  # facts a passage states that no generated question asks
PASSAGES_PER_TITLE = 20
N_RELATIONS = 300
GOLD_SIZE_MIX = {2: 30, 3: 25, 4: 20, 5: 15, 6: 10}  # gold answers (6: six or more) -> queries
NATURAL_EVERY = 4  # one natural-language query in four
EMBED_DIM = 64
EMBED_SEED = 0  # the CLI embeds queries with RunConfig.seed, default 0

REMOTE_PASSAGES = 60
REMOTE_ROWS = 360
REMOTE_ENTITY_RUNS = (1, 2, 2, 3)  # capitalized run lengths per passage
PASSAGE_TOKENS = 100

DB_VARIANTS = 4  # the seed picks one of these databases, and draws its own queries
CACHE_KEEP = DB_VARIANTS  # input sets kept per family

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """``count`` distinct pronounceable lowercase words not in ``taken``."""
    out = []
    while len(out) < count:
        syllables = rng.randint(2, 3)
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _zipf_cum_weights(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) for rank in range(n)))


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def _key(family: str, seed: int) -> int:
    return seed % DB_VARIANTS if family == "retrieval" else seed


def inputs_dir(family: str, work: Path, seed: int) -> Path:
    """Cache directory; its name carries a hash of this file, so edits invalidate it."""
    version = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:8]
    return work / "inputs" / f"{family}-{_key(family, seed)}-{version}"


def _cached(work: Path, family: str, seed: int, build) -> Path:
    """Directory holding ``family`` inputs for ``seed``, generated on first use."""
    target = inputs_dir(family, work, seed)
    root = target.parent
    if (target / "DONE").exists():
        return target
    root.mkdir(parents=True, exist_ok=True)
    old = sorted(
        (p for p in root.glob(f"{family}-*") if p != target),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in old[: max(0, len(old) - (CACHE_KEEP - 1))]:
        shutil.rmtree(stale, ignore_errors=True)
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir()
    build(target, _key(family, seed))
    (target / "DONE").write_text("ok\n")
    return target


# --- gen-remote: corpus and revise rows ---------------------------------


def remote_corpus_rows(seed: int, n: int = REMOTE_PASSAGES) -> list[dict]:
    """Passages of exactly 100 tokens with fixed-length capitalized runs.

    Filler words are lowercase and punctuation-free, so the stub detector
    sees exactly the planted runs. One title in five contains " of ",
    which makes the stub reader misparse its questions: that gives the
    verify stage a steady share of rejections.
    """
    rng = random.Random(f"remote:{seed}")
    taken: set[str] = set()
    filler = _words(rng, 400, taken)
    names = _words(rng, 600, taken)
    cum = _zipf_cum_weights(len(filler))
    rows = []
    for i in range(n):
        title_words = [w.capitalize() for w in rng.sample(names, 2)]
        title = " of ".join(title_words) if i % 5 == 0 else " ".join(title_words)
        runs = [
            [rng.choice(names).capitalize() for _ in range(length)]
            for length in REMOTE_ENTITY_RUNS
        ]
        planted = sum(len(r) for r in runs)
        words = rng.choices(filler, cum_weights=cum, k=PASSAGE_TOKENS - planted)
        slots = sorted(rng.sample(range(1, len(words)), len(runs)))
        for offset, (slot, run) in enumerate(zip(slots, runs)):
            at = slot + sum(len(r) for r in runs[:offset])
            words[at:at] = run
        rows.append({"id": f"p{seed}-{i:04d}", "title": title, "text": " ".join(words)})
    return rows


def _build_remote(target: Path, seed: int) -> None:
    from qadb import StubBackend, build_database, ingest_passages

    rows = remote_corpus_rows(seed)
    write_jsonl(target / "corpus.jsonl", rows)
    corpus = ingest_passages(json.dumps(r, sort_keys=True) for r in rows)
    db, report = build_database(corpus, StubBackend())
    db.save(target / "reference.qadb")
    funnel = {**report.to_dict(), "stats": db.stats.to_dict()}
    (target / "reference.funnel.json").write_text(
        json.dumps(funnel, sort_keys=True) + "\n", encoding="utf-8"
    )
    flat = [
        {"question": q.question, "answer": a.text, "passage_id": a.passage_ids[0]}
        for q in db.questions
        for a in q.answers
    ]
    rng = random.Random(f"remote-rows:{seed}")
    write_jsonl(target / "rows.jsonl", rng.sample(flat, min(REMOTE_ROWS, len(flat))))
    # gold for `qadb coverage`: every planted entity run, keyed by passage
    gold = [
        {"query_id": r["id"], "question": r["title"],
         "gold_answers": [w for w in r["text"].split() if w[0].isupper()]}
        for r in rows
    ]
    write_jsonl(target / "gold.jsonl", gold)


def remote_inputs(work: Path, seed: int) -> Path:
    return _cached(work, "remote", seed, _build_remote)


# --- retrieve-*: 200k-question database, queries, gold, vectors --------


def database_records(variant: int):
    """Passages, merged-question tuples and ambiguous facts of one database.

    Returns ``(passages, questions, ambiguous)``: ``questions`` lists
    ``(text, (answer, passage ids, mentions))`` in qid order; ``ambiguous``
    maps ``"<title>|<relation>"`` to the distinct answers that passages of
    the title give for the relation, for pairs with two or more answers of
    which exactly one no generated question asks about.
    """
    rng = random.Random(f"retrieval:{variant}")
    taken: set[str] = set()
    relations = _words(rng, N_RELATIONS, taken)
    rel_cum = _zipf_cum_weights(N_RELATIONS)
    title_vocab = _words(rng, 1500, taken)
    # one facet in three has two words, so question lengths (8 or 9 tokens)
    # differ and BM25 length normalization shapes the ranking
    tails = _words(rng, 50, taken)
    facets = [
        f"{w} {rng.choice(tails)}" if i % 3 == 0 else w
        for i, w in enumerate(_words(rng, 400, taken))
    ]
    entity_vocab = _words(rng, 5000, taken)
    filler = _words(rng, 2000, taken)
    filler_cum = _zipf_cum_weights(len(filler))

    n_passages = N_QUESTIONS // QUESTIONS_PER_PASSAGE
    n_titles = n_passages // PASSAGES_PER_TITLE
    titles: list[str] = []
    seen_titles: set[str] = set()
    while len(titles) < n_titles:
        title = " ".join(rng.sample(title_vocab, 2))
        if title not in seen_titles:
            seen_titles.add(title)
            titles.append(title)

    passages = []
    facts: dict[tuple[str, str], list] = {}  # (title, rel) -> [(answer, pid, asked)]
    questions: dict[str, tuple] = {}  # question text -> its one answer entry
    n_entities = len(entity_vocab)
    for title in titles:
        stem = title.replace(" ", "_")
        for ordinal, facet in enumerate(rng.sample(facets, PASSAGES_PER_TITLE)):
            pid = f"{stem}#{ordinal}"
            n_facts = QUESTIONS_PER_PASSAGE + UNASKED_PER_PASSAGE
            rels: list[str] = []
            while len(rels) < n_facts:
                drawn = rng.choices(relations, cum_weights=rel_cum, k=40)
                rels = list(dict.fromkeys(rels + drawn))[:n_facts]
            answers = [
                f"{entity_vocab[int(rng.random() * n_entities)].capitalize()} "
                f"{entity_vocab[int(rng.random() * n_entities)].capitalize()}"
                for _ in rels
            ]
            planted = [title, facet] + [f"{a} {r}" for a, r in zip(answers, rels)]
            n_planted = sum(len(p.split()) for p in planted)
            words = rng.choices(filler, cum_weights=filler_cum, k=PASSAGE_TOKENS - n_planted)
            slots = sorted(rng.sample(range(len(words) + 1), len(planted)), reverse=True)
            for slot, phrase in zip(slots, reversed(planted)):
                words[slot:slot] = phrase.split()
            passages.append({"id": pid, "title": title, "text": " ".join(words)})
            for n, (rel, answer) in enumerate(zip(rels, answers)):
                asked = n < QUESTIONS_PER_PASSAGE
                facts.setdefault((title, rel), []).append((answer, pid, asked))
                if not asked:
                    continue
                pids = (pid,)
                mentions = 1
                if rng.random() < 0.1:  # the same fact also drawn from a sibling passage
                    sibling = f"{stem}#{rng.randrange(PASSAGES_PER_TITLE)}"
                    pids = tuple(sorted({pid, sibling}))
                    mentions = 2
                questions[f"what is the {rel} of {title} {facet}?"] = (answer, pids, mentions)

    ambiguous = {}
    for (title, rel), found in facts.items():
        answers = {a for a, _, _ in found}
        unasked = answers - {a for a, _, asked in found if asked}
        if len(answers) >= 2 and len(unasked) == 1:
            ambiguous[f"{title}|{rel}"] = sorted(answers)
    ordered = [(text, questions[text]) for text in sorted(questions)]
    return passages, ordered, ambiguous


def retrieval_queries(inputs: Path, seed: int) -> tuple[list[dict], list[dict]]:
    """The seed's queries and gold, drawn from its database's ambiguous facts.

    Queries are stratified by gold-set size (``GOLD_SIZE_MIX``): recall
    depends mostly on how many answers a query has, so a fixed mix keeps
    recall comparable across seeds.
    """
    ambiguous = json.loads((inputs / "ambiguous.json").read_text(encoding="utf-8"))
    by_size: dict[int, list[str]] = {}
    for key in sorted(ambiguous):
        by_size.setdefault(min(len(ambiguous[key]), max(GOLD_SIZE_MIX)), []).append(key)
    rng = random.Random(f"queries:{seed}")
    picked = [key for size, n in GOLD_SIZE_MIX.items() for key in rng.sample(by_size[size], n)]
    queries, gold = [], []
    for i, key in enumerate(picked):
        title, rel = key.split("|")
        qid = f"q{seed}-{i:03d}"
        text = f"what is the {rel} of {title}?" if i % NATURAL_EVERY == 0 else f"{rel} {title}"
        queries.append({"query_id": qid, "question": text})
        gold.append({"query_id": qid, "question": text, "gold_answers": ambiguous[key]})
    return queries, gold


def _build_retrieval(target: Path, variant: int) -> None:
    import numpy as np
    from qadb import AnswerEntry, MergedQuestion, QADatabase
    from qadb.retrieval import hashing_embedder, save_vectors, tokenize

    passages, questions, ambiguous = database_records(variant)
    write_jsonl(target / "corpus.jsonl", passages)
    (target / "ambiguous.json").write_text(json.dumps(ambiguous, sort_keys=True), encoding="utf-8")
    merged = [
        MergedQuestion(qid=qid, question=text, answers=(AnswerEntry(*entry),))
        for qid, (text, entry) in enumerate(questions)
    ]
    QADatabase(merged).save(target / "db.qadb")

    # hashing_embedder adds one +-1 per token, so a question's vector is
    # the exact sum of its tokens' vectors: embed each distinct token once.
    embed = hashing_embedder(EMBED_DIM, EMBED_SEED)
    vocab: dict[str, int] = {}
    rows, ids = [], []
    for row, (text, _) in enumerate(questions):
        for token in tokenize(text):
            rows.append(row)
            ids.append(vocab.setdefault(token, len(vocab)))
    token_vecs = np.stack([embed(token) for token in vocab])
    matrix = np.zeros((len(questions), EMBED_DIM))
    np.add.at(matrix, np.array(rows), token_vecs[np.array(ids)])
    save_vectors(str(target / "vectors.qvec"), matrix)


def retrieval_inputs(work: Path, seed: int) -> Path:
    """The database files for ``seed``: one of ``DB_VARIANTS`` databases."""
    return _cached(work, "retrieval", seed, _build_retrieval)


def main(argv: list[str]) -> int:
    """``gen.py remote|retrieval WORK_DIR SEED``: make the seed's inputs if not cached."""
    family, work, seed = argv
    make = {"remote": remote_inputs, "retrieval": retrieval_inputs}[family]
    make(Path(work), int(seed))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
