import hashlib
import os
import random
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (
    build_db,
    forbid_database_parse,
    make_diversity_corpus,
    random_database,
    random_hits,
)
from oracles import bm25_scores_direct, count_aggregation_oracle, max_aggregation_oracle

from qadb import retrieval
from qadb.corpus import Corpus, Passage
from qadb.database import AnswerEntry, MergedQuestion, QADatabase
from qadb.errors import ContractViolation, EmbeddingDimMismatch, ModeUnavailable
from qadb.retrieval import (
    QuestionIndex,
    RetrievalHit,
    build_index,
    build_passage_index,
    hashing_embedder,
    index_arrays,
    load_vectors,
    open_index,
    retrieve_passages,
    retrieve_questions,
    save_vectors,
    score_passages_count,
    score_passages_max,
    tokenize,
)

# ------------------------------------------------------------- indexing


def _arrays(keys, texts):
    return index_arrays(keys, texts)


def _small_db():
    return build_db(
        [
            ("p1", "Michigan Stadium", "home stadium michigan wolverines?"),
            ("p2", "Paris", "capital of france?"),
        ]
    )


def test_build_index_sparse_only():
    index = build_index(_small_db())
    assert index.vectors is None and index.norms is None and index.screen is None
    assert len(index.keys) == 2


def test_build_index_dense_unit_rows():
    db = build_db([("p", f"a{i}", f"question number {i} about topic {i}?") for i in range(10)])
    embedder = hashing_embedder(dim=64, seed=1)
    index = build_index(db, embedder)
    vectors = np.stack([embedder(q.question) for q in db.questions])
    assert index.vectors.dtype == np.float64 and np.array_equal(index.vectors, vectors)
    assert np.array_equal(index.norms, np.linalg.norm(vectors, axis=1))
    assert index.screen.dtype == np.float32 and index.screen.shape == (10, 64)
    assert np.array_equal(index.screen, (vectors / index.norms[:, None]).astype(np.float32))
    assert np.all(np.abs(np.linalg.norm(index.screen, axis=1) - 1.0) < 1e-6)


def test_question_passage_table_is_each_questions_provenance():
    rng = random.Random(21)
    repeated = AnswerEntry("x", ("p2", "p1", "p2"), 3)  # a stored id twice still credits once
    merged = 0
    for db in [QADatabase([MergedQuestion(0, "q?", (repeated,))]),
               *(random_database(rng, max_passages=10, max_questions=30) for _ in range(30))]:
        index = build_index(db)
        assert index.keys.tolist() == [q.qid for q in db.questions]
        for row, question in enumerate(db.questions):
            cols = index.passage_cols[index.passage_offsets[row]:index.passage_offsets[row + 1]]
            assert [index.passages[col] for col in cols] == sorted(question.passage_ids)
            merged += len(question.passage_ids) > 1
        assert index.passages == sorted({pid for q in db.questions for pid in q.passage_ids})
    assert merged > 0  # questions merged from 2-3 passages are among the instances


@given(st.sets(st.text(st.characters(exclude_categories=(), exclude_characters="\0")), max_size=8))
def test_index_arrays_round_trips_every_id_without_nul(ids):
    # numpy's str arrays strip trailing U+0000, which the corpus and the database refuse
    ids = sorted(ids)
    arrays = index_arrays(ids, ["text"] * len(ids), [{pid} for pid in ids])
    assert arrays["keys"].tolist() == ids == arrays["passages"].tolist()
    assert arrays["passage_cols"].tolist() == list(range(len(ids)))


def test_index_arrays_rejects_sources_of_another_length():
    with pytest.raises(ValueError, match="1 sources for 2 keys"):
        index_arrays([1, 2], ["a b", "c"], [{"p1"}])


@pytest.mark.parametrize("keys", [[2, 1], [0, 1, 1], ["b", "a"], ["p10", "p9", "p8"]])
def test_index_arrays_refuses_keys_that_do_not_strictly_ascend(keys):
    with pytest.raises(ValueError, match="keys must ascend"):
        index_arrays(keys, ["some text"] * len(keys))


def test_image_layout_is_pinned_to_its_version():
    # a change to the arrays of QuestionIndex needs a bump of IMAGE_VERSION
    members = sorted(_arrays([1, 2], ["a b", "c"]))
    assert (retrieval.IMAGE_VERSION, members) == (2, [
        "keys", "offsets", "passage_cols", "passage_offsets", "passages", "rows", "size",
        "text_offsets", "text_utf8", "vocab", "weights"])


def test_question_index_rejects_repeated_keys():
    with pytest.raises(ValueError, match="keys must ascend"):
        QuestionIndex(_arrays([0, 0], ["where is the stadium?", "where is the arena?"]))
    db = QADatabase(
        [
            MergedQuestion(0, "where is the stadium?", (AnswerEntry("Michigan Stadium", ("a",), 1),)),
            MergedQuestion(0, "where is the arena?", (AnswerEntry("Crisler Center", ("b",), 1),)),
        ]
    )
    with pytest.raises(ValueError, match="keys must ascend"):
        build_index(db)


def test_build_index_mixed_dims_rejected():
    calls = {"n": 0}

    def bad_embedder(text):
        calls["n"] += 1
        return np.ones(4 if calls["n"] % 2 else 8)

    with pytest.raises(EmbeddingDimMismatch):
        build_index(_small_db(), bad_embedder)


# ------------------------------------------------------------- questions


def test_sparse_retrieval_matches_oracle_on_small_db():
    db = _small_db()
    by_text = {q.question: q.qid for q in db.questions}
    index = build_index(db)
    hits = retrieve_questions(index, "michigan stadium", k=2, mode="sparse")
    oracle = {
        q.qid: s
        for q, s in zip(
            db.questions,
            bm25_scores_direct("michigan stadium", [q.question for q in db.questions]),
        )
    }
    # the stadium question shares terms, the france one shares none: only
    # the former is returned and it ranks first
    stadium = by_text["home stadium michigan wolverines?"]
    france = by_text["capital of france?"]
    assert [h.qid for h in hits] == [stadium]
    assert hits[0].score == pytest.approx(oracle[stadium], abs=1e-12)
    assert oracle[france] == 0.0


def test_dense_identical_question_attains_unit_score():
    db = build_db([("p", f"a{i}", f"question number {i} about topic {i}?") for i in range(5)])
    index = build_index(db, hashing_embedder(dim=32, seed=3))
    stored = db.questions[2].question
    hits = retrieve_questions(index, stored, k=5, mode="dense")
    assert hits[0].qid == db.questions[2].qid
    assert hits[0].score == pytest.approx(1.0, abs=1e-9)
    assert all(h.score <= 1.0 + 1e-9 for h in hits)


def test_k_larger_than_db_returns_all_ranked():
    db = build_db([("p", f"a{i}", f"shared topic variant {i}?") for i in range(4)])
    index = build_index(db)
    hits = retrieve_questions(index, "shared topic", k=50, mode="sparse")
    assert sorted(h.qid for h in hits) == [q.qid for q in db.questions]
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)


def test_dense_mode_without_embeddings():
    index = build_index(_small_db())
    with pytest.raises(ModeUnavailable):
        retrieve_questions(index, "query", k=1, mode="dense")


def test_dense_scores_symmetric_under_swap():
    embedder = hashing_embedder(dim=48, seed=7)
    texts = ["alpha beta gamma?", "beta gamma delta?", "epsilon zeta?"]
    for a in texts:
        for b in texts:
            db_b = build_db([("p", "x", b)])
            db_a = build_db([("p", "x", a)])
            score_ab = retrieve_questions(build_index(db_b, embedder), a, 1, "dense")[0].score
            score_ba = retrieve_questions(build_index(db_a, embedder), b, 1, "dense")[0].score
            assert score_ab == pytest.approx(score_ba, abs=1e-12)


def test_tie_break_is_score_then_key():
    # hyphenation changes the merge key but not the BM25 tokens, so the two
    # questions score identically; the lower qid comes first
    db = build_db([("p1", "a", "same words here?"), ("p2", "b", "same-words here?")])
    index = build_index(db)
    hits = retrieve_questions(index, "same words here", k=2, mode="sparse")
    assert len(hits) == 2
    assert hits[0].score == hits[1].score
    assert hits[0].qid < hits[1].qid


# ------------------------------------------------------------- top-k boundary


def _full_sort(index, query, k, mode):
    """Reference: every score of the index, fully sorted (score desc, key asc)."""
    if mode == "sparse":
        found = index.sparse.scores(tokenize(query))
        rows, scores = found["row"].tolist(), found["score"].tolist()
    else:  # every row rescored, none screened out
        rows, scores = (a.tolist() for a in retrieval._dense_scores(index, query, len(index.keys)))
    pairs = [(index.keys[r], s) for r, s in zip(rows, scores)]
    ranked = sorted(pairs, key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def _hit_tuples(index, query, k, mode):
    return [(h.qid, h.score) for h in retrieve_questions(index, query, k, mode)]


def _tied_index(keys, seed):
    """Over the ascending ``keys``, 25 identical 'alpha beta' texts, 10 'alpha'
    and 5 'gamma', shuffled over the rows; dense rows are one-hot per text, so
    equal texts score exactly equal. Also the keys of the 'alpha beta' rows."""
    texts = ["alpha beta"] * 25 + ["alpha"] * 10 + ["gamma"] * 5
    random.Random(seed).shuffle(texts)
    group = {"alpha beta": 0, "alpha": 1, "gamma": 2}
    vectors = np.eye(3)[[group[t] for t in texts]]
    embedder = lambda text: np.array([3.0, 2.0, 1.0])  # noqa: E731
    index = QuestionIndex(_arrays(sorted(keys), texts), embedder, dense_vectors=vectors)
    return index, [key for key, text in zip(sorted(keys), texts) if text == "alpha beta"]


@pytest.mark.parametrize("mode", ["sparse", "dense"])
@pytest.mark.parametrize("key_kind", [int, str])
def test_top_k_cuts_exact_ties_at_kth_score_by_key(mode, key_kind):
    keys = [key_kind(k) for k in random.Random(5).sample(range(1000, 2000), 40)]
    index, tied_keys = _tied_index(keys, seed=5)
    for k in (1, 10, 25, 26, 30):
        hits = _hit_tuples(index, "alpha beta", k, mode)
        assert hits == _full_sort(index, "alpha beta", k, mode)
        assert len(hits) == k
    # k = 10 cuts the 25-way tie: the 10 lowest of its keys, ascending
    assert [qid for qid, _ in _hit_tuples(index, "alpha beta", 10, mode)] == tied_keys[:10]


@pytest.mark.parametrize("mode", ["sparse", "dense"])
def test_top_k_with_k_equal_to_and_above_index_size(mode):
    index, _ = _tied_index(random.Random(6).sample(range(100), 40), seed=6)
    for k in (40, 41, 500):
        hits = _hit_tuples(index, "alpha beta gamma", k, mode)
        assert hits == _full_sort(index, "alpha beta gamma", k, mode)
        assert len(hits) == 40  # every text shares a token with the query


def test_dense_zero_query_vector_orders_by_key_alone():
    keys = sorted(random.Random(7).sample(range(10_000), 60))
    texts = [f"topic {i} question" for i in range(60)]
    random.Random(7).shuffle(texts)
    index = QuestionIndex(_arrays(keys, texts), hashing_embedder(dim=16, seed=1))
    assert not index.embed_query("?!").any()
    for k in (1, 7, 60, 61):
        assert len(retrieval._dense_scores(index, "?!", k)[0]) <= k  # no row is screened
        hits = _hit_tuples(index, "?!", k, "dense")
        assert hits == _full_sort(index, "?!", k, "dense")
        assert [qid for qid, _ in hits] == sorted(keys)[:k]
        assert all(score == 0.0 for _, score in hits)


def test_top_k_matches_full_sort_on_random_instances():
    rng = random.Random(11)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon"]
    for trial in range(60):
        n = rng.randint(1, 80)
        texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 4))) for _ in range(n)]
        ids = rng.sample(range(10 * n), n)
        keys = sorted(ids if trial % 2 else [f"p{i}" for i in ids])
        # duplicated rows give ties in dense mode too
        base = np.random.default_rng(trial).normal(size=(max(1, n // 3), 8))
        vectors = base[[rng.randrange(len(base)) for _ in range(n)]]
        query_vector = np.random.default_rng(1000 + trial).normal(size=8)
        index = QuestionIndex(_arrays(keys, texts), lambda text: query_vector, dense_vectors=vectors)
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 3)))
        for mode in ("sparse", "dense"):
            k = rng.randint(1, n + 3)
            assert _hit_tuples(index, query, k, mode) == _full_sort(index, query, k, mode)


def _unit_rows(matrix):
    """Reference: float64 rows scaled to norm 1; an all-zero row stays zero."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms == 0.0, 1.0, norms)


def _dense_index(vectors, query_vectors):
    """An index over ``vectors`` keyed 0, 1, ...; the query text ``str(i)`` embeds
    as ``query_vectors[i]``."""
    def embed(text):
        return query_vectors[int(text)] if text else np.zeros(vectors.shape[1])
    return QuestionIndex(_arrays(range(len(vectors)), ["x"] * len(vectors)), embed,
                         dense_vectors=vectors)


def test_dense_screen_keeps_exact_and_near_ties_around_the_kth_score():
    # 12 directions, 8 rows each: 4 exact copies (exact ties) and 4 nudged by
    # ~1e-9, below float32 resolution, so exact scores within 1e-7 of each
    # other screen tied or in the wrong order
    rng = np.random.default_rng(17)
    vectors = np.repeat(rng.normal(size=(12, 16)), 8, axis=0)
    vectors[1::2] += rng.normal(size=(48, 16)) * 1e-9
    vectors = vectors[rng.permutation(96)]
    index = _dense_index(vectors, rng.normal(size=(1, 16)))
    ranked = _full_sort(index, "0", 96, "dense")
    screened = index.screen @ index.embed_query("0").astype(np.float32)
    exact_cuts = near_cuts = unscreened = 0
    for k in range(1, 96):
        assert _hit_tuples(index, "0", k, "dense") == _full_sort(index, "0", k, "dense")
        gap = ranked[k - 1][1] - ranked[k][1]
        exact_cuts += gap == 0.0
        near_cuts += 0.0 < gap < 1e-7
        # rows of the exact top k that a screen without margin would drop
        kth = -np.partition(-screened, k - 1)[k - 1]
        unscreened += any(screened[key] < kth for key, _ in ranked[:k])
    assert exact_cuts and near_cuts and unscreened


def test_dense_rows_near_the_float32_limits():
    rng = np.random.default_rng(5)
    scale = np.repeat([1e-30, 1.0, 1e30], 20)[:, None]
    vectors = (rng.normal(size=(60, 8)) * scale).astype(np.float32)
    vectors[0] = [1e30, *[1e-30] * 7]  # entries that underflow in the float32 screen
    vectors[1] = [1e-30, *[0.0] * 7]
    queries = rng.normal(size=(5, 8))
    index = _dense_index(vectors, queries)
    reference = _unit_rows(vectors.astype(np.float64))
    for i, query in enumerate(queries):
        rows, scores = retrieval._dense_scores(index, str(i), 60)
        assert np.abs(scores - reference @ _unit_rows(query[None, :])[0]).max() <= 1e-12
        for k in (1, 5, 20, 59):
            assert _hit_tuples(index, str(i), k, "dense") == _full_sort(index, str(i), k, "dense")


def test_rescored_scores_match_unit_rows_in_float64():
    rng = np.random.default_rng(8)
    vectors = rng.normal(size=(300, 64)).astype(np.float32)
    queries = rng.normal(size=(10, 64))
    index = _dense_index(vectors, queries)
    reference = _unit_rows(vectors.astype(np.float64))
    for i, query in enumerate(queries):
        rows, scores = retrieval._dense_scores(index, str(i), 300)
        assert rows.tolist() == list(range(300))
        assert np.abs(scores - reference @ _unit_rows(query[None, :])[0]).max() <= 1e-12


def test_dense_scores_do_not_depend_on_row_position():
    # OpenBLAS scores a row in a group of 4 rows and a leftover row with
    # different kernels, so one product over the whole matrix gave a row
    # scores differing in the last bit as rows were added before it
    rng = np.random.default_rng(29)
    vectors = rng.normal(size=(301, 64)).astype(np.float32)
    queries = rng.normal(size=(100, 64))
    scores = []
    for extra in range(4):
        padded = np.concatenate([rng.normal(size=(extra, 64)).astype(np.float32), vectors])
        index = _dense_index(padded, queries)
        scores.append([sorted((hit.qid - extra, hit.score)
                              for hit in retrieve_questions(index, str(i), len(padded), "dense")
                              if hit.qid >= extra)
                       for i in range(len(queries))])
    assert scores[1] == scores[0] and scores[2] == scores[0] and scores[3] == scores[0]


def test_bm25_scores_are_exactly_the_positive_rows():
    # the benchmark's traced run counts candidates as len() of this result
    rng = random.Random(23)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    for _ in range(30):
        n_docs = rng.randint(1, 60)
        texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 6))) for _ in range(n_docs)]
        query = " ".join(rng.choices(vocab + ["unseen"], k=rng.randint(0, 4)))
        found = QuestionIndex(_arrays(range(len(texts)), texts)).sparse.scores(tokenize(query))
        oracle = bm25_scores_direct(query, texts)
        positive = [i for i, score in enumerate(oracle) if score > 0]
        assert found["row"].tolist() == positive
        assert len(found) == len(positive)
        # the oracle adds the same terms in the same order: equal to the last bit
        assert found["score"].tolist() == [oracle[i] for i in positive]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["what", "is", "the", "alpha", "beta", "gamma"]),
                         max_size=12), max_size=30))
def test_bm25_weights_are_positive_and_peaks_are_each_tokens_largest(docs):
    # the MaxScore bound reads a row lacking a non-essential token as adding at most its peak
    arrays = _arrays(range(len(docs)), [" ".join(doc) for doc in docs])
    assert (arrays["weights"] > 0.0).all()
    bm25 = retrieval._Bm25(arrays)
    offsets = arrays["offsets"].tolist()
    assert bm25.peaks == [max(arrays["weights"][start:end].tolist())
                          for start, end in zip(offsets, offsets[1:])]


# ------------------------------------------------------------- pruned sparse path


def _top_records(found, k):
    return found[retrieval._top_k(found["score"], k)].tolist()


def _assert_top_k_as_bincount(index, query, k):
    """The top k of ``scores(tokens, k)``, bit for bit those of the full bincount;
    returns how many rows ``scores(tokens, k)`` scored."""
    tokens = tokenize(query)
    pruned, full = index.sparse.scores(tokens, k), index.sparse.scores(tokens)
    assert _top_records(pruned, k) == _top_records(full, k)
    assert _hit_tuples(index, query, k, "sparse") == _full_sort(index, query, k, "sparse")
    return len(pruned)


def _weighted_index(common_weights):
    """Eight rows: 'what' in rows 0-5 with ``common_weights``, essential 'rare' in rows 0
    and 5 weighing 2.0 and 1.0, and 'x' in rows 6-7."""
    arrays = _arrays(range(8), ["what rare", "what", "what", "what", "what", "what rare", "x", "x"])
    assert arrays["vocab"].tolist() == ["what", "rare", "x"]
    arrays["weights"] = np.array([*common_weights, 2.0, 1.0, 1.0, 1.0])
    return QuestionIndex(arrays)


def test_pruning_falls_back_when_a_row_of_common_tokens_alone_ties_the_kth():
    # row 5, a candidate, scores 1.0 + 1.0; row 1 holds only 'what', worth 2.0
    index = _weighted_index([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    assert index.sparse.peaks[0] == 2.0
    assert len(index.sparse.scores(["what", "rare"], 2)) == 6  # every row scored
    assert _hit_tuples(index, "what rare", 2, "sparse") == [(0, 3.0), (1, 2.0)]
    _assert_top_k_as_bincount(index, "what rare", 2)
    # a common weight of 1.5 cannot tie, so only the two candidates are scored
    index = _weighted_index([1.0, 1.5, 1.0, 1.0, 1.0, 1.0])
    assert _assert_top_k_as_bincount(index, "what rare", 2) == 2
    assert _hit_tuples(index, "what rare", 2, "sparse") == [(0, 3.0), (5, 2.0)]
    # a repeated common token counts twice in the bound: row 1 ties row 5 at 3.0
    assert _assert_top_k_as_bincount(index, "what what rare", 2) == 6
    assert _hit_tuples(index, "what what rare", 2, "sparse") == [(0, 4.0), (1, 3.0)]


def _common_corpus(n=40):
    """'what is the' in every text; 'of' in every other; one of 10 topics each."""
    return [f"what is the {'of ' * (i % 2)}topic{i % 10} item{i}" for i in range(n)]


def test_pruning_adds_repeated_query_tokens_as_the_bincount_does():
    index = QuestionIndex(_arrays(range(40), _common_corpus()))
    for query in ("what topic3 what topic3 of topic3", "of of topic1 the topic2 item12 is"):
        assert _assert_top_k_as_bincount(index, query, 4) < 40


def test_pruning_falls_back_without_an_essential_token_or_enough_candidates():
    index = QuestionIndex(_arrays(range(40), _common_corpus()))
    for query, k in (("what is the of", 3), ("the what unseen", 3), ("what topic4", 5)):
        # no essential token, or 'topic4' in 4 rows only: every positive row is scored
        assert _assert_top_k_as_bincount(index, query, k) == 40
    assert _assert_top_k_as_bincount(index, "what topic4", 4) == 4


@pytest.mark.parametrize("texts", [[], ["what is it?"]])
def test_pruning_on_an_empty_and_a_one_question_index(texts):
    index = QuestionIndex(_arrays(range(len(texts)), texts))
    assert len(index.sparse.peaks) == len(index.sparse.token_ids)
    for query in ("what", "what is", "unseen", ""):
        assert _assert_top_k_as_bincount(index, query, 1) == len(index.sparse.scores(tokenize(query)))


_COMMON, _RARE = ["what", "is", "the", "of"], ["alpha", "beta", "gamma", "delta", "eta"]


@settings(max_examples=200, deadline=None)
@given(docs=st.lists(st.tuples(st.sets(st.sampled_from(_COMMON)),
                               st.lists(st.sampled_from(_RARE), max_size=3)), min_size=1, max_size=40),
       query=st.lists(st.sampled_from(_COMMON + _RARE + ["unseen"]), max_size=7),
       k=st.integers(1, 45))
def test_pruned_top_k_is_the_bincount_top_k(docs, query, k):
    # 'what' is in every text, and the other common words in more than a quarter of most
    texts = [" ".join(["what", *sorted(common), *rare]) for common, rare in docs]
    index = QuestionIndex(_arrays(range(len(texts)), texts))
    _assert_top_k_as_bincount(index, " ".join(query), k)


# ------------------------------------------------------------- aggregation


def _hits(*pairs):
    ranked = sorted(pairs, key=lambda kv: (-kv[1], kv[0]))
    return [RetrievalHit(qid, score) for qid, score in ranked]


def test_max_takes_best_question_score():
    db = build_db([("p", "a", "q one?"), ("p", "b", "q two?")])
    qids = [q.qid for q in db.questions]
    scored = score_passages_max(build_index(db), _hits((qids[0], 0.2), (qids[1], 0.9)))
    assert len(scored) == 1
    assert scored[0].passage_id == "p"
    assert scored[0].score == 0.9


def test_max_omits_unhit_passages():
    db = build_db([("p1", "a", "q one?"), ("p2", "b", "q two?")])
    qid_one = next(q.qid for q in db.questions if q.question == "q one?")
    scored = score_passages_max(build_index(db), _hits((qid_one, 1.0)))
    assert [ps.passage_id for ps in scored] == ["p1"]


def test_count_counts_topk_questions_per_passage():
    db = build_db(
        [("p1", "a", "q a?"), ("p1", "b", "q b?"), ("p1", "c", "q c?"), ("p2", "d", "q d?")]
    )
    by_text = {q.question: q.qid for q in db.questions}
    hits = _hits((by_text["q a?"], 4.0), (by_text["q b?"], 3.0), (by_text["q c?"], 2.0), (by_text["q d?"], 1.0))
    scored = score_passages_count(build_index(db), hits)
    assert [(ps.passage_id, ps.score) for ps in scored] == [("p1", 3.0), ("p2", 1.0)]


def test_count_respects_k_cutoff():
    # both questions match; only the better one is among the k_questions=1 hits
    db = build_db([("p1", "a", "tall stadium?"), ("p2", "b", "tall stadium roof?")])
    index = build_index(db)
    scored = retrieve_passages(index, "tall stadium", method="count", k_questions=1)
    assert [(ps.passage_id, ps.score) for ps in scored] == [("p1", 1.0)]
    scored = retrieve_passages(index, "tall stadium", method="count", k_questions=2)
    assert [(ps.passage_id, ps.score) for ps in scored] == [("p1", 1.0), ("p2", 1.0)]


def test_count_multi_provenance_counts_once_per_passage():
    db = build_db([("p1", "a", "shared q?"), ("p2", "a", "shared q?")])
    qid = db.questions[0].qid
    scored = score_passages_count(build_index(db), _hits((qid, 1.0)))
    assert {(ps.passage_id, ps.score) for ps in scored} == {("p1", 1.0), ("p2", 1.0)}


def test_count_ties_break_by_max_score_then_id():
    db = build_db(
        [("pa", "a", "q low?"), ("pb", "b", "q high?"), ("pb", "c", "q mid?"), ("pa", "d", "q mid2?")]
    )
    by_text = {q.question: q.qid for q in db.questions}
    hits = _hits(
        (by_text["q high?"], 9.0),
        (by_text["q mid?"], 1.0),
        (by_text["q mid2?"], 5.0),
        (by_text["q low?"], 0.5),
    )
    scored = score_passages_count(build_index(db), hits)
    # both passages count 2; pb holds the single best-scoring question
    assert [ps.passage_id for ps in scored] == ["pb", "pa"]


def test_aggregation_rejects_a_hit_the_index_lacks():
    index = build_index(build_db([("p1", "a", "q one?"), ("p2", "b", "q two?")]))
    with pytest.raises(KeyError):
        score_passages_max(index, _hits((0, 1.0), (7, 0.5)))


def test_aggregation_matches_oracles_on_random_instances():
    rng = random.Random(42)
    for _ in range(50):
        db = random_database(rng, max_passages=10, max_questions=30)
        hits = random_hits(rng, db, max_hits=20)
        index = build_index(db)  # the oracles read the database itself
        got_max = [(ps.passage_id, ps.score) for ps in score_passages_max(index, hits)]
        assert got_max == max_aggregation_oracle(db, hits)
        k = rng.randint(1, 20)
        got_count = [(ps.passage_id, int(ps.score)) for ps in score_passages_count(index, hits[:k])]
        assert got_count == count_aggregation_oracle(db, hits, k)


# ------------------------------------------------------------- passages


def test_retrieve_passages_max_single_hit_returns_its_provenance():
    db = build_db([("p1", "a", "only question here?"), ("p2", "a", "only question here?")])
    index = build_index(db)
    scored = retrieve_passages(index, "only question here", method="max", top_n=5)
    assert {ps.passage_id for ps in scored} == {"p1", "p2"}


def test_retrieve_passages_direct_ranks_passages():
    corpus = Corpus(
        [
            Passage("p1", "T1", "michigan stadium hosts football"),
            Passage("p2", "T2", "crisler center hosts basketball"),
        ]
    )
    pindex = build_passage_index(corpus)
    scored = retrieve_passages(pindex, "michigan stadium", method="direct", top_n=2)
    assert scored[0].passage_id == "p1"


def test_top_n_prefix_property():
    db = random_database(random.Random(8), max_passages=12, max_questions=40)
    index = build_index(db)
    query = "generated question number 1"
    previous = []
    for top_n in (1, 2, 5, 10, 20):
        current = retrieve_passages(index, query, method="count", top_n=top_n)
        assert [ps.passage_id for ps in current[: len(previous)]] == [
            ps.passage_id for ps in previous
        ]
        previous = current


def test_unknown_method_and_mode_raise():
    db = _small_db()
    index = build_index(db)
    with pytest.raises(ValueError):
        retrieve_passages(index, "q", method="median")
    with pytest.raises(ValueError):
        retrieve_questions(index, "q", k=1, mode="cosine")


# ------------------------------------------------------------- bm25 oracle


def test_bm25_matches_direct_oracle_on_random_corpora():
    rng = random.Random(17)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    for _ in range(20):
        n_docs = rng.randint(1, 100)
        texts = [
            " ".join(rng.choices(vocab, k=rng.randint(1, 12))) + "?" for _ in range(n_docs)
        ]
        db = build_db([(f"p{i}", "x", text) for i, text in enumerate(texts)])
        index = build_index(db)
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        oracle = bm25_scores_direct(query, [q.question for q in db.questions])
        hits = retrieve_questions(index, query, k=n_docs, mode="sparse")
        got = {h.qid: h.score for h in hits}
        for qid, question in enumerate(q.question for q in db.questions):
            expected = oracle[qid]
            if expected > 0:
                assert got[qid] == pytest.approx(expected, abs=1e-9)
            else:
                assert qid not in got
        # ranking identical under (score desc, qid asc)
        expected_order = [
            qid
            for qid, score in sorted(
                ((i, s) for i, s in enumerate(oracle) if s > 0), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        assert [h.qid for h in hits] == expected_order


def test_tokenize_lowercases_word_chars():
    assert tokenize("Who? built-it in 1927!") == ["who", "built", "it", "in", "1927"]


# ------------------------------------------------------------- vector io


def test_vector_file_round_trip(tmp_path):
    matrix = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
    path = tmp_path / "vectors.qvec"
    save_vectors(str(path), matrix)
    loaded = load_vectors(str(path))
    assert loaded.dtype == np.float32 and loaded.shape == (3, 4)
    assert np.array_equal(loaded, matrix.astype(np.float32))


def test_vector_file_rejects_truncation(tmp_path):
    matrix = np.ones((2, 3))
    path = tmp_path / "vectors.qvec"
    save_vectors(str(path), matrix)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError):
        load_vectors(str(path))


def test_build_index_with_precomputed_vectors():
    db = _small_db()
    embedder = hashing_embedder(dim=16, seed=2)
    vectors = np.stack([embedder(q.question) for q in db.questions])
    index = build_index(db, embedder, dense_vectors=vectors)
    hits = retrieve_questions(index, db.questions[0].question, k=1, mode="dense")
    assert hits[0].qid == db.questions[0].qid
    assert hits[0].score == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("source", ["float64", "float32", "embedder"])
def test_non_finite_vectors_are_refused(source):
    # unrefused, the NaN scores made a k=2 query return [], not the min(k, n) hits promised
    vectors = np.array([[1.0, 0.0], [np.nan, 0.0], [np.inf, 1.0]])
    arrays = _arrays([0, 1, 2], ["a", "b", "c"])
    with pytest.raises(ValueError, match="NaN or infinity"):
        if source == "embedder":
            QuestionIndex(arrays, lambda text: vectors["abc".index(text)] if text else vectors[0])
        else:
            QuestionIndex(arrays, lambda text: np.zeros(2), dense_vectors=vectors.astype(source))


def test_dense_vectors_without_a_query_embedder_are_refused():
    # no dense query could read them, so they are refused at construction
    with pytest.raises(ContractViolation, match="without a query embedder"):
        QuestionIndex(_arrays([0, 1], ["a", "b"]), dense_vectors=np.ones((2, 4)))


def test_open_index_refuses_non_finite_vectors_without_a_rebuild(tmp_path, monkeypatch):
    path = tmp_path / "db.qadb"
    random_database(random.Random(3), 10, 40).save(path)
    index = open_index(path)
    forbid_database_parse(monkeypatch)
    vectors = np.ones((len(index.keys), 8), dtype=np.float32)
    vectors[-1, 3] = np.inf
    with pytest.raises(ValueError, match="NaN or infinity"):
        open_index(path, hashing_embedder(8), dense_vectors=vectors)


# ------------------------------------------------------------- index image


def test_empty_index_returns_no_hits_in_either_mode():
    index = QuestionIndex(_arrays([], []), hashing_embedder(8))
    assert index.screen.shape == (0, 8)
    assert retrieve_questions(index, "anything at all", 5, "dense") == []
    assert retrieve_questions(index, "anything at all", 5, "sparse") == []


def _answers(index, queries, mode="sparse"):
    return [
        [(ps.passage_id, ps.score) for ps in retrieve_passages(index, q, method=method, mode=mode)]
        for q in queries
        for method in ("max", "count")
    ]


@pytest.mark.parametrize("n_questions", [0, 40])
def test_image_round_trips_every_array(tmp_path, monkeypatch, n_questions):
    rng = random.Random(n_questions)
    db = random_database(rng, 10, n_questions) if n_questions else QADatabase([])
    path = tmp_path / "db.qadb"
    db.save(path)
    queries = ["generated question number 3", "number 1 7", "unseen words"]
    embedder = hashing_embedder(8, seed=2)
    cold = open_index(path, embedder)
    assert (tmp_path / "db.qadb.index.npz").is_file()
    forbid_database_parse(monkeypatch)
    warm = open_index(path, embedder)
    assert set(warm.arrays) == set(cold.arrays) | {"key"}
    for name, array in cold.arrays.items():
        assert warm.arrays[name].dtype == array.dtype, name
        assert np.array_equal(warm.arrays[name], array), name
    for name in ("vectors", "norms", "screen"):
        assert np.array_equal(getattr(warm, name), getattr(cold, name)), name
    for mode in ("sparse", "dense"):
        assert _answers(warm, queries, mode) == _answers(cold, queries, mode)
    assert bool(n_questions) == any(_answers(warm, queries))


def test_built_and_opened_indexes_hold_the_passage_table_as_arrays(tmp_path):
    path = tmp_path / "db.qadb"
    random_database(random.Random(8), 10, 40).save(path)
    for index in (build_index(QADatabase.load(path)), open_index(path), open_index(path)):
        assert isinstance(index.passage_offsets, np.ndarray), type(index.passage_offsets)
        assert isinstance(index.passage_cols, np.ndarray), type(index.passage_cols)


def test_an_opened_index_reads_only_the_members_its_mode_needs(tmp_path, monkeypatch):
    path = tmp_path / "db.qadb"
    random_database(random.Random(9), 10, 40).save(path)
    n_questions = len(open_index(path).keys)  # writes the image
    read = []
    member = np.lib.npyio.NpzFile.__getitem__
    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                        lambda self, name: read.append(name) or member(self, name))
    queries = ["generated question number 3", "number 1 7"]
    _answers(open_index(path), queries)
    assert "weights" in read and not {"text_utf8", "text_offsets"} & set(read)
    read.clear()
    vectors = np.ones((n_questions, 8), dtype=np.float32)
    _answers(open_index(path, hashing_embedder(8), dense_vectors=vectors), queries, "dense")
    assert "keys" in read
    assert not {"text_utf8", "text_offsets", "vocab", "offsets", "rows", "weights", "size"} & set(read)


def _other_database(tmp_path, path):
    other = tmp_path / "other.qadb"
    random_database(random.Random(4), 10, 40).save(other)
    open_index(other)
    shutil.copyfile(tmp_path / "other.qadb.index.npz", f"{path}.index.npz")


def _truncated(tmp_path, path):
    open_index(path)
    image = tmp_path / "db.qadb.index.npz"
    image.write_bytes(image.read_bytes()[: image.stat().st_size // 2])


@pytest.mark.parametrize("make_foreign", [_other_database, _truncated])
def test_foreign_image_is_rebuilt_and_replaced(tmp_path, monkeypatch, make_foreign):
    db = random_database(random.Random(3), 10, 40)
    path = tmp_path / "db.qadb"
    db.save(path)
    make_foreign(tmp_path, path)
    image = tmp_path / "db.qadb.index.npz"
    foreign = image.read_bytes()
    expected = build_index(db)
    builds = []
    monkeypatch.setattr(retrieval, "build_index", lambda *a, **k: builds.append(1) or expected)
    index = open_index(path)
    assert builds == [1]  # built from the database, not read from the foreign image
    assert image.read_bytes() != foreign
    forbid_database_parse(monkeypatch)
    warm = open_index(path)
    for name, array in expected.arrays.items():
        assert np.array_equal(warm.arrays[name], array), name
    queries = ["generated question number 5", "question 12"]
    assert _answers(warm, queries) == _answers(index, queries)


def test_image_key_names_the_bm25_constants(tmp_path):
    # images of another key are rebuilt, so a change here rebuilds every cached image
    path = tmp_path / "fixture.qadb"
    shutil.copyfile(Path(__file__).parent / "data" / "fixture.qadb", path)
    open_index(path)
    with np.load(f"{path}.index.npz") as image:
        key = image["key"].item()
    assert key == f"qadb index v2 k1=1.2 b=0.75 blake2b={hashlib.blake2b(path.read_bytes()).hexdigest()}"


def test_database_replaced_while_opening_is_indexed_from_the_bytes_hashed(tmp_path, monkeypatch):
    path = tmp_path / "db.qadb"
    hashed_db = random_database(random.Random(5), 10, 40)
    hashed_db.save(path)
    hashed = path.read_bytes()
    replacement = tmp_path / "replacement.qadb"
    random_database(random.Random(6), 10, 40).save(replacement)
    load = QADatabase.load

    def replace_then_load(*args, **kwargs):  # the database is parsed after hashing
        if replacement.exists():
            os.replace(replacement, path)
        return load(*args, **kwargs)

    monkeypatch.setattr(QADatabase, "load", replace_then_load)
    index = open_index(path)
    assert path.read_bytes() != hashed
    image = np.load(f"{path}.index.npz")
    assert image["key"].item().endswith(f"blake2b={hashlib.blake2b(hashed).hexdigest()}")
    for name, array in build_index(hashed_db).arrays.items():
        assert np.array_equal(index.arrays[name], array), name
        assert np.array_equal(image[name], array), name
