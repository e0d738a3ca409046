"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines. Criterion 1 checks ``dr_score`` against every row of the
published long-form results table at the precision the table has: each
printed input stands for a true value within +-0.05 of it, so a row
reproduces when its printed DR is one that inputs rounding to the printed
ones can give. The one row that no such inputs reproduce is recorded as an
erratum in ``qadb.reference_results.DR_ERRATA``, and the criterion requires
the rows out of range to be exactly the recorded errata.
"""

import random

import pytest

from fixtures import (
    DIVERSITY_GOLD,
    DIVERSITY_QUERY,
    make_diversity_corpus,
    make_toy_corpus,
    normalization_preserving_rewrite,
    random_database,
    random_hits,
)
from oracles import (
    bm25_scores_direct,
    count_aggregation_oracle,
    max_aggregation_oracle,
    rouge_l_oracle,
)

from qadb.backend import StubBackend
from qadb.construction import build_database
from qadb.database import merge_questions
from qadb.metrics import answer_recall_at_k, dr_score, normalize_answer, rouge_l, str_em
from qadb.reference_results import ASQA_LONGFORM, DR_ERRATA
from qadb.retrieval import (
    build_index,
    build_passage_index,
    retrieve_passages,
    retrieve_questions,
    score_passages_count,
    score_passages_max,
)
from qadb.revision import revise_iterative

STUB = StubBackend()


def _report(number: int, name: str, passed: bool = True, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")


def _tenths(value: float) -> int:
    return round(value * 10)


def test_criterion_1_dr_reproduction():
    """dr_score reproduces every published DR up to the rounding of its inputs.

    A printed input r stands for a true value in [r - 0.05, r + 0.05], and
    the table's DR was computed from the true values. dr_score is monotone
    in both inputs, so the printed DR values that inputs rounding to (r, d)
    can give are exactly the one-decimal values from
    dr_score(r - 0.05, d - 0.05) to dr_score(r + 0.05, d + 0.05). Both ends
    come from dr_score itself and are compared in integer tenths, so float
    noise plays no part. The rows outside their range must be exactly the
    recorded errata: the test fails if dr_score changes, if another row
    stops reproducing, or if an erratum row starts reproducing.
    """
    outside = {}
    for row in ASQA_LONGFORM:
        low = _tenths(dr_score(row.rouge_l - 0.05, row.disambig_f1 - 0.05))
        high = _tenths(dr_score(row.rouge_l + 0.05, row.disambig_f1 + 0.05))
        if not low <= _tenths(row.dr) <= high:
            outside[row.system] = (
                f"{row.system}: printed DR {row.dr}, allowed {low / 10:.1f}..{high / 10:.1f} "
                f"from ROUGE-L {row.rouge_l} +-0.05, DISAMBIG-F1 {row.disambig_f1} +-0.05"
            )
    # spot checks called out with the criterion
    assert dr_score(43.8, 28.9) == pytest.approx(35.6, abs=0.05)
    assert dr_score(31.1, 16.7) == pytest.approx(22.8, abs=0.05)
    problems = [line for system, line in outside.items() if system not in DR_ERRATA]
    problems += [
        f"{system}: recorded as a DR erratum ({reason}) but reproduces"
        for system, reason in DR_ERRATA.items()
        if system not in outside
    ]
    if problems:
        _report(1, "dr-reproduction", passed=False, detail=f"{len(problems)} unexpected rows")
        pytest.fail(
            "printed DR values vs dr_score over the rounding range of their "
            "printed inputs:\n  " + "\n  ".join(problems)
        )
    _report(
        1,
        "dr-reproduction",
        detail=f"{len(ASQA_LONGFORM) - len(outside)} of {len(ASQA_LONGFORM)} rows reproduce, "
        f"{len(outside)} recorded in DR_ERRATA",
    )


def test_criterion_2_aggregation_oracle_equivalence():
    """max/count aggregation equals brute-force scoring on 1000 random instances."""
    rng = random.Random(2024)
    for i in range(1000):
        db = random_database(rng, max_passages=50, max_questions=200)
        hits = random_hits(rng, db, max_hits=50)

        index = build_index(db)  # the oracles read the database itself
        got_max = score_passages_max(index, hits)
        want_max = max_aggregation_oracle(db, hits)
        assert [ps.passage_id for ps in got_max] == [pid for pid, _ in want_max], f"instance {i}"
        for ps, (_, want_score) in zip(got_max, want_max):
            assert abs(ps.score - want_score) <= 1e-12, f"instance {i}"

        k = rng.randint(1, 50)
        got_count = [(ps.passage_id, int(ps.score)) for ps in score_passages_count(index, hits, k)]
        assert got_count == count_aggregation_oracle(db, hits, k), f"instance {i}"
    _report(2, "aggregation-oracle-equivalence")


def test_criterion_3_bm25_oracle():
    """Index BM25 matches a direct textbook computation within 1e-9, same ranking."""
    from fixtures import build_db

    rng = random.Random(404)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota"]
    for trial in range(25):
        n_docs = rng.randint(1, 100)
        texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 14))) + "?" for _ in range(n_docs)]
        db = build_db([(f"p{i}", "x", t) for i, t in enumerate(texts)])
        index = build_index(db)
        for _ in range(4):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            oracle = bm25_scores_direct(query, [q.question for q in db.questions])
            hits = retrieve_questions(index, query, k=n_docs, mode="sparse")
            got = {h.qid: h.score for h in hits}
            for qid, expected in enumerate(oracle):
                if expected > 0:
                    assert abs(got[qid] - expected) <= 1e-9, f"trial {trial}"
                else:
                    assert qid not in got, f"trial {trial}"
            expected_order = [
                qid
                for qid, _ in sorted(
                    ((i, s) for i, s in enumerate(oracle) if s > 0),
                    key=lambda kv: (-kv[1], kv[0]),
                )
            ]
            assert [h.qid for h in hits] == expected_order, f"trial {trial}"
    _report(3, "bm25-oracle")


def test_criterion_4_rouge_l_oracle():
    """rouge_l equals the recursive-LCS oracle exactly on 500 random pairs."""
    rng = random.Random(77)
    vocab = ["a", "b", "c", "d", "e", "f"]
    for _ in range(500):
        candidate = " ".join(rng.choices(vocab, k=rng.randint(0, 20)))
        reference = " ".join(rng.choices(vocab, k=rng.randint(1, 20)))
        assert rouge_l(candidate, [reference]) == rouge_l_oracle(candidate, [reference])
    _report(4, "rouge-l-oracle")


def test_criterion_5_normalization_properties():
    """normalize_answer idempotence/example; str_em and recall rewrite-invariant."""
    assert normalize_answer("The Michigan Stadium!") == "michigan stadium"
    rng = random.Random(55)
    vocab = ["michigan", "stadium", "crisler", "center", "hosts", "games", "tonight"]
    for _ in range(200):
        text = " ".join(rng.choices(vocab, k=rng.randint(0, 10)))
        once = normalize_answer(text)
        assert normalize_answer(once) == once
    gold = ["michigan stadium", "crisler center"]
    for _ in range(200):
        candidate = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
        base_em = str_em(candidate, gold)
        base_recall = answer_recall_at_k([candidate], gold, 1)
        rewritten = normalization_preserving_rewrite(rng, candidate)
        assert str_em(rewritten, gold) == base_em
        assert answer_recall_at_k([rewritten], gold, 1) == base_recall
    _report(5, "normalization-properties")


def test_criterion_6_pipeline_funnel_properties(tmp_path):
    """Substring provenance, monotone funnel, byte-identical reruns, idempotent merge."""
    corpus = make_toy_corpus(20)

    db, report = build_database(corpus, STUB)
    assert report.verified <= report.generated <= report.detected
    for question in db:
        for entry in question.answers:
            assert any(entry.text in corpus[pid].text for pid in entry.passage_ids)

    first, second = tmp_path / "run1.qadb", tmp_path / "run2.qadb"
    db.save(first)
    db2, _ = build_database(corpus, StubBackend())
    db2.save(second)
    assert first.read_bytes() == second.read_bytes()

    assert merge_questions(db.flatten()) == db
    _report(6, "pipeline-funnel-properties")


def test_criterion_7_diversity_demonstration():
    """Count aggregation recovers all answers where direct BM25 drowns in duplicates."""
    corpus = make_diversity_corpus()
    assert len(corpus) == 30
    db, _ = build_database(corpus, STUB)
    index = build_index(db)
    passage_index = build_passage_index(corpus)

    def recall(method: str) -> float:
        scored = retrieve_passages(
            passage_index if method == "direct" else index,
            DIVERSITY_QUERY,
            method=method,
            top_n=5,
        )
        texts = [corpus[ps.passage_id].text for ps in scored]
        return answer_recall_at_k(texts, DIVERSITY_GOLD, 5)

    count_recall = recall("count")
    direct_recall = recall("direct")
    assert count_recall == 1.0
    assert direct_recall < 1.0
    _report(
        7,
        "diversity-demonstration",
        detail=f"count recall@5 = {count_recall:.3f}, direct recall@5 = {direct_recall:.3f}",
    )


def test_criterion_8_revision_contract():
    """<=2 rounds by default, fixpoint stop, detail accumulates round over round."""
    from qadb.corpus import Passage

    passage = Passage.from_text(
        "venue#0",
        "Football",
        "michigan wolverines men's football team built in 1927 remains famous",
    )
    record = revise_iterative(
        "where is the home stadium of michigan wolverines?", "Michigan Stadium", passage, STUB
    )
    assert len(record.rounds) <= 2
    original_tokens = set(record.original_question.rstrip("?").split())
    round1_added = set(record.rounds[0].rstrip("?").split()) - original_tokens
    round2_added = set(record.rounds[1].rstrip("?").split()) - original_tokens
    assert round1_added  # round 1 adds discriminating info
    assert round1_added < round2_added  # round 2 keeps it and adds more

    fixpoint_passage = Passage.from_text(
        "fix#0", "T", "the home stadium of michigan wolverines football"
    )
    fixed = revise_iterative(
        "where is the home stadium of michigan wolverines?",
        "Michigan Stadium",
        fixpoint_passage,
        STUB,
        max_rounds=5,
    )
    assert len(fixed.rounds) == 1  # fixpoint reached after one addition

    exhausted = revise_iterative(
        "alpha beta gamma delta epsilon zeta eta theta?", "x", fixpoint_passage, STUB, max_rounds=5
    )
    assert len(exhausted.rounds) <= 5
    _report(8, "revision-contract")


def test_criterion_9_recall_monotonicity():
    """recall@k <= recall@k' for k <= k' over random instances."""
    rng = random.Random(91)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    for _ in range(300):
        passages = [
            " ".join(rng.choices(vocab, k=rng.randint(1, 8))) for _ in range(rng.randint(1, 10))
        ]
        gold = rng.sample(vocab, k=rng.randint(1, 4))
        values = [answer_recall_at_k(passages, gold, k) for k in range(1, len(passages) + 1)]
        assert values == sorted(values)
    _report(9, "recall-monotonicity")
