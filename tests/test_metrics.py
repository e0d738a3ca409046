import random

import pytest
from hypothesis import given, strategies as st

from oracles import rouge_l_oracle
from fixtures import TableQABackend

from qadb.errors import ContractViolation, ParseError
from qadb.metrics import (
    RECALL_KS,
    EvalExample,
    answer_recall_at_k,
    disambig_f1,
    dr_score,
    edit_f1,
    evaluate_longform,
    evaluate_retrieval_recall,
    load_examples,
    normalize_answer,
    rouge_l,
    str_em,
    token_f1,
)

# ---------------------------------------------------------------- normalize


def test_normalize_reference_example():
    # hand application of the rule sequence: lowercase -> strip punctuation
    # -> drop articles -> collapse whitespace
    assert normalize_answer("The Michigan Stadium!") == "michigan stadium"


def test_normalize_empty():
    assert normalize_answer("") == ""


@given(st.text(max_size=60))
def test_normalize_idempotent(s):
    once = normalize_answer(s)
    assert normalize_answer(once) == once


def test_normalize_drops_articles_only_standalone():
    assert normalize_answer("another theater") == "another theater"
    assert normalize_answer("a theater") == "theater"


# ---------------------------------------------------------------- recall@k


def test_recall_half():
    assert answer_recall_at_k(["text mentioning alpha only"], ["alpha", "beta"], 1) == 0.5


def test_recall_full():
    passages = ["alpha here", "and beta there"]
    assert answer_recall_at_k(passages, ["alpha", "beta"], 2) == 1.0


def test_recall_empty_gold_rejected():
    with pytest.raises(ContractViolation):
        answer_recall_at_k(["text"], [], 1)


def test_recall_monotone_in_k():
    rng = random.Random(7)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    for _ in range(50):
        passages = [
            " ".join(rng.choices(words, k=rng.randint(1, 6))) for _ in range(rng.randint(1, 8))
        ]
        gold = rng.sample(words, k=rng.randint(1, 4))
        values = [answer_recall_at_k(passages, gold, k) for k in range(1, len(passages) + 1)]
        assert values == sorted(values)


# ---------------------------------------------------------------- rouge-l


def test_rouge_identical_is_100():
    assert rouge_l("the quick brown fox", ["the quick brown fox"]) == 100.0


def test_rouge_disjoint_is_0():
    assert rouge_l("aa bb", ["cc dd"]) == 0.0


def test_rouge_derived_example():
    # candidate "a c d" vs reference "a b c d": LCS=3, P=1.0, R=0.75
    expected = 100.0 * 2 * 1.0 * 0.75 / 1.75
    assert rouge_l("a c d", ["a b c d"]) == pytest.approx(expected)
    assert rouge_l("a c d", ["a b c d"]) == pytest.approx(85.714, abs=0.001)


def test_rouge_takes_best_reference():
    assert rouge_l("a b", ["zz", "a b"]) == 100.0


def test_rouge_empty_candidate():
    assert rouge_l("", ["a b"]) == 0.0


def test_rouge_f_symmetric_single_reference():
    rng = random.Random(11)
    vocab = "abcdef"
    for _ in range(100):
        x = " ".join(rng.choices(vocab, k=rng.randint(1, 10)))
        y = " ".join(rng.choices(vocab, k=rng.randint(1, 10)))
        assert rouge_l(x, [y]) == pytest.approx(rouge_l(y, [x]))


def test_rouge_matches_recursive_oracle():
    rng = random.Random(3)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        cand = " ".join(rng.choices(vocab, k=rng.randint(0, 15)))
        refs = [" ".join(rng.choices(vocab, k=rng.randint(1, 15)))]
        assert rouge_l(cand, refs) == rouge_l_oracle(cand, refs)


# ---------------------------------------------------------------- str-em


def test_str_em_partial_and_full():
    assert str_em("output mentions alpha", ["alpha", "beta"]) == 0.5
    assert str_em("alpha and beta", ["alpha", "beta"]) == 1.0


def test_str_em_normalized_containment():
    assert str_em("saw The Michigan Stadium!", ["michigan stadium"]) == 1.0


# ---------------------------------------------------------------- token f1


def test_token_f1_identical():
    assert token_f1("michigan stadium", "michigan stadium") == 1.0


def test_token_f1_disjoint():
    assert token_f1("aa bb", "cc dd") == 0.0


def test_token_f1_articles_removed():
    assert token_f1("michigan stadium", "the michigan stadium") == 1.0


def test_token_f1_empty_cases():
    assert token_f1("", "") == 1.0
    assert token_f1("the", "") == 1.0  # both normalize to empty
    assert token_f1("word", "") == 0.0
    assert token_f1("", "word") == 0.0


# ---------------------------------------------------------------- disambig


def test_disambig_f1_full_and_zero():
    pairs = (("q one?", "alpha"), ("q two?", "beta"))
    backend = TableQABackend({"q one?": "alpha", "q two?": "beta"})
    assert disambig_f1("contains alpha and beta", pairs, backend) == 100.0
    assert disambig_f1("mentions nothing relevant", pairs, backend) == 0.0


def test_disambig_f1_requires_pairs():
    with pytest.raises(ContractViolation):
        disambig_f1("text", (), TableQABackend({}))


# ---------------------------------------------------------------- dr


def test_dr_reference_pairs():
    assert dr_score(43.8, 28.9) == 35.6
    assert dr_score(31.1, 16.7) == 22.8


def test_dr_zero_annihilates():
    for x in (0.0, 1.0, 50.0, 99.9):
        assert dr_score(x, 0.0) == 0.0


def test_dr_rejects_negative():
    with pytest.raises(ContractViolation):
        dr_score(-1.0, 10.0)


# ---------------------------------------------------------------- edit f1


def test_edit_f1_identical_edits():
    original = "where is the stadium?"
    assert edit_f1(original, "where is the stadium men's football?", "where is the stadium men's football?") == 100.0


def test_edit_f1_prediction_makes_no_edit():
    original = "where is the stadium?"
    assert edit_f1(original, original, "where is the bigger stadium?") == 0.0


def test_edit_f1_partial_overlap():
    original = "where is the stadium?"
    prediction = "where is the stadium football?"
    gold = "where is the stadium men's football?"
    # prediction adds {football}; gold adds {mens, football}: P=1, R=0.5
    assert edit_f1(original, prediction, gold) == pytest.approx(100 * 2 * 0.5 / 1.5)


def test_edit_f1_no_edits_anywhere():
    assert edit_f1("same question?", "same question?", "same question?") == 100.0


def test_edit_f1_counts_deletions_separately():
    original = "alpha beta?"
    assert edit_f1(original, "alpha?", "alpha beta gamma?") == 0.0  # delete vs add


# ---------------------------------------------------------------- invariance


def test_str_em_and_recall_invariant_under_rewrites():
    from fixtures import normalization_preserving_rewrite

    rng = random.Random(23)
    gold = ["michigan stadium", "crisler center"]
    candidate = "the michigan stadium hosts football while crisler center hosts basketball"
    base_em = str_em(candidate, gold)
    base_recall = answer_recall_at_k([candidate], gold, 1)
    for _ in range(100):
        rewritten = normalization_preserving_rewrite(rng, candidate)
        assert str_em(rewritten, gold) == base_em
        assert answer_recall_at_k([rewritten], gold, 1) == base_recall


# ---------------------------------------------------------------- reports


def _examples():
    return [
        EvalExample(
            query_id="q1",
            question="ambiguous?",
            gold_answers=("alpha", "beta"),
            disambiguations=(("which a?", "alpha"), ("which b?", "beta")),
            gold_long_answers=("alpha is one answer and beta is the other",),
        ),
        EvalExample(query_id="q2", question="single?", gold_answers=("gamma",)),
    ]


def test_evaluate_longform_report():
    backend = TableQABackend({"which a?": "alpha", "which b?": "beta"})
    predictions = {"q1": "alpha is one answer and beta is the other"}
    report = evaluate_longform(predictions, _examples(), backend)
    row = report.per_query["q1"]
    assert row["rouge_l"] == 100.0
    assert row["str_em"] == 1.0
    assert row["disambig_f1"] == 100.0
    assert row["dr"] == dr_score(row["rouge_l"], row["disambig_f1"])
    assert any("q2" in w for w in report.warnings)
    # LEN: the mean whitespace word count over the scored queries, 0.0 over none
    assert report.macro["LEN"] == 9.0
    predictions = {"q1": "one two", "q2": "three four five six"}
    assert evaluate_longform(predictions, _examples(), backend).macro["LEN"] == 3.0
    assert evaluate_longform({}, _examples(), backend).macro["LEN"] == 0.0


def test_evaluate_longform_warns_of_missing_and_unknown_predictions():
    predictions = {"zz": "late", "q1": "alpha and beta", "q0": "early"}
    report = evaluate_longform(predictions, _examples(), TableQABackend({}))
    assert report.warnings == ["no prediction for query q2", "prediction for unknown query zz",
                               "prediction for unknown query q0"]
    assert list(report.per_query) == ["q1"]


def test_evaluate_retrieval_excludes_single_answer_queries():
    report = evaluate_retrieval_recall(
        {"q1": ["alpha text", "beta text"], "q2": ["gamma text"]},
        _examples(),
    )
    assert "q1" in report.per_query
    assert "q2" not in report.per_query
    assert any("q2" in w for w in report.warnings)
    row = report.per_query["q1"]
    assert list(row) == ["recall@1", "recall@5", "recall@10"]
    assert row["recall@1"] <= row["recall@5"] <= row["recall@10"]
    assert row["recall@1"] < row["recall@5"]  # beta is found at rank 2


def test_macro_values_in_convex_hull():
    report = evaluate_retrieval_recall(
        {"q1": ["alpha text"], "q3": ["nothing here"]},
        [
            EvalExample(query_id="q1", question="?", gold_answers=("alpha", "beta")),
            EvalExample(query_id="q3", question="?", gold_answers=("delta", "eps")),
        ],
    )
    for k in RECALL_KS:
        values = [row[f"recall@{k}"] for row in report.per_query.values()]
        assert min(values) <= report.macro[f"recall@{k}"] <= max(values)


def test_load_examples_parses_records():
    lines = [
        '{"query_id": "q1", "question": "x?", "gold_answers": ["a", "b"],'
        ' "disambiguations": [["xq?", "a"]], "gold_long_answers": ["long"]}'
    ]
    examples = load_examples(lines)
    assert examples[0].gold_answers == ("a", "b")
    assert examples[0].disambiguations == (("xq?", "a"),)
    assert examples[0].is_multi_answer


def test_load_examples_errors_name_source_and_line():
    lines = ['{"query_id": "q1", "gold_answers": ["a"]}', '{"query_id": "q2"}']
    with pytest.raises(ParseError, match="^gold.jsonl: line 2: missing or mistyped field 'gold_answers'"):
        load_examples(lines, "gold.jsonl")
