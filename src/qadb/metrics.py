"""Evaluation machinery for multi-answer retrieval and long-form answers.

Two matching rules coexist on purpose and are easy to confuse:

* database answer coverage uses whole-string equality of normalized
  answers (see ``qadb.database``),
* ``str_em`` and ``answer_recall_at_k`` here use substring containment
  of normalized forms ("is the answer mentioned in the text").
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from . import jsonl
from .backend import NOT_ANSWERABLE, GenerationRequest, reading_qa_prompt
from .errors import ContractViolation, ParseError

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(s: str) -> str:
    """Normalize an answer string the way extractive QA evaluations do.

    Lowercase, delete punctuation, drop standalone articles (a/an/the),
    collapse whitespace. Idempotent.
    """
    s = s.lower()
    s = s.translate(_PUNCT_TABLE)
    s = _ARTICLES.sub(" ", s)
    return " ".join(s.split())


def normalized_tokens(s: str) -> list[str]:
    return normalize_answer(s).split()


def token_f1(prediction: str, gold: str) -> float:
    """Harmonic mean of token precision/recall over normalized multisets.

    Both sides empty -> 1.0; exactly one empty -> 0.0.
    """
    pred = normalized_tokens(prediction)
    ref = normalized_tokens(gold)
    if not pred and not ref:
        return 1.0
    if not pred or not ref:
        return 0.0
    overlap = sum((Counter(pred) & Counter(ref)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(ref)
    return 2 * precision * recall / (precision + recall)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # Iterative DP over two rows; the test oracle uses the recursive definition.
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[len(b)]


def rouge_l(candidate: str, references: Sequence[str]) -> float:
    """LCS F1 over whitespace tokens, best reference kept, scaled to [0, 100].

    Tokens are raw whitespace tokens (no stemming, no case folding); the
    choice is recorded in evaluation report headers.
    """
    if not references:
        raise ContractViolation("rouge_l requires at least one reference")
    cand = candidate.split()
    if not cand:
        return 0.0
    best = 0.0
    for reference in references:
        ref = reference.split()
        if not ref:
            continue
        lcs = _lcs_length(cand, ref)
        if lcs == 0:
            continue
        precision = lcs / len(cand)
        recall = lcs / len(ref)
        best = max(best, 2 * precision * recall / (precision + recall))
    return 100.0 * best


def str_em(candidate: str, gold_answers: Iterable[str]) -> float:
    """Fraction of gold answers mentioned (normalized substring) in the candidate."""
    gold = list(gold_answers)
    if not gold:
        raise ContractViolation("str_em requires a non-empty gold answer set")
    haystack = normalize_answer(candidate)
    found = sum(1 for answer in gold if normalize_answer(answer) in haystack)
    return found / len(gold)


def answer_recall_at_k(retrieved: Sequence[str], gold_answers: Iterable[str], k: int) -> float:
    """Fraction of gold answers mentioned in the concatenated top-k passage texts.

    ``retrieved`` is a ranked sequence of passage texts.
    """
    if k < 1:
        raise ContractViolation(f"k must be >= 1, got {k}")
    return str_em(" ".join(retrieved[:k]), gold_answers)


def disambig_f1(
    long_answer: str,
    disambiguations: Sequence[tuple[str, str]],
    qa_backend,
) -> float:
    """Average QA-extraction F1 of disambiguated answers against a long answer.

    For each (question, gold answer) pair the QA backend reads the long
    answer as context; an unanswerable prediction scores 0. Scaled to
    [0, 100].
    """
    if not disambiguations:
        raise ContractViolation("disambig_f1 requires at least one disambiguation")
    scores = []
    for question, gold in disambiguations:
        [response] = qa_backend.generate_batch(
            [GenerationRequest(prompt=reading_qa_prompt(question, long_answer))]
        )
        prediction = response.candidates[0]
        if prediction == NOT_ANSWERABLE:
            scores.append(0.0)
        else:
            scores.append(token_f1(prediction, gold))
    return 100.0 * sum(scores) / len(scores)


def dr_score(rouge_l_value: float, disambig_f1_value: float) -> float:
    """Geometric mean of ROUGE-L and DISAMBIG-F1, rounded to one decimal."""
    if rouge_l_value < 0 or disambig_f1_value < 0:
        raise ContractViolation("dr_score inputs must be non-negative")
    return round(math.sqrt(rouge_l_value * disambig_f1_value), 1)


def _edit_multiset(original: str, revised: str) -> Counter:
    """Tagged multiset of edits turning ``original`` into ``revised``.

    Added tokens are tagged "+", deleted tokens "-"; token identity is
    the normalized form.
    """
    before = Counter(normalized_tokens(original))
    after = Counter(normalized_tokens(revised))
    edits: Counter = Counter()
    for token, count in (after - before).items():
        edits[("+", token)] = count
    for token, count in (before - after).items():
        edits[("-", token)] = count
    return edits


def edit_f1(original_question: str, revised_prediction: str, revised_gold: str) -> float:
    """F1 over the edits a revision makes relative to the original question.

    Both edit sets empty -> 100; exactly one empty -> 0. Scaled to [0, 100].
    """
    predicted = _edit_multiset(original_question, revised_prediction)
    gold = _edit_multiset(original_question, revised_gold)
    if not predicted and not gold:
        return 100.0
    if not predicted or not gold:
        return 0.0
    overlap = sum((predicted & gold).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(predicted.values())
    recall = overlap / sum(gold.values())
    return 100.0 * 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class EvalExample:
    """One gold evaluation item: a question with its multi-answer annotations."""

    query_id: str
    question: str
    gold_answers: tuple[str, ...]
    disambiguations: tuple[tuple[str, str], ...] = ()
    gold_long_answers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.gold_answers:
            raise ValueError(f"example {self.query_id!r} has no gold answers")

    @property
    def is_multi_answer(self) -> bool:
        unique = {normalize_answer(a) for a in self.gold_answers}
        return len(unique) >= 2


_EXAMPLE = {"query_id": (str, int), "question": str, "gold_answers": [str],
            "disambiguations": [[str]], "gold_long_answers": [str]}


def load_examples(lines: Iterable[str], source: str = "") -> list[EvalExample]:
    """Parse line-delimited JSON gold records into EvalExamples.

    Error messages start with ``source``, the file name, when one is given.
    """
    prefix = f"{source}: " if source else ""
    examples = []
    for lineno, record in jsonl.parse_lines(lines, source):
        record = {"question": "", "disambiguations": [], "gold_long_answers": [], **record}
        jsonl.check(record, _EXAMPLE, source, lineno)
        try:
            examples.append(
                EvalExample(
                    query_id=str(record["query_id"]),
                    question=record["question"],
                    gold_answers=tuple(record["gold_answers"]),
                    disambiguations=tuple((q, a) for q, a in record["disambiguations"]),
                    gold_long_answers=tuple(record["gold_long_answers"]),
                )
            )
        except ValueError as exc:  # no gold answers, or a disambiguation that is not a pair
            raise ParseError(f"{prefix}line {lineno}: {exc}") from exc
    return examples


@dataclass
class EvalReport:
    """Per-query metric values plus their macro averages."""

    task: str
    per_query: dict[str, dict[str, float]] = field(default_factory=dict)
    macro: dict[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    config_notes: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "macro": self.macro,
            "per_query": self.per_query,
            "warnings": self.warnings,
            "config_notes": self.config_notes,
        }


def _macro(per_query: dict[str, dict[str, float]], metric: str) -> float:
    values = [row[metric] for row in per_query.values() if metric in row]
    return sum(values) / len(values) if values else 0.0


def evaluate_longform(
    predictions: dict[str, str],
    examples: Sequence[EvalExample],
    qa_backend,
    backend_label: str = "stub",
) -> EvalReport:
    """Score long-form answers: ROUGE-L, STR-EM, DISAMBIG-F1, DR, LEN."""
    report = EvalReport(
        task="longform",
        config_notes={
            "rouge_tokens": "whitespace, no stemming, no case folding",
            "disambig_backend": backend_label,
        },
    )
    for example in examples:
        output = predictions.get(example.query_id)
        if output is None:
            report.warnings.append(f"no prediction for query {example.query_id}")
            continue
        row: dict[str, float] = {"LEN": float(len(output.split()))}
        if example.gold_long_answers:
            row["rouge_l"] = rouge_l(output, example.gold_long_answers)
        row["str_em"] = str_em(output, example.gold_answers)
        if example.disambiguations:
            row["disambig_f1"] = disambig_f1(output, example.disambiguations, qa_backend)
        if "rouge_l" in row and "disambig_f1" in row:
            row["dr"] = dr_score(row["rouge_l"], row["disambig_f1"])
        report.per_query[example.query_id] = row
    known = {e.query_id for e in examples}
    for query_id in predictions:
        if query_id not in known:
            report.warnings.append(f"prediction for unknown query {query_id}")
    for metric in ("rouge_l", "str_em", "disambig_f1", "LEN"):
        report.macro[metric] = _macro(report.per_query, metric)
    if report.per_query:
        report.macro["dr"] = dr_score(
            report.macro.get("rouge_l", 0.0), report.macro.get("disambig_f1", 0.0)
        )
    return report


def evaluate_retrieval_recall(
    retrieved_texts: dict[str, list[str]],
    examples: Sequence[EvalExample],
    ks: Sequence[int] = (1, 5, 10),
) -> EvalReport:
    """Answer recall@k of ranked passage texts, macro-averaged over queries.

    Only multi-answer queries are scored: a query whose gold set has a
    single unique answer is excluded and reported as a warning.
    """
    report = EvalReport(task="retrieval", config_notes={"ks": ",".join(map(str, ks))})
    for example in examples:
        texts = retrieved_texts.get(example.query_id)
        if texts is None:
            report.warnings.append(f"no retrieval results for query {example.query_id}")
            continue
        if not example.is_multi_answer:
            report.warnings.append(
                f"query {example.query_id} excluded: fewer than 2 unique answers"
            )
            continue
        report.per_query[example.query_id] = {
            f"recall@{k}": answer_recall_at_k(texts, example.gold_answers, k) for k in ks
        }
    for k in ks:
        report.macro[f"recall@{k}"] = _macro(report.per_query, f"recall@{k}")
    return report
