"""Tour of the evaluation metrics on a worked long-form example.

Covers answer normalization, mention-style recall (STR-EM / recall@k),
ROUGE-L, extraction-style DISAMBIG-F1 with a pluggable QA backend, the
combined DR score, and EDIT-F1 for revision quality.
"""

from qadb import (
    EvalExample,
    dr_score,
    edit_f1,
    evaluate_longform,
    normalize_answer,
    rouge_l,
    str_em,
)
from qadb.backend import NOT_ANSWERABLE, GenerationResponse
from qadb.metrics import answer_recall_at_k


class LookupQA:
    """Tiny extractive-QA stand-in: answers when its span is in the context."""

    def __init__(self, table):
        self.table = table

    def generate_batch(self, requests):
        return [self.generate(request) for request in requests]

    def generate(self, request):
        question, _, context = request.prompt.removeprefix("question: ").partition(" context: ")
        answer = self.table.get(question)
        if answer and normalize_answer(answer) in normalize_answer(context):
            return GenerationResponse((answer,))
        return GenerationResponse((NOT_ANSWERABLE,))


def main() -> None:
    print("normalization quotient:")
    for raw in ("The Michigan Stadium!", "michigan  stadium", "MICHIGAN STADIUM"):
        print(f"  {raw!r:30} -> {normalize_answer(raw)!r}")

    gold_answers = ("Michigan Stadium", "Crisler Center")
    output = (
        "the michigan wolverines football team plays at michigan stadium while "
        "the basketball team uses crisler center"
    )
    reference = (
        "michigan stadium hosts the football team and crisler center hosts basketball"
    )

    print(f"\nSTR-EM   : {str_em(output, gold_answers):.2f}  (both answers mentioned)")
    print(f"ROUGE-L  : {rouge_l(output, [reference]):.1f}")
    print(f"recall@1 : {answer_recall_at_k([output], gold_answers, 1):.2f}")

    example = EvalExample(
        query_id="q1",
        question="where is the home stadium of the michigan wolverines?",
        gold_answers=gold_answers,
        disambiguations=(
            ("where does the football team play?", "Michigan Stadium"),
            ("where does the basketball team play?", "Crisler Center"),
        ),
        gold_long_answers=(reference,),
    )
    backend = LookupQA({q: a for q, a in example.disambiguations})
    report = evaluate_longform({"q1": output}, [example], backend)
    row = report.per_query["q1"]
    print(f"\nlong-form report for q1:")
    for metric in ("LEN", "rouge_l", "str_em", "disambig_f1", "dr"):
        print(f"  {metric:12} {row[metric]:.1f}")
    print(f"  dr really is sqrt product: {dr_score(row['rouge_l'], row['disambig_f1'])}")

    print("\nEDIT-F1 on revision edits:")
    original = "where is the home stadium of michigan wolverines?"
    gold_revision = "where is the home stadium of michigan wolverines men's football?"
    for prediction in (gold_revision, "where is the home stadium of michigan wolverines football?", original):
        score = edit_f1(original, prediction, gold_revision)
        print(f"  {score:5.1f}  {prediction}")


if __name__ == "__main__":
    main()
