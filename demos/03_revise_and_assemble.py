"""Question revision and long-form input assembly.

Revision moves answer-specific detail from a passage into a question, one
round at a time (two rounds by default; later rounds tend to repeat
themselves and stop at a fixpoint). The revised (answer, question) pairs
then become the compact "conditions" block of a long-form generation
input, far shorter than pasting whole passages.
"""

from qadb import Passage, StubBackend, assemble_longform_input, revise_iterative

QUESTION = "where is the home stadium of michigan wolverines?"

PASSAGES = {
    "Michigan Stadium": Passage(
        "football#0",
        "Football",
        "michigan wolverines men's football team plays at michigan stadium built "
        "in 1927 and nicknamed the big house for its size, seating more than a "
        "hundred thousand spectators on autumn saturdays when the team hosts "
        "rivals from across the conference in ann arbor",
    ),
    "Crisler Center": Passage(
        "basketball#0",
        "Basketball",
        "michigan wolverines men's basketball team fills crisler center every "
        "winter, an indoor arena completed decades after the football stadium "
        "and renovated several times to add practice courts, a museum wing and "
        "modern seating for loyal supporters near south campus",
    ),
}


def main() -> None:
    backend = StubBackend()
    conditions = []
    for answer, passage in PASSAGES.items():
        record = revise_iterative(QUESTION, answer, passage, backend)
        print(f"answer: {answer}")
        print(f"  original : {record.original_question}")
        for i, round_output in enumerate(record.rounds, start=1):
            print(f"  round {i}  : {round_output}")
        print(f"  final    : {record.final}\n")
        conditions.append((answer, record.final))

    assembled = assemble_longform_input(QUESTION, conditions, [])
    print("long-form generation input (conditions only):")
    print(f"  {assembled}\n")

    condition_words = sum(len(f"{a} {q}".split()) for a, q in conditions)
    passage_words = sum(len(p.text.split()) for p in PASSAGES.values())
    print(
        f"the two conditions take {condition_words} words; pasting their source "
        f"passages instead would take {passage_words}"
    )


if __name__ == "__main__":
    main()
