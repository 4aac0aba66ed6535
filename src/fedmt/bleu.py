"""Corpus BLEU from n-gram counts, and macro/micro aggregates.

Standard BLEU-4: geometric mean of modified n-gram precisions (n=1..4)
times the brevity penalty, scaled to 0-100. Precisions for n >= 2 get
add-one smoothing so the 4-12 token toy sentences produce usable scores;
a zero unigram precision short-circuits to 0. Hypotheses and references
are token sequences (a run scores the token ids the decoder emits); one
reference per hypothesis. BLEU is a function of additive counts, so each
sentence's n-grams are counted once and micro BLEU scores their sum.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Hashable, Mapping, Sequence

Tokens = Sequence[Hashable]
# clipped matches and hypothesis n-grams for n = 1..MAX_ORDER, then the
# hypothesis and the reference length, each summed over a corpus
Counts = tuple[int, ...]

MAX_ORDER = 4


def _ngrams(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def counts(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> Counts:
    """The BLEU counts of a corpus."""
    if not hypotheses:
        raise ValueError("need at least one hypothesis")
    if len(hypotheses) != len(references):
        raise ValueError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if any(len(r) == 0 for r in references):
        raise ValueError("references must be non-empty")
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    for hyp, ref in zip(hypotheses, references):
        for n in range(1, MAX_ORDER + 1):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )
    return (*matches, *totals, sum(map(len, hypotheses)), sum(map(len, references)))


def score(corpus: Counts) -> float:
    """BLEU of a corpus's counts."""
    matches, totals = corpus[:MAX_ORDER], corpus[MAX_ORDER : 2 * MAX_ORDER]
    hyp_len, ref_len = corpus[2 * MAX_ORDER :]
    if matches[0] == 0:  # an empty hypothesis corpus too
        return 0.0
    log_precision_sum = math.log(matches[0] / totals[0])
    for n in range(2, MAX_ORDER + 1):
        log_precision_sum += math.log((matches[n - 1] + 1) / (totals[n - 1] + 1))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision_sum / MAX_ORDER)


def pair_scores(pair_counts: Mapping[str, Counts]) -> dict[str, float]:
    """Corpus BLEU of each client's counts, by client id."""
    scores = {cid: score(c) for cid, c in pair_counts.items()}
    for cid, value in scores.items():
        if not 0.0 <= value <= 100.0:
            raise ValueError(f"client {cid}: BLEU out of range: {value}")
    return scores


PairOutputs = Mapping[str, tuple[Sequence[Tokens], Sequence[Tokens]]]


def macro_micro(outputs: PairOutputs) -> tuple[dict[str, float], float, float]:
    """BLEU by client id, their macro and the micro score. Macro: unweighted
    mean of the clients' BLEU. Micro: the score of the clients' summed
    counts, which is corpus BLEU over the pooled hypotheses/references."""
    if not outputs:
        raise ValueError("need at least one language pair")
    pair_counts = {cid: counts(hyps, refs) for cid, (hyps, refs) in outputs.items()}
    scores = pair_scores(pair_counts)
    micro = score(tuple(map(sum, zip(*pair_counts.values()))))
    return scores, sum(scores.values()) / len(scores), micro
