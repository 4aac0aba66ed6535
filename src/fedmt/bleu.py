"""Corpus BLEU and macro/micro aggregates.

Standard BLEU-4: geometric mean of modified n-gram precisions (n=1..4)
times the brevity penalty, scaled to 0-100. Precisions for n >= 2 get
add-one smoothing so the 4-12 token toy sentences produce usable scores;
a zero unigram precision short-circuits to 0. Hypotheses and references
are token sequences (any hashable tokens); one reference per hypothesis.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Hashable, Mapping, Sequence

Tokens = Sequence[Hashable]

MAX_ORDER = 4


def _ngrams(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> float:
    if not hypotheses:
        raise ValueError("need at least one hypothesis")
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if any(len(r) == 0 for r in references):
        raise ValueError("references must be non-empty")

    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )

    if hyp_len == 0 or totals[0] == 0 or matches[0] == 0:
        return 0.0
    log_precision_sum = math.log(matches[0] / totals[0])
    for n in range(2, MAX_ORDER + 1):
        log_precision_sum += math.log((matches[n - 1] + 1) / (totals[n - 1] + 1))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision_sum / MAX_ORDER)


PairOutputs = Mapping[str, tuple[Sequence[Tokens], Sequence[Tokens]]]


def pair_scores(outputs: PairOutputs) -> dict[str, float]:
    """Corpus BLEU of each client's hypotheses, by client id."""
    scores = {cid: corpus_bleu(hyps, refs) for cid, (hyps, refs) in outputs.items()}
    for cid, score in scores.items():
        if not 0.0 <= score <= 100.0:
            raise ValueError(f"client {cid}: BLEU out of range: {score}")
    return scores


def macro_micro(outputs: PairOutputs) -> tuple[dict[str, float], float, float]:
    """BLEU by client id, their macro and the micro score. Macro: unweighted
    mean of the clients' BLEU. Micro: corpus BLEU over the pooled
    hypotheses/references of all clients."""
    if not outputs:
        raise ValueError("need at least one language pair")
    scores = pair_scores(outputs)
    macro = sum(scores.values()) / len(scores)
    pooled_hyps: list[Tokens] = []
    pooled_refs: list[Tokens] = []
    for hyps, refs in outputs.values():
        pooled_hyps.extend(hyps)
        pooled_refs.extend(refs)
    micro = corpus_bleu(pooled_hyps, pooled_refs)
    return scores, macro, micro
