"""Deterministic synthetic multilingual corpora.

Every language is a bijective substitution (a permutation of a shared latent
token alphabet) plus a language-specific sentence-final affix token. A
parallel sentence pair is one latent token sequence rendered through the
source and target substitutions, so translation is exactly learnable by a
small model and the family structure of the languages is a single knob:
languages in the same family share a fraction ``intra_family_overlap`` of
their substitution entries, while cross-family overlap sits at chance level
(or exactly zero when requested).

Strings stop here: ``make_batch`` encodes a whole split once, a pooled one
of several target languages included, and every batch after that is a
selection of its rows (``batches``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .model import Batch

Sentence = tuple[str, ...]
SentencePair = tuple[Sentence, Sentence]

PAD, BOS, EOS, UNK = 0, 1, 2, 3
_SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")


@dataclass(frozen=True)
class DataConfig:
    """The corpora: client sizes as a share of the reference layout's, and
    the languages and sentences every generator draws."""

    scale: float = 1.0 / 16.0
    alphabet_size: int = 64
    length_range: tuple[int, int] = (4, 12)
    intra_family_overlap: float = 1.0
    cross_family_overlap: float | None = None
    zipf_exponent: float = 1.0  # skewed latent symbols make token statistics a family signature

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError("data.scale must be positive")
        if self.alphabet_size < 8:
            raise ConfigurationError("data.alphabet_size must be >= 8")
        lo, hi = self.length_range
        if not (1 <= lo <= hi):
            raise ConfigurationError(f"data.length_range invalid: {self.length_range}")
        if not 0.0 <= self.intra_family_overlap <= 1.0:
            raise ConfigurationError("data.intra_family_overlap must be in [0, 1]")
        if self.cross_family_overlap not in (None, 0.0):
            raise ConfigurationError("data.cross_family_overlap must be null (chance) or 0.0")
        if self.zipf_exponent < 0:
            raise ConfigurationError("data.zipf_exponent must be >= 0")


def derive_seed(*words: int) -> int:
    """A 32-bit seed drawn from the SeedSequence over ``words``."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def _alphabet(size: int) -> list[str]:
    return [f"w{i:03d}" for i in range(size)]


def _affix_token(code: str) -> str:
    return f"#{code}"


def _tag_token(code: str) -> str:
    return f"<{code}>"


@dataclass(frozen=True)
class LanguageSpec:
    """A synthetic language: family tag, substitution table, affix token.

    ``table[i]`` is the alphabet index that latent symbol ``i`` renders to;
    the table is a permutation, hence a bijection on the alphabet. The affix
    is a language-specific sentence-final marker carried by sentences where
    the language is the *target* side; source sentences stay affix-free so
    that source identity is carried by token statistics alone.
    """

    code: str
    family: str
    table: tuple[int, ...]
    affix: str

    def __post_init__(self) -> None:
        if sorted(self.table) != list(range(len(self.table))):
            raise ValueError(f"substitution table for {self.code!r} is not a bijection")

    def render(self, latent: Sequence[int], alphabet: Sequence[str],
               with_affix: bool = False) -> Sentence:
        rendered = tuple(alphabet[self.table[i]] for i in latent)
        return rendered + (self.affix,) if with_affix else rendered


def _resample_positions(size: int, keep_fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Positions whose entries get re-randomized; drawn once per family so
    pairwise intra-family overlap tracks keep_fraction."""
    n_resample = size - int(round(keep_fraction * size))
    return np.sort(rng.choice(size, size=n_resample, replace=False))


def _perturb_permutation(
    base: np.ndarray, positions: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Re-randomize the given entries among themselves."""
    if positions.size <= 1:
        return base.copy()
    table = base.copy()
    table[positions] = rng.permutation(base[positions])
    return table


DERANGEMENT_TRIES = 10_000


def _deranged_permutation(
    existing: list[np.ndarray], size: int, rng: np.random.Generator
) -> np.ndarray:
    """A random permutation sharing no entry with any of ``existing``."""
    for _ in range(DERANGEMENT_TRIES):
        cand = rng.permutation(size)
        if all(not np.any(cand == prev) for prev in existing):
            return cand
    raise ConfigurationError(
        f"could not sample a mutually deranged permutation after {DERANGEMENT_TRIES} tries"
    )


def generate_languages(
    family_plan: Mapping[str, Sequence[str]], data: DataConfig, seed: int
) -> list[LanguageSpec]:
    """Build language specs per family over ``data.alphabet_size`` symbols.

    ``data.cross_family_overlap`` None leaves cross-family agreement at
    chance level (~1/alphabet_size); ``0.0`` enforces pairwise-disjoint
    family base tables.
    """
    codes = [c for members in family_plan.values() for c in members]
    if len(set(codes)) != len(codes):
        raise ConfigurationError("language codes must be unique across families")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A2B]))
    specs: list[LanguageSpec] = []
    bases: list[np.ndarray] = []
    for family in sorted(family_plan):
        if data.cross_family_overlap == 0.0:
            base = _deranged_permutation(bases, data.alphabet_size, rng)
        else:
            base = rng.permutation(data.alphabet_size)
        bases.append(base)
        positions = _resample_positions(data.alphabet_size, data.intra_family_overlap, rng)
        for code in family_plan[family]:
            table = _perturb_permutation(base, positions, rng)
            specs.append(LanguageSpec(code, family, tuple(int(x) for x in table), _affix_token(code)))
    return specs


@dataclass(frozen=True)
class ClientDataset:
    """One language pair's parallel corpus in 6:2:2 train/dev/test splits."""

    train: tuple[SentencePair, ...]
    dev: tuple[SentencePair, ...]
    test: tuple[SentencePair, ...]


def latent_distribution(alphabet_size: int, zipf_exponent: float) -> np.ndarray:
    """Latent symbol probabilities; Zipf-like so surface token statistics
    carry the language's substitution table (family signature)."""
    ranks = np.arange(1, alphabet_size + 1, dtype=np.float64)
    weights = ranks**-zipf_exponent
    return weights / weights.sum()


def generate_corpus(
    src: LanguageSpec, tgt: LanguageSpec, n_train: int, data: DataConfig, seed: int
) -> ClientDataset:
    """Sample unique latent sentences and render them in both languages;
    lengths, alphabet and symbol skew come from ``data``.

    Split sizes follow the 6:2:2 rule with ``n_train`` as the 6 share;
    remainders from the 2 shares are balanced to within one sentence.
    """
    n_dev = (n_train + 2) // 3
    n_test = (n_train + 1) // 3
    total = n_train + n_dev + n_test

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3C4D]))
    alphabet = _alphabet(data.alphabet_size)
    # Generator.choice(alphabet_size, size=length, p=probs) draws exactly
    # this inverse-CDF lookup, but re-validates ``p`` on every call.
    cdf = latent_distribution(data.alphabet_size, data.zipf_exponent).cumsum()
    cdf /= cdf[-1]
    lo, hi = data.length_range
    seen: set[tuple[int, ...]] = set()
    pairs: list[SentencePair] = []
    while len(pairs) < total:
        length = int(rng.integers(lo, hi + 1))
        latent = tuple(cdf.searchsorted(rng.random(length), side="right").tolist())
        if latent in seen:
            continue
        seen.add(latent)
        pairs.append((
            src.render(latent, alphabet),
            tgt.render(latent, alphabet, with_affix=True),
        ))
    return ClientDataset(
        train=tuple(pairs[:n_train]),
        dev=tuple(pairs[n_train : n_train + n_dev]),
        test=tuple(pairs[n_train + n_dev :]),
    )


class Vocab:
    """Stable token <-> id map. Ids 0..3 are PAD/BOS/EOS/UNK, then language
    tags, then regular tokens, each block sorted."""

    def __init__(self, tags: Iterable[str], tokens: Iterable[str]):
        self.tokens: list[str] = list(_SPECIALS) + sorted(set(tags)) + sorted(set(tokens))
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("token/tag collision in vocabulary")
        self.index: dict[str, int] = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.index.get(t, UNK) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    def tag_id(self, code: str) -> int:
        return self.index[_tag_token(code)]


def build_vocab(languages: Sequence[LanguageSpec]) -> Vocab:
    """Vocabulary of everything the languages can produce: one tag per
    language, the shared alphabet and every affix. Every corpus drawn from
    them is covered, and the result is independent of language order."""
    if not languages:
        raise ValueError("need at least one language")
    tokens = _alphabet(len(languages[0].table)) + [spec.affix for spec in languages]
    return Vocab(tags=(_tag_token(spec.code) for spec in languages), tokens=tokens)


def make_batch(parts: Sequence[tuple[Sequence[SentencePair], str]], vocab: Vocab) -> Batch:
    """Encode a split into one batch, padded to its widest row. ``parts``
    are (sentence pairs, target-language code) in row order, so a pooled
    split of several clients, whose targets may differ, is one call. Each
    row's encoder input starts with its target-language tag, and EOS closes
    both sides. The one path from strings to ids: a split is encoded once
    and batched by row selection (:meth:`Batch.take`)."""
    src_rows = [[vocab.tag_id(code)] + vocab.encode(s) + [EOS]
                for pairs, code in parts for s, _ in pairs]
    gold_rows = [vocab.encode(t) + [EOS] for pairs, _ in parts for _, t in pairs]
    if not src_rows:
        raise ValueError("cannot encode an empty split")
    s_len = max(len(r) for r in src_rows)
    t_len = max(len(r) for r in gold_rows)
    bsz = len(src_rows)
    src = np.full((bsz, s_len), PAD, dtype=np.int64)
    src_mask = np.zeros((bsz, s_len), dtype=bool)
    tgt_in = np.full((bsz, t_len), PAD, dtype=np.int64)
    tgt_gold = np.full((bsz, t_len), PAD, dtype=np.int64)
    tgt_mask = np.zeros((bsz, t_len), dtype=bool)
    for j, (s_row, g_row) in enumerate(zip(src_rows, gold_rows)):
        src[j, : len(s_row)] = s_row
        src_mask[j, : len(s_row)] = True
        tgt_gold[j, : len(g_row)] = g_row
        tgt_in[j, 0] = BOS
        tgt_in[j, 1 : len(g_row)] = g_row[:-1]
        tgt_mask[j, : len(g_row)] = True
    return Batch(src, src_mask, tgt_in, tgt_gold, tgt_mask)


def batches(corpus: Batch, batch_size: int, seed: int | None = None) -> list[Batch]:
    """One epoch of batches selected from the rows of an encoded corpus,
    which may span several language pairs; shuffled when a seed is given,
    final partial batch kept."""
    order = np.arange(corpus.size)
    if seed is not None:
        order = np.random.default_rng(np.random.SeedSequence([seed, 0x5E6F])).permutation(corpus.size)
    return [corpus.take(order[start : start + batch_size])
            for start in range(0, corpus.size, batch_size)]


def export_corpus(dataset: ClientDataset, pair: str, out_dir: str | Path) -> list[Path]:
    """Write tab-separated parallel text files ``<pair>.<split>.tsv``, one
    sentence pair per line."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for split_name in ("train", "dev", "test"):
        path = out / f"{pair}.{split_name}.tsv"
        rows = getattr(dataset, split_name)
        lines = ["{}\t{}".format(" ".join(s), " ".join(t)) for s, t in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written
