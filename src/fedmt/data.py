"""Deterministic synthetic multilingual corpora.

Every language is a bijective substitution (a permutation of a shared latent
token alphabet) plus a language-specific sentence-final affix token. A
parallel sentence pair is one latent token sequence rendered through the
source and target substitutions, so translation is exactly learnable by a
small model and the family structure of the languages is a single knob:
languages in the same family share a fraction ``intra_family_overlap`` of
their substitution entries, while cross-family overlap sits at chance level
(or exactly zero when requested).
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


def table_overlap(a: LanguageSpec, b: LanguageSpec) -> float:
    """Fraction of latent symbols whose substitution entries agree."""
    hits = sum(1 for x, y in zip(a.table, b.table) if x == y)
    return hits / len(a.table)


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


def _deranged_permutation(
    existing: list[np.ndarray], size: int, rng: np.random.Generator, max_tries: int = 10_000
) -> np.ndarray:
    """A random permutation sharing no entry with any of ``existing``."""
    for _ in range(max_tries):
        cand = rng.permutation(size)
        if all(not np.any(cand == prev) for prev in existing):
            return cand
    raise ConfigurationError(
        f"could not sample a mutually deranged permutation after {max_tries} tries"
    )


def generate_languages(
    family_plan: Mapping[str, Sequence[str]],
    intra_family_overlap: float = 1.0,
    seed: int = 0,
    alphabet_size: int = 64,
    cross_family_overlap: float | None = None,
) -> list[LanguageSpec]:
    """Build language specs per family.

    ``cross_family_overlap=None`` leaves cross-family agreement at chance
    level (~1/alphabet_size); ``0.0`` enforces pairwise-disjoint family base
    tables. Other values are not supported.
    """
    if not 0.0 <= intra_family_overlap <= 1.0:
        raise ConfigurationError("intra_family_overlap must be in [0, 1]")
    if cross_family_overlap not in (None, 0.0):
        raise ConfigurationError("cross_family_overlap must be None (chance) or 0.0")
    codes = [c for members in family_plan.values() for c in members]
    if len(set(codes)) != len(codes):
        raise ConfigurationError("language codes must be unique across families")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A2B]))
    specs: list[LanguageSpec] = []
    bases: list[np.ndarray] = []
    for family in sorted(family_plan):
        if cross_family_overlap == 0.0:
            base = _deranged_permutation(bases, alphabet_size, rng)
        else:
            base = rng.permutation(alphabet_size)
        bases.append(base)
        positions = _resample_positions(alphabet_size, intra_family_overlap, rng)
        for code in family_plan[family]:
            table = _perturb_permutation(base, positions, rng)
            specs.append(LanguageSpec(code, family, tuple(int(x) for x in table), _affix_token(code)))
    return specs


@dataclass(frozen=True)
class ClientDataset:
    """One client's parallel corpus with 6:2:2 train/dev/test splits."""

    src: str
    tgt: str
    train: tuple[SentencePair, ...]
    dev: tuple[SentencePair, ...]
    test: tuple[SentencePair, ...]

    @property
    def pair(self) -> str:
        return f"{self.src}-{self.tgt}"

    @property
    def n_train(self) -> int:
        return len(self.train)


def latent_distribution(alphabet_size: int, zipf_exponent: float) -> np.ndarray:
    """Latent symbol probabilities; Zipf-like so surface token statistics
    carry the language's substitution table (family signature)."""
    ranks = np.arange(1, alphabet_size + 1, dtype=np.float64)
    weights = ranks**-zipf_exponent
    return weights / weights.sum()


def generate_corpus(
    src: LanguageSpec,
    tgt: LanguageSpec,
    n_train: int,
    length_range: tuple[int, int] = (4, 12),
    seed: int = 0,
    alphabet_size: int = 64,
    zipf_exponent: float = 1.0,
) -> ClientDataset:
    """Sample unique latent sentences and render them in both languages.

    Split sizes follow the 6:2:2 rule with ``n_train`` as the 6 share;
    remainders from the 2 shares are balanced to within one sentence.
    """
    if n_train <= 0:
        raise ConfigurationError("n_train must be positive")
    lo, hi = length_range
    if not (1 <= lo <= hi):
        raise ConfigurationError(f"invalid length range {length_range}")
    n_dev = (n_train + 2) // 3
    n_test = (n_train + 1) // 3
    total = n_train + n_dev + n_test

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3C4D]))
    alphabet = _alphabet(alphabet_size)
    probs = latent_distribution(alphabet_size, zipf_exponent)
    seen: set[tuple[int, ...]] = set()
    pairs: list[SentencePair] = []
    while len(pairs) < total:
        length = int(rng.integers(lo, hi + 1))
        latent = tuple(int(x) for x in rng.choice(alphabet_size, size=length, p=probs))
        if latent in seen:
            continue
        seen.add(latent)
        pairs.append((
            src.render(latent, alphabet),
            tgt.render(latent, alphabet, with_affix=True),
        ))
    return ClientDataset(
        src=src.code,
        tgt=tgt.code,
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


def build_vocab(
    corpora: Sequence[ClientDataset],
    languages: Sequence[LanguageSpec] | None = None,
) -> Vocab:
    """Vocabulary over all corpus tokens plus one tag per language.

    Passing ``languages`` additionally admits every alphabet/affix token
    those languages can produce, so rare tokens missing from a small sample
    still get ids. The result is independent of corpus iteration order.
    """
    if not corpora:
        raise ValueError("need at least one corpus")
    codes: set[str] = set()
    tokens: set[str] = set()
    for ds in corpora:
        codes.update((ds.src, ds.tgt))
        for split in (ds.train, ds.dev, ds.test):
            for s, t in split:
                tokens.update(s)
                tokens.update(t)
    if languages is not None:
        size = len(languages[0].table)
        alphabet = _alphabet(size)
        for spec in languages:
            codes.add(spec.code)
            tokens.add(spec.affix)
        tokens.update(alphabet)
    return Vocab(tags=(_tag_token(c) for c in sorted(codes)), tokens=tokens)


MixedSample = tuple[Sentence, Sentence, str]  # src tokens, tgt tokens, tgt language code


def _encode_batch(samples: Sequence[MixedSample], vocab: Vocab) -> Batch:
    src_rows = [[vocab.tag_id(code)] + vocab.encode(s) + [EOS] for s, _, code in samples]
    gold_rows = [vocab.encode(t) + [EOS] for _, t, _ in samples]
    in_rows = [[BOS] + row[:-1] for row in gold_rows]
    s_len = max(len(r) for r in src_rows)
    t_len = max(len(r) for r in gold_rows)
    bsz = len(samples)
    src = np.full((bsz, s_len), PAD, dtype=np.int64)
    src_mask = np.zeros((bsz, s_len), dtype=bool)
    tgt_in = np.full((bsz, t_len), PAD, dtype=np.int64)
    tgt_gold = np.full((bsz, t_len), PAD, dtype=np.int64)
    tgt_mask = np.zeros((bsz, t_len), dtype=bool)
    for j, (s_row, g_row, i_row) in enumerate(zip(src_rows, gold_rows, in_rows)):
        src[j, : len(s_row)] = s_row
        src_mask[j, : len(s_row)] = True
        tgt_gold[j, : len(g_row)] = g_row
        tgt_in[j, : len(i_row)] = i_row
        tgt_mask[j, : len(g_row)] = True
    return Batch(src, src_mask, tgt_in, tgt_gold, tgt_mask, tgt_mask.sum(axis=1))


def make_batch(pairs: Sequence[SentencePair], vocab: Vocab, tgt_code: str) -> Batch:
    """Encode sentence pairs; the target-language tag is prepended to the
    encoder input and EOS closes both sides."""
    return _encode_batch([(s, t, tgt_code) for s, t in pairs], vocab)


def batches(
    samples: Sequence[MixedSample],
    vocab: Vocab,
    batch_size: int,
    seed: int | None = None,
) -> list[Batch]:
    """One epoch of batches over samples that may span several language
    pairs; shuffled when a seed is given, final partial batch kept."""
    if not samples:
        raise ValueError("cannot batch an empty sample list")
    if batch_size <= 0:
        raise ConfigurationError("batch_size must be positive")
    order = list(range(len(samples)))
    if seed is not None:
        order = list(np.random.default_rng(np.random.SeedSequence([seed, 0x5E6F])).permutation(len(samples)))
    return [
        _encode_batch([samples[i] for i in order[start : start + batch_size]], vocab)
        for start in range(0, len(samples), batch_size)
    ]


def export_corpus(dataset: ClientDataset, out_dir: str | Path) -> list[Path]:
    """Write tab-separated parallel text files, one sentence pair per line."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for split_name in ("train", "dev", "test"):
        path = out / f"{dataset.pair}.{split_name}.tsv"
        rows = getattr(dataset, split_name)
        lines = ["{}\t{}".format(" ".join(s), " ".join(t)) for s, t in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written
