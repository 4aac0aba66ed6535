"""Synthetic language generation, corpora, vocabulary, batching."""

import dataclasses

import numpy as np
import pytest

from fedmt.data import (
    BOS,
    EOS,
    PAD,
    DataConfig,
    UNK,
    Vocab,
    batches,
    build_vocab,
    export_corpus,
    generate_corpus,
    generate_languages,
    latent_distribution,
    make_batch,
)
from fedmt.errors import ConfigurationError
from fedmt.model import Batch, merge_batches
from fedmt.presets import M2EN_FAMILY_PLAN, M2M_FAMILY_PLAN, make_clients, make_warmup_data

PLAN = {"Fam1": ["aa", "ab"], "Fam2": ["ba", "bb"], "Fam3": ["ca", "cb"]}
SMALL = DataConfig(alphabet_size=32)


def table_overlap(a, b):
    """Fraction of latent symbols whose substitution entries agree."""
    return sum(1 for x, y in zip(a.table, b.table) if x == y) / len(a.table)


class TestGenerateLanguages:
    def test_full_overlap_gives_identical_family_tables(self):
        specs = generate_languages(PLAN, DataConfig(intra_family_overlap=1.0), seed=0)
        by_code = {s.code: s for s in specs}
        assert by_code["aa"].table == by_code["ab"].table
        assert by_code["ba"].table == by_code["bb"].table

    def test_zero_overlap_looks_like_chance(self):
        overlaps_same, overlaps_cross = [], []
        for seed in range(8):
            specs = generate_languages(
                PLAN, DataConfig(intra_family_overlap=0.0, alphabet_size=64), seed=seed
            )
            by_code = {s.code: s for s in specs}
            overlaps_same.append(table_overlap(by_code["aa"], by_code["ab"]))
            overlaps_cross.append(table_overlap(by_code["aa"], by_code["ba"]))
        # chance agreement for random permutations of n symbols is ~1/n
        assert np.mean(overlaps_same) < 0.1
        assert abs(np.mean(overlaps_same) - np.mean(overlaps_cross)) < 0.1

    def test_partial_overlap_tracks_rho(self):
        specs = generate_languages(
            PLAN, DataConfig(intra_family_overlap=0.75, alphabet_size=64), seed=3
        )
        by_code = {s.code: s for s in specs}
        assert 0.6 <= table_overlap(by_code["aa"], by_code["ab"]) <= 0.95

    def test_cross_family_zero_is_exact(self):
        specs = generate_languages(
            PLAN, DataConfig(intra_family_overlap=1.0, cross_family_overlap=0.0), seed=1
        )
        for a in specs:
            for b in specs:
                if a.family != b.family:
                    assert table_overlap(a, b) == 0.0

    def test_tables_are_bijections(self):
        data = DataConfig(intra_family_overlap=0.5, alphabet_size=32)
        for spec in generate_languages(PLAN, data, seed=9):
            assert sorted(spec.table) == list(range(32))

    def test_deterministic_per_seed(self):
        a = generate_languages(PLAN, DataConfig(intra_family_overlap=0.8), seed=4)
        b = generate_languages(PLAN, DataConfig(intra_family_overlap=0.8), seed=4)
        assert a == b
        c = generate_languages(PLAN, DataConfig(intra_family_overlap=0.8), seed=5)
        assert a != c

    def test_default_plan_mirrors_known_families(self):
        assert M2EN_FAMILY_PLAN["Sino-Tibetan"] == ("zh", "th")
        assert M2EN_FAMILY_PLAN["Afro-Asiatic"] == ("ar", "he")
        assert M2EN_FAMILY_PLAN["Uralic"] == ("fi", "et")
        assert M2EN_FAMILY_PLAN["Indo-European"] == ("ru", "sl")
        assert M2M_FAMILY_PLAN["Germanic"] == ("de", "nl", "en")
        assert M2M_FAMILY_PLAN["Romance"] == ("fr", "it", "es")

    def test_duplicate_codes_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_languages({"f1": ["xx"], "f2": ["xx"]}, DataConfig(), seed=0)


def two_languages(seed=0):
    specs = generate_languages({"F": ["xx"], "G": ["yy"]}, SMALL, seed=seed)
    return specs[0], specs[1], specs


class TestGenerateCorpus:
    def test_split_sizes_and_disjointness(self):
        src, tgt, _ = two_languages()
        ds = generate_corpus(src, tgt, 60, SMALL, seed=1)
        assert len(ds.train) == 60
        assert len(ds.dev) == 20 and len(ds.test) == 20
        all_pairs = ds.train + ds.dev + ds.test
        assert len(set(all_pairs)) == len(all_pairs)

    def test_uneven_split_within_one(self):
        src, tgt, _ = two_languages()
        ds = generate_corpus(src, tgt, 50, SMALL, seed=1)
        assert abs(len(ds.dev) - len(ds.test)) <= 1
        assert len(ds.dev) + len(ds.test) == pytest.approx(50 * 2 / 3, abs=1)

    def test_deterministic(self):
        src, tgt, _ = two_languages()
        a = generate_corpus(src, tgt, 30, SMALL, seed=5)
        b = generate_corpus(src, tgt, 30, SMALL, seed=5)
        assert a == b

    def test_self_consistency_through_latent(self):
        # re-encoding the source through the two tables must give the target
        src, tgt, _ = two_languages()
        alphabet = [f"w{i:03d}" for i in range(32)]
        inverse = {alphabet[v]: i for i, v in enumerate(src.table)}
        ds = generate_corpus(src, tgt, 20, SMALL, seed=2)
        for s, t in ds.train:
            latent = [inverse[token] for token in s]
            assert tgt.render(latent, alphabet, with_affix=True) == t

    @pytest.mark.parametrize("zipf", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alphabet_size", [8, 32, 64])
    def test_latents_are_the_draws_of_generator_choice(self, alphabet_size, zipf):
        """The sampler looks up the symbol CDF itself; ``rng.choice`` with
        the same ``p`` is its reference, draw for draw. Short lengths make
        repeats, so rejected draws and every later length must stay in step."""
        data = DataConfig(alphabet_size=alphabet_size, length_range=(1, 6), zipf_exponent=zipf)
        src, tgt = generate_languages({"F": ["xx"], "G": ["yy"]}, data, seed=0)
        inverse = {f"w{v:03d}": i for i, v in enumerate(src.table)}
        probs = latent_distribution(alphabet_size, zipf)
        for seed in range(5):
            ds = generate_corpus(src, tgt, 30, data, seed=seed)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3C4D]))
            expected: list[tuple[int, ...]] = []
            while len(expected) < 50:  # 30 train, 10 dev, 10 test
                length = int(rng.integers(1, 7))
                latent = tuple(int(x) for x in rng.choice(alphabet_size, size=length, p=probs))
                if latent not in expected:
                    expected.append(latent)
            got = [tuple(inverse[token] for token in s) for s, _ in ds.train + ds.dev + ds.test]
            assert got == expected

    def test_lengths_in_range(self):
        src, tgt, _ = two_languages()
        ds = generate_corpus(src, tgt, 40, DataConfig(alphabet_size=32, length_range=(4, 12)),
                             seed=3)
        for s, t in ds.train:
            assert 4 <= len(s) <= 12
            assert len(t) == len(s) + 1  # target carries its affix

    def test_preset_sizes_follow_plan_ratios(self):
        _, clients = make_clients("m2en", 0, DataConfig(scale=1 / 16))
        sizes = {c.id: len(c.data.train) for c in clients}
        assert sizes["zh-en"] == 624 and sizes["he-en"] == 120
        assert sizes["zh-en"] / sizes["he-en"] == pytest.approx(9984 / 1920)


class TestVocab:
    def test_reserved_ids(self):
        _, _, specs = two_languages()
        ds = generate_corpus(specs[0], specs[1], 12, SMALL, seed=0)
        vocab = build_vocab(specs)
        assert vocab.index["<pad>"] == PAD == 0
        assert vocab.index["<bos>"] == 1
        assert vocab.index["<eos>"] == 2
        assert vocab.index["<unk>"] == UNK == 3

    def test_order_independent(self):
        languages, _ = make_clients("m2en", 1, DataConfig(scale=1 / 64))
        v1 = build_vocab(languages)
        v2 = build_vocab(list(reversed(languages)))
        assert v1.tokens == v2.tokens

    def test_no_unk_on_synthetic_data(self):
        languages, clients = make_clients("m2en", 2, DataConfig(scale=1 / 64))
        vocab = build_vocab(languages)
        for client in clients:
            for split in (client.data.train, client.data.dev, client.data.test):
                for s, t in split:
                    assert UNK not in vocab.encode(s)
                    assert UNK not in vocab.encode(t)

    def test_language_vocab_covers_corpus_vocab(self):
        # the vocabulary is every token the languages can produce, so adding
        # a scan of every split, as a corpus vocabulary would, changes nothing
        languages, clients = make_clients("m2m", 3, DataConfig(scale=1 / 64))
        codes = {code for c in clients for code in (c.src.code, c.tgt.code)}
        scanned = {tok for c in clients for split in (c.data.train, c.data.dev, c.data.test)
                   for pair in split for side in pair for tok in side}
        alphabet = {f"w{i:03d}" for i in range(len(languages[0].table))}
        tokens = scanned | alphabet | {spec.affix for spec in languages}
        oracle = Vocab(tags=(f"<{code}>" for code in codes | {s.code for s in languages}),
                       tokens=tokens)
        assert build_vocab(languages).tokens == oracle.tokens


class TestBatches:
    def _dataset(self):
        src, tgt, specs = two_languages()
        ds = generate_corpus(src, tgt, 20, SMALL, seed=4)
        vocab = build_vocab(specs)
        return ds, vocab

    def test_batch_sizes_with_remainder(self):
        ds, vocab = self._dataset()
        out = batches(make_batch([(ds.train, "yy")], vocab), 8, seed=0)
        assert [b.size for b in out] == [8, 8, 4]

    def test_same_seed_same_order(self):
        ds, vocab = self._dataset()
        a = batches(make_batch([(ds.train, "yy")], vocab), 8, seed=7)
        b = batches(make_batch([(ds.train, "yy")], vocab), 8, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.src, y.src)
            assert np.array_equal(x.tgt_gold, y.tgt_gold)

    def test_partition_covers_split_exactly_once(self):
        ds, vocab = self._dataset()
        seen = []
        for batch in batches(make_batch([(ds.train, "yy")], vocab), 8, seed=1):
            for row, mask in zip(batch.src, batch.src_mask):
                seen.append(tuple(vocab.decode(row[mask][1:-1])))  # strip tag+EOS
        assert sorted(seen) == sorted(s for s, _ in ds.train)

    def test_gold_is_input_shifted(self):
        ds, vocab = self._dataset()
        batch = make_batch([(ds.train[:4], "yy")], vocab)
        for j in range(batch.size):
            n = int(batch.tgt_mask[j].sum())
            assert np.array_equal(batch.tgt_in[j, 1:n], batch.tgt_gold[j, : n - 1])
        assert all(batch.tgt_in[:, 0] == 1)  # BOS

    def test_target_tag_prepended(self):
        ds, vocab = self._dataset()
        batch = make_batch([(ds.train[:4], "yy")], vocab)
        assert all(batch.src[:, 0] == vocab.tag_id("yy"))

    def test_empty_split_rejected(self):
        _, vocab = self._dataset()
        with pytest.raises(ValueError):
            batches(make_batch([([], "yy")], vocab), 8, seed=0)


FIELDS = [f.name for f in dataclasses.fields(Batch)]


def encode_samples(samples, vocab):
    """(src, tgt, tgt code) samples encoded from their strings, each side
    padded to the batch's longest row: the five ``Batch`` arrays."""
    src_rows = [[vocab.tag_id(code)] + vocab.encode(s) + [EOS] for s, _, code in samples]
    gold_rows = [vocab.encode(t) + [EOS] for _, t, _ in samples]
    in_rows = [[BOS] + row[:-1] for row in gold_rows]

    def pad(rows):
        width = max(len(row) for row in rows)
        ids = np.array([row + [PAD] * (width - len(row)) for row in rows], dtype=np.int64)
        mask = np.array([[True] * len(row) + [False] * (width - len(row)) for row in rows])
        return ids, mask

    src, src_mask = pad(src_rows)
    tgt_in, _ = pad(in_rows)
    tgt_gold, tgt_mask = pad(gold_rows)
    return src, src_mask, tgt_in, tgt_gold, tgt_mask


def assert_same_arrays(batch, arrays):
    for name, expected in zip(FIELDS, arrays):
        actual = getattr(batch, name)
        assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape), name
        assert np.array_equal(actual, expected), name


class TestEncodeOnce:
    """A split is encoded once; every batch is a selection of its rows."""

    def _clients(self):
        # two m2m clients with different target languages, so the rows carry
        # different target tags
        languages, clients = make_clients("m2m", 5, DataConfig(scale=1 / 64))
        other = next(c for c in clients if c.tgt.code != clients[0].tgt.code)
        return build_vocab(languages), [clients[0], other]

    @pytest.mark.parametrize("seed", [None, 3, 11])
    def test_batches_equal_encoding_each_chunk_of_the_permutation(self, seed):
        vocab, clients = self._clients()
        corpus = make_batch([(c.data.train, c.tgt.code) for c in clients], vocab)
        samples = [(s, t, c.tgt.code) for c in clients for s, t in c.data.train]
        order = list(range(len(samples)))
        if seed is not None:
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E6F]))
            order = list(rng.permutation(len(samples)))
        chunks = [order[start:start + 8] for start in range(0, len(order), 8)]
        out = batches(corpus, 8, seed=seed)
        assert len(out) == len(chunks)
        for batch, chunk in zip(out, chunks):
            assert_same_arrays(batch, encode_samples([samples[i] for i in chunk], vocab))

    def test_take_equals_encoding_the_rows_alone(self):
        vocab, (client, _) = self._clients()
        split = client.data.train
        encoded = make_batch([(split, client.tgt.code)], vocab)
        rng = np.random.default_rng(0)
        for _ in range(20):
            rows = rng.choice(len(split), size=int(rng.integers(1, len(split) + 1)),
                              replace=False)
            alone = make_batch([([split[i] for i in rows], client.tgt.code)], vocab)
            assert_same_arrays(encoded.take(rows), [getattr(alone, name) for name in FIELDS])

    @pytest.mark.parametrize("mode", ["m2en", "m2m"])
    def test_a_pooled_split_is_one_encode_equal_to_merging_its_parts(self, mode):
        # the warm-up corpus: one part per preset pair, in m2m with several targets
        data = DataConfig(scale=1 / 64)
        languages, _ = make_clients(mode, 1, data)
        vocab = build_vocab(languages)
        parts = make_warmup_data(mode, languages, 1, 16, data)
        assert (len({code for _, code in parts}) > 1) == (mode == "m2m")
        pooled = make_batch(parts, vocab)
        merged = merge_batches([make_batch([part], vocab) for part in parts])
        assert_same_arrays(pooled, [getattr(merged, name) for name in FIELDS])


def test_export_corpus_round_trips(tmp_path):
    src, tgt, _ = two_languages()
    ds = generate_corpus(src, tgt, 12, SMALL, seed=6)
    files = export_corpus(ds, "xx-yy", tmp_path)
    assert [f.name for f in files] == ["xx-yy.train.tsv", "xx-yy.dev.tsv", "xx-yy.test.tsv"]
    train_lines = (tmp_path / "xx-yy.train.tsv").read_text().splitlines()
    assert len(train_lines) == 12
    first_src, first_tgt = train_lines[0].split("\t")
    assert tuple(first_src.split()) == ds.train[0][0]
    assert tuple(first_tgt.split()) == ds.train[0][1]
