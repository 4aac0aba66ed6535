"""Synthetic language generation, corpora, vocabulary, batching."""

import numpy as np
import pytest

from fedmt.data import (
    PAD,
    UNK,
    batches,
    build_vocab,
    export_corpus,
    generate_corpus,
    generate_languages,
    make_batch,
    table_overlap,
)
from fedmt.errors import ConfigurationError
from fedmt.presets import M2EN_FAMILY_PLAN, M2M_FAMILY_PLAN, make_clients

PLAN = {"Fam1": ["aa", "ab"], "Fam2": ["ba", "bb"], "Fam3": ["ca", "cb"]}


class TestGenerateLanguages:
    def test_full_overlap_gives_identical_family_tables(self):
        specs = generate_languages(PLAN, intra_family_overlap=1.0, seed=0)
        by_code = {s.code: s for s in specs}
        assert by_code["aa"].table == by_code["ab"].table
        assert by_code["ba"].table == by_code["bb"].table

    def test_zero_overlap_looks_like_chance(self):
        overlaps_same, overlaps_cross = [], []
        for seed in range(8):
            specs = generate_languages(PLAN, intra_family_overlap=0.0, seed=seed,
                                       alphabet_size=64)
            by_code = {s.code: s for s in specs}
            overlaps_same.append(table_overlap(by_code["aa"], by_code["ab"]))
            overlaps_cross.append(table_overlap(by_code["aa"], by_code["ba"]))
        # chance agreement for random permutations of n symbols is ~1/n
        assert np.mean(overlaps_same) < 0.1
        assert abs(np.mean(overlaps_same) - np.mean(overlaps_cross)) < 0.1

    def test_partial_overlap_tracks_rho(self):
        specs = generate_languages(PLAN, intra_family_overlap=0.75, seed=3,
                                   alphabet_size=64)
        by_code = {s.code: s for s in specs}
        assert 0.6 <= table_overlap(by_code["aa"], by_code["ab"]) <= 0.95

    def test_cross_family_zero_is_exact(self):
        specs = generate_languages(PLAN, intra_family_overlap=1.0, seed=1,
                                   cross_family_overlap=0.0)
        for a in specs:
            for b in specs:
                if a.family != b.family:
                    assert table_overlap(a, b) == 0.0

    def test_tables_are_bijections(self):
        for spec in generate_languages(PLAN, 0.5, seed=9, alphabet_size=32):
            assert sorted(spec.table) == list(range(32))

    def test_deterministic_per_seed(self):
        a = generate_languages(PLAN, 0.8, seed=4)
        b = generate_languages(PLAN, 0.8, seed=4)
        assert a == b
        c = generate_languages(PLAN, 0.8, seed=5)
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
            generate_languages({"f1": ["xx"], "f2": ["xx"]}, 1.0, seed=0)


def two_languages(seed=0):
    specs = generate_languages({"F": ["xx"], "G": ["yy"]}, 1.0, seed=seed,
                               alphabet_size=32)
    return specs[0], specs[1], specs


class TestGenerateCorpus:
    def test_split_sizes_and_disjointness(self):
        src, tgt, _ = two_languages()
        ds = generate_corpus(src, tgt, n_train=60, seed=1, alphabet_size=32)
        assert ds.n_train == 60
        assert len(ds.dev) == 20 and len(ds.test) == 20
        all_pairs = ds.train + ds.dev + ds.test
        assert len(set(all_pairs)) == len(all_pairs)

    def test_uneven_split_within_one(self):
        src, tgt, _ = two_languages()
        ds = generate_corpus(src, tgt, n_train=50, seed=1, alphabet_size=32)
        assert abs(len(ds.dev) - len(ds.test)) <= 1
        assert len(ds.dev) + len(ds.test) == pytest.approx(50 * 2 / 3, abs=1)

    def test_deterministic(self):
        src, tgt, _ = two_languages()
        a = generate_corpus(src, tgt, 30, seed=5, alphabet_size=32)
        b = generate_corpus(src, tgt, 30, seed=5, alphabet_size=32)
        assert a == b

    def test_self_consistency_through_latent(self):
        # re-encoding the source through the two tables must give the target
        src, tgt, _ = two_languages()
        alphabet = [f"w{i:03d}" for i in range(32)]
        inverse = {alphabet[v]: i for i, v in enumerate(src.table)}
        ds = generate_corpus(src, tgt, 20, seed=2, alphabet_size=32)
        for s, t in ds.train:
            latent = [inverse[token] for token in s]
            assert tgt.render(latent, alphabet, with_affix=True) == t

    def test_lengths_in_range(self):
        src, tgt, _ = two_languages()
        ds = generate_corpus(src, tgt, 40, length_range=(4, 12), seed=3,
                             alphabet_size=32)
        for s, t in ds.train:
            assert 4 <= len(s) <= 12
            assert len(t) == len(s) + 1  # target carries its affix

    def test_preset_sizes_follow_plan_ratios(self):
        _, clients = make_clients("m2en", seed=0, scale=1 / 16)
        sizes = {c.id: c.n_train for c in clients}
        assert sizes["zh-en"] == 624 and sizes["he-en"] == 120
        assert sizes["zh-en"] / sizes["he-en"] == pytest.approx(9984 / 1920)


class TestVocab:
    def test_reserved_ids(self):
        _, _, specs = two_languages()
        ds = generate_corpus(specs[0], specs[1], 12, seed=0, alphabet_size=32)
        vocab = build_vocab([ds], specs)
        assert vocab.index["<pad>"] == PAD == 0
        assert vocab.index["<bos>"] == 1
        assert vocab.index["<eos>"] == 2
        assert vocab.index["<unk>"] == UNK == 3

    def test_order_independent(self):
        _, clients = make_clients("m2en", seed=1, scale=1 / 64)
        corpora = [c.data for c in clients]
        v1 = build_vocab(corpora)
        v2 = build_vocab(list(reversed(corpora)))
        assert v1.tokens == v2.tokens

    def test_no_unk_on_synthetic_data(self):
        languages, clients = make_clients("m2en", seed=2, scale=1 / 64)
        vocab = build_vocab([c.data for c in clients], languages)
        for client in clients:
            for split in (client.data.train, client.data.dev, client.data.test):
                for s, t in split:
                    assert UNK not in vocab.encode(s)
                    assert UNK not in vocab.encode(t)

    def test_language_vocab_covers_corpus_vocab(self):
        # with the languages given, the vocabulary is every token they can
        # produce, so any one corpus yields the same vocabulary as all of them
        languages, clients = make_clients("m2m", seed=3, scale=1 / 64)
        from_one = build_vocab([clients[0].data], languages)
        from_corpora = build_vocab([c.data for c in clients], languages)
        assert from_one.tokens == from_corpora.tokens


def tagged(pairs, code="yy"):
    return [(s, t, code) for s, t in pairs]


class TestBatches:
    def _dataset(self):
        src, tgt, specs = two_languages()
        ds = generate_corpus(src, tgt, 20, seed=4, alphabet_size=32)
        vocab = build_vocab([ds], specs)
        return ds, vocab

    def test_batch_sizes_with_remainder(self):
        ds, vocab = self._dataset()
        out = batches(tagged(ds.train), vocab, 8, seed=0)
        assert [b.size for b in out] == [8, 8, 4]

    def test_same_seed_same_order(self):
        ds, vocab = self._dataset()
        a = batches(tagged(ds.train), vocab, 8, seed=7)
        b = batches(tagged(ds.train), vocab, 8, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.src, y.src)
            assert np.array_equal(x.tgt_gold, y.tgt_gold)

    def test_partition_covers_split_exactly_once(self):
        ds, vocab = self._dataset()
        seen = []
        for batch in batches(tagged(ds.train), vocab, 8, seed=1):
            for row, mask in zip(batch.src, batch.src_mask):
                seen.append(tuple(vocab.decode(row[mask][1:-1])))  # strip tag+EOS
        assert sorted(seen) == sorted(s for s, _ in ds.train)

    def test_gold_is_input_shifted(self):
        ds, vocab = self._dataset()
        batch = make_batch(ds.train[:4], vocab, "yy")
        for j in range(batch.size):
            n = int(batch.lengths[j])
            assert np.array_equal(batch.tgt_in[j, 1:n], batch.tgt_gold[j, : n - 1])
        assert all(batch.tgt_in[:, 0] == 1)  # BOS

    def test_target_tag_prepended(self):
        ds, vocab = self._dataset()
        batch = make_batch(ds.train[:4], vocab, "yy")
        assert all(batch.src[:, 0] == vocab.tag_id("yy"))

    def test_empty_split_rejected(self):
        _, vocab = self._dataset()
        with pytest.raises(ValueError):
            batches([], vocab, 8, seed=0)


def test_export_corpus_round_trips(tmp_path):
    src, tgt, _ = two_languages()
    ds = generate_corpus(src, tgt, 12, seed=6, alphabet_size=32)
    files = export_corpus(ds, tmp_path)
    assert len(files) == 3
    train_lines = (tmp_path / "xx-yy.train.tsv").read_text().splitlines()
    assert len(train_lines) == 12
    first_src, first_tgt = train_lines[0].split("\t")
    assert tuple(first_src.split()) == ds.train[0][0]
    assert tuple(first_tgt.split()) == ds.train[0][1]
