import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from desklora.arabicprep import (
    BOUNDARY,
    BpeVocab,
    Document,
    NormalizationPolicy,
    ShardReader,
    bpe_train,
    bpe_train_encode,
    encode_text,
    prepare_documents,
    write_shards,
)
from desklora.arabicprep.shards import dumps_shard, loads_shard
from desklora.binfmt import Writer
from desklora.errors import ConfigError, ContractError, DataError, FormatError
from tests.bpe_oracles import train_encode as sorting_train_encode
from tests.conftest import synth_raw_docs, write_encoded_shards


def oracle_merges(texts, max_merges):
    """Brute-force most-frequent-pair reference; same tie-break contract."""
    token_bytes = [b""] * 4 + [bytes([i]) for i in range(256)]
    seqs = [[b + 4 for b in t.encode("utf-8")] for t in texts]
    merges = []
    next_id = 260
    for _ in range(max_merges):
        counts = {}
        for s in seqs:
            for i in range(len(s) - 1):
                pair = (s[i], s[i + 1])
                counts[pair] = counts.get(pair, 0) + 1
        if not counts:
            break
        top = max(counts.values())
        if top < 2:
            break
        best = min(
            (p for p, c in counts.items() if c == top),
            key=lambda p: (token_bytes[p[0]], token_bytes[p[1]]),
        )
        merges.append(best)
        token_bytes.append(token_bytes[best[0]] + token_bytes[best[1]])
        new_seqs = []
        for s in seqs:
            out, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and (s[i], s[i + 1]) == best:
                    out.append(next_id)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            new_seqs.append(out)
        seqs = new_seqs
        next_id += 1
    return merges


def oracle_encode(vocab, text):
    """The numpy per-piece encoder BpeVocab used before its list-based one: per
    piece, merge every occurrence of the lowest-rank present pair, left to
    right without overlap, until no pair has a rank."""
    rank_by_key = {(a << 21) | b: rank for rank, (a, b) in enumerate(vocab.merges)}
    out = []
    for piece in text.split(BOUNDARY):
        ids = np.frombuffer(piece.encode("utf-8"), dtype=np.uint8).astype(np.int64) + 4
        while ids.size >= 2:
            ranks = [rank_by_key[k] for k in np.unique((ids[:-1] << 21) | ids[1:]).tolist()
                     if k in rank_by_key]
            if not ranks:
                break
            a, b = vocab.merges[min(ranks)]
            keep, last = [], -2
            for i in np.flatnonzero((ids[:-1] == a) & (ids[1:] == b)).tolist():
                if i > last + 1:
                    keep.append(i)
                    last = i
            ids = ids.copy()
            ids[keep] = 260 + min(ranks)
            ids = np.delete(ids, [i + 1 for i in keep])
        out.extend(ids.tolist())
    return out


def token_strings(vocab):
    """Decodable token strings to ids (first id wins on byte collisions)."""
    out = {}
    for i, bs in enumerate(vocab.token_bytes):
        if not bs:
            continue
        try:
            s = bs.decode("utf-8")
        except UnicodeDecodeError:
            continue
        out.setdefault(s, i)
    return out


def _pieces(texts):
    return [p for t in texts for p in t.split(BOUNDARY) if p]


def _unread():
    raise AssertionError("the corpus was read")
    yield


class TestBpeTraining:
    def test_matches_oracle_on_tiny_corpora(self):
        corpora = [
            ["ابابab"],
            ["مرحبا مرحبا بكم"],
            ["aaaa"],
            ["abcabcabc", "bcbc"],
            ["الكتاب الكبير", "الكتاب الصغير"],
        ]
        for corpus in corpora:
            assert sum(len(t.encode()) for t in corpus) <= 200
            vocab = bpe_train(corpus, vocab_size=300)
            assert vocab.merges == oracle_merges(corpus, 300 - 260), corpus

    def test_first_merge_most_frequent(self):
        vocab = bpe_train(["ابابab"], vocab_size=261)
        # "اب" repeats twice (four bytes: d8 a7 d8 a8 d8 a7 d8 a8); pair (0xd8,0xa7)
        # and (0xa7,0xd8)... most frequent determined by the oracle
        assert vocab.merges == oracle_merges(["ابابab"], 1)

    def test_early_stop_when_no_pair_repeats(self):
        vocab = bpe_train(["abcdef"], vocab_size=1000)
        assert vocab.merges == []

    def test_vocab_size_validation(self):
        with pytest.raises(ConfigError):
            bpe_train(["ab"], vocab_size=260)
        with pytest.raises(ConfigError):
            bpe_train([], vocab_size=300)
        with pytest.raises(ConfigError):  # pair keys hold ids in 21 bits
            bpe_train(_unread(), vocab_size=(1 << 21) + 1)
        assert bpe_train(["abab"], vocab_size=1 << 21).merges == [(101, 102)]

    def test_deterministic(self):
        docs = [d["text"] for d in synth_raw_docs(50, seed=1)]
        v1 = bpe_train(docs, vocab_size=400)
        v2 = bpe_train(docs, vocab_size=400)
        assert v1.merges == v2.merges
        assert v1.vocab_hash() == v2.vocab_hash()

    def test_matches_oracle_on_a_prepared_corpus(self):
        docs = prepare_documents(synth_raw_docs(40, seed=8), NormalizationPolicy())
        vocab = bpe_train([d.text for d in docs], vocab_size=400)
        assert len(vocab.merges) == 140
        assert vocab.merges == oracle_merges(_pieces(d.text for d in docs), 140)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet=st.sampled_from(f"ab{BOUNDARY}c"), max_size=14),
                    min_size=1, max_size=5))
    def test_runs_match_the_oracles(self, texts):
        """Runs such as "aaaa" and "abab" are where neighbourhood counts go wrong."""
        assume(_pieces(texts))
        vocab = bpe_train(texts, vocab_size=290)
        assert vocab.merges == oracle_merges(_pieces(texts), 30)
        for text in texts:
            assert vocab.encode(text) == oracle_encode(vocab, text)

    def test_golden_vocab_and_shards(self, tmp_path):
        """Pins the tokenizer's output: a speedup must not change a merge or an id.
        The ids digest holds across shard format versions; the file hashes pin
        the shard layout and the bytes of manifest.json and vocab.json."""
        policy = NormalizationPolicy()
        docs = prepare_documents(synth_raw_docs(200, seed=31), policy)
        vocab, trained_ids = bpe_train_encode([d.text for d in docs], vocab_size=512)
        assert vocab.vocab_hash() == (
            "1f4db2d2c56b6fd99341a23caae923f66e6d545120eef3ba1b18997ef2ee9f6c")
        write_shards(docs, trained_ids, vocab.vocab_hash(), policy, tmp_path)
        reader = ShardReader(tmp_path)
        ids = json.dumps([reader.doc_tokens(i).tolist() for i in range(len(reader))])
        assert hashlib.sha256(ids.encode()).hexdigest() == (
            "c3d1b10e5948639c778bddeb956bcf0b0317330607a31713900ed112ae6e95be")
        assert hashlib.sha256((tmp_path / "shard_0000.bin").read_bytes()).hexdigest() == (
            "3afd342af8be1b8f1a57125383b167a7c3715dbdb5a3cf23a82c0049d69c06ca")
        assert hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest() == (
            "e8eb6955f3b0b7e29c409006945237fbef84af58085163103b9d59f3d79b0312")
        vocab.save(tmp_path / "vocab.json")
        assert hashlib.sha256((tmp_path / "vocab.json").read_bytes()).hexdigest() == (
            "e5819c70fc38a431d0d0a724fbd44a53de66567220f812a7d05963397190845b")


_RUN_TEXTS = st.lists(st.tuples(st.sampled_from(["a", "ab", "b", "ba", "c", BOUNDARY]),
                                st.integers(0, 30)), max_size=5).map(
    lambda runs: "".join(unit * count for unit, count in runs))


class TestTrainedIds:
    """bpe_train_encode's ids are the ids BpeVocab.encode gives each text."""

    @staticmethod
    def assert_same_ids(texts, vocab_size):
        vocab, ids = bpe_train_encode(texts, vocab_size)
        for text, got in zip(texts, ids, strict=True):
            assert got.tolist() == vocab.encode(text), text
        return vocab

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_RUN_TEXTS, min_size=1, max_size=6), st.sampled_from([262, 290, 400]))
    def test_runs_across_pieces(self, texts, vocab_size):
        """Runs such as "aaaa" and "abab" split over pieces, with empty texts
        and texts of boundary markers only."""
        assume(_pieces(texts))
        self.assert_same_ids(["", *texts, BOUNDARY * 2], vocab_size)

    def test_merged_ids_merge_again(self):
        vocab = self.assert_same_ids(
            ["a" * 100, "", "ab" * 50 + BOUNDARY + "ab" * 7, BOUNDARY, "ba" * 30, "aab" * 20], 300)
        assert sum(a >= 260 and b >= 260 for a, b in vocab.merges) >= 10


class TestNeighbourCounts:
    """bpe_train_encode counts each merge's pairs from its hits' neighbours;
    the trainer in tests/bpe_oracles.py re-sorts them. Both give the same
    merges and ids."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**16), st.integers(1, 150), st.sampled_from([512, 1024]),
           st.lists(_RUN_TEXTS, max_size=4))
    def test_matches_the_sorting_trainer(self, seed, n_docs, vocab_size, runs):
        docs = prepare_documents(synth_raw_docs(n_docs, seed=seed), NormalizationPolicy())
        texts = runs + [d.text for d in docs] + runs
        vocab, ids = bpe_train_encode(texts, vocab_size)
        want_vocab, want_ids = sorting_train_encode(texts, vocab_size)
        assert vocab.merges == want_vocab.merges
        assert [(i.dtype, i.tolist()) for i in ids] == [(i.dtype, i.tolist()) for i in want_ids]


class TestBpeEncodeDecode:
    @pytest.fixture(scope="class")
    def vocab(self):
        return _SYNTH_VOCAB

    def test_round_trip_arabic(self, vocab):
        for d in synth_raw_docs(50, seed=3):
            text = d["text"]
            assert vocab.decode(vocab.encode(text)) == text

    @settings(max_examples=150, deadline=None)
    @given(
        st.text(
            alphabet=st.characters(exclude_characters=[BOUNDARY], exclude_categories=["Cs"]),
            max_size=60,
        )
    )
    def test_round_trip_arbitrary_unicode(self, text):
        vocab = _SHARED_VOCAB
        assert vocab.decode(vocab.encode(text)) == text

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=st.sampled_from("الكتابمدرسة وي" + BOUNDARY), max_size=80))
    def test_encode_matches_the_numpy_oracle(self, text):
        assert _SYNTH_VOCAB.encode(text) == oracle_encode(_SYNTH_VOCAB, text)

    def test_encoding_never_longer_than_bytes(self, vocab):
        for d in synth_raw_docs(50, seed=4):
            text = d["text"]
            assert len(vocab.encode(text)) <= len(text.encode("utf-8"))

    def test_boundary_marker_dropped(self, vocab):
        marked = f"و{BOUNDARY}ال{BOUNDARY}كتاب"
        assert vocab.decode(vocab.encode(marked)) == "والكتاب"

    def test_merges_never_cross_boundary(self, vocab):
        # encoding with boundaries equals concatenating piecewise encodings
        marked = f"الكتاب{BOUNDARY}الكتاب"
        left = vocab.encode("الكتاب")
        assert vocab.encode(marked) == left + left

    def test_specials_never_emitted(self, vocab):
        ids = vocab.encode("مرحبا <pad> نص")
        assert all(i >= 4 for i in ids)

    def test_save_load_round_trip(self, vocab, tmp_path):
        vocab.save(tmp_path / "vocab.json")
        again = BpeVocab.load(tmp_path / "vocab.json")
        assert again.merges == vocab.merges
        assert again.vocab_hash() == vocab.vocab_hash()
        text = "مرحبا بكم"
        assert again.encode(text) == vocab.encode(text)

    def test_token_strings_maps_to_ids(self, vocab):
        strings = token_strings(vocab)
        assert strings["ا"] == 4 + "ا".encode("utf-8")[0] or "ا" in strings
        for s, i in list(strings.items())[:50]:
            assert vocab.token_bytes[i].decode("utf-8") == s

    @pytest.mark.parametrize("vocab_size", [512, 2048])
    def test_encode_matches_the_oracle_on_the_golden_corpus(self, vocab_size):
        """At vocab 2048 the merges run out (586 of them) and chain deep.
        Training's own ids for the corpus are the same ids."""
        docs = prepare_documents(synth_raw_docs(200, seed=31), NormalizationPolicy())
        vocab, trained_ids = bpe_train_encode([d.text for d in docs], vocab_size=vocab_size)
        assert len(vocab.merges) == {512: 252, 2048: 586}[vocab_size]
        for doc, ids in zip(docs, trained_ids, strict=True):
            assert vocab.encode(doc.text) == oracle_encode(vocab, doc.text) == ids.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["a", "ab", "b", "ba", BOUNDARY]),
                              st.integers(1, 40)), max_size=6))
    def test_long_runs_match_the_oracle(self, runs):
        """Runs merge merged ids: (a, a), then (aa, aa), then (aaaa, aaaa), ..."""
        assert sum(a >= 260 and b >= 260 for a, b in _RUNS_VOCAB.merges) >= 10
        text = "".join(unit * count for unit, count in runs)
        assert _RUNS_VOCAB.encode(text) == oracle_encode(_RUNS_VOCAB, text)


_SHARED_VOCAB = bpe_train(["مرحبا بكم في المدرسة اليوم", "abc abc"], vocab_size=300)
_SYNTH_VOCAB = bpe_train([d["text"] for d in synth_raw_docs(100, seed=2)], vocab_size=512)
_RUNS_VOCAB = bpe_train(["a" * 100, "ab" * 50, "ba" * 30, "aab" * 20], vocab_size=300)


def _vocab_dict(merges):
    return {"format": "desklora-bpe", "version": 1, "vocab_size": 300,
            "specials": ["<pad>", "<bos>", "<eos>", "<sep>"], "merges": merges}


class TestVocabFile:
    """A tokenizer file loads exactly or raises FormatError."""

    @pytest.mark.parametrize("content", [
        '{"format": "desklora-bpe", "merges": [[101, 1',  # truncated
        json.dumps({k: v for k, v in _vocab_dict([]).items() if k != "merges"}),
        json.dumps(_vocab_dict([[900, 5]])),  # id past the table
        json.dumps(_vocab_dict([[260, 5]])),  # a merge of its own id
        json.dumps(_vocab_dict([[-3, 5]])),  # a Python negative index
        json.dumps(_vocab_dict([[5]])),
        json.dumps(_vocab_dict([["a", "b"]])),
        json.dumps(_vocab_dict([[True, 5]])),
        json.dumps(_vocab_dict([[101, 102], [101, 102]])),  # one pair, two ranks
        json.dumps(_vocab_dict([[101, 102]]) | {"vocab_size": "300"}),
        json.dumps(_vocab_dict([[101, 102]]) | {"vocab_size": 260}),  # holds no merge
        json.dumps(_vocab_dict([[101, 102]]) | {"version": 2}),
        json.dumps([_vocab_dict([])]),
        b"\xff\xfe{}",
    ])
    def test_damaged_file_raises_format_error(self, tmp_path, content):
        path = tmp_path / "vocab.json"
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            path.write_bytes(content)
        with pytest.raises(FormatError):
            BpeVocab.load(path)

    @pytest.fixture(scope="class")
    def sweep_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("vocab_sweep")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_truncation_and_flip_sweep(self, sweep_dir, data):
        path = sweep_dir / "vocab.json"
        _SYNTH_VOCAB.save(path)
        blob = path.read_bytes()
        op = data.draw(st.sampled_from(["truncate", 0x01, 0xFF]), label="op")
        at = data.draw(st.integers(0, len(blob) - 2), label="at")  # blob[-2] closes the object
        if op == "truncate":
            path.write_bytes(blob[:at])
            with pytest.raises(FormatError):
                BpeVocab.load(path)
            return
        flipped = bytearray(blob)
        flipped[at] ^= op
        path.write_bytes(bytes(flipped))
        try:
            vocab = BpeVocab.load(path)
        except FormatError:
            return
        text = "والكتاب الكبير"
        assert vocab.decode(vocab.encode(text)) == text


class TestShards:
    @pytest.fixture(scope="class")
    def prepared(self):
        policy = NormalizationPolicy()
        docs = prepare_documents(synth_raw_docs(60, seed=5), policy)
        vocab = bpe_train([d.text for d in docs], vocab_size=512)
        return policy, docs, vocab

    def test_write_read_round_trip(self, prepared, tmp_path):
        policy, docs, vocab = prepared
        write_encoded_shards(docs, vocab, policy, tmp_path, shard_docs=25)
        reader = ShardReader(tmp_path)
        assert len(reader) == len(docs)
        for i, doc in enumerate(docs):
            assert reader.doc_tokens(i).tolist() == vocab.encode(doc.text)
            assert reader.docs[i]["dialect"] == doc.dialect

    def test_manifest_counts(self, prepared, tmp_path):
        policy, docs, vocab = prepared
        write_encoded_shards(docs, vocab, policy, tmp_path)
        reader = ShardReader(tmp_path)
        counts = reader.manifest["counts"]
        assert sum(counts["source"].values()) == len(docs)
        assert sum(counts["dialect"].values()) == len(docs)
        assert reader.vocab_hash == vocab.vocab_hash()
        assert reader.policy.to_dict() == policy.to_dict()

    def test_shard_byte_size_formula(self, prepared, tmp_path):
        policy, docs, vocab = prepared
        write_encoded_shards(docs, vocab, policy, tmp_path, shard_docs=len(docs))
        lens = [len(vocab.encode(d.text)) for d in docs]
        expected = 6 + 4 + 4 * len(docs) + 4 * sum(lens)
        assert (tmp_path / "shard_0000.bin").stat().st_size == expected

    @pytest.mark.parametrize("n_docs", [1, 256, 257, 600])
    def test_manifest_has_the_bytes_of_one_json_encode(self, n_docs, tmp_path):
        """The doc index is encoded in slices of entries; across slice
        boundaries the file holds what one encode of the manifest gives."""
        docs = [Document(f"نص {i}", dialect=("MSA", "EGY", "GLF")[i % 3]) for i in range(n_docs)]
        ids = [[4 + i % 7] * (1 + i % 3) for i in range(n_docs)]
        manifest = write_shards(docs, ids, "hash", NormalizationPolicy(), tmp_path, shard_docs=100)
        expected = json.dumps(manifest, ensure_ascii=False, sort_keys=True) + "\n"
        assert (tmp_path / "manifest.json").read_text(encoding="utf-8") == expected

    def test_more_docs_than_a_u16_counts(self):
        counts, ids = loads_shard(dumps_shard([[5]] * 70_000 + [[6, 7]]))
        assert counts.size == 70_001 and ids.size == 70_002 and ids[-1] == 7
        assert not ids.flags.writeable

    @pytest.mark.parametrize("token_lists", [[], [[]], [np.array([3, 4], np.int32), [], [9]]])
    def test_shard_round_trip_with_empty_documents_or_none(self, token_lists):
        blob = dumps_shard(token_lists)
        assert blob[6:10] == len(token_lists).to_bytes(4, "little")
        counts, ids = loads_shard(blob)
        assert counts.tolist() == [len(t) for t in token_lists]
        assert ids.tolist() == [int(i) for t in token_lists for i in t]

    def test_one_id_array_has_the_bytes_of_one_array_per_document(self):
        """Documents of lists and arrays of mixed integer types, the largest
        u32 id among them, give the bytes a write per document gives."""
        token_lists = [np.array([3, 4], np.int32), [], [2**32 - 1, 0],
                       np.array([7], np.uint32), [], np.array([], np.int64)]
        w = Writer(b"SHRD", 2)
        w.pack("I", len(token_lists))
        w.array([len(t) for t in token_lists], "<u4")
        for ids in token_lists:
            w.array(ids, "<u4")
        assert dumps_shard(token_lists) == w.getvalue()

    @pytest.mark.parametrize("token_lists", [[np.array([-1])], [[2**32]], [[5], [0, -3]]])
    def test_id_outside_u32_is_refused(self, token_lists):
        """An id the file's u32 cannot hold is refused, not wrapped into another id."""
        with pytest.raises(ContractError, match="fit u32"):
            dumps_shard(token_lists)

    def test_v1_shard_set_needs_a_new_prep(self, prepared, tmp_path):
        policy, docs, vocab = prepared
        write_encoded_shards(docs, vocab, policy, tmp_path)
        shard = tmp_path / "shard_0000.bin"
        blob = shard.read_bytes()[:4] + b"\x01\x00" + shard.read_bytes()[6:]
        shard.write_bytes(blob)
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        manifest["shards"][0]["sha256"] = hashlib.sha256(blob).hexdigest()
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(FormatError, match="unsupported version 1, expected 2"):
            ShardReader(tmp_path)

    def test_corruption_detected(self, prepared, tmp_path):
        policy, docs, vocab = prepared
        write_encoded_shards(docs, vocab, policy, tmp_path)
        shard = tmp_path / "shard_0000.bin"
        blob = bytearray(shard.read_bytes())
        blob[20] ^= 0xFF
        shard.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="corrupt"):
            ShardReader(tmp_path)

    def test_empty_doc_rejected(self, prepared, tmp_path):
        policy, _, vocab = prepared
        with pytest.raises(DataError):
            write_encoded_shards([Document(text="", id="x")], vocab, policy, tmp_path)

    def test_one_id_list_per_document(self, prepared, tmp_path):
        policy, docs, vocab = prepared
        ids = [vocab.encode(d.text) for d in docs]
        with pytest.raises(ContractError, match="token id lists"):
            write_shards(docs, ids[:-1], vocab.vocab_hash(), policy, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_deterministic_bytes(self, prepared, tmp_path):
        policy, docs, vocab = prepared
        write_encoded_shards(docs, vocab, policy, tmp_path / "a")
        write_encoded_shards(docs, vocab, policy, tmp_path / "b")
        assert (tmp_path / "a" / "shard_0000.bin").read_bytes() == (
            tmp_path / "b" / "shard_0000.bin"
        ).read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()

    def test_policy_consistency_reencode(self, prepared, tmp_path):
        """Decoded shard text re-tokenized under the same policy gives identical ids."""
        policy, docs, vocab = prepared
        write_encoded_shards(docs, vocab, policy, tmp_path)
        reader = ShardReader(tmp_path)
        for i in range(0, len(docs), 7):
            ids = reader.doc_tokens(i).tolist()
            text = vocab.decode(ids)  # markers already consumed at write time
            assert encode_text(text, vocab, policy) == ids

    def test_dialect_filtered_iteration(self, prepared, tmp_path):
        policy, docs, vocab = prepared
        write_encoded_shards(docs, vocab, policy, tmp_path)
        reader = ShardReader(tmp_path)
        want = sum(1 for d in docs if d.dialect == "MSA")
        got = sum(1 for _ in reader.iter_tokens("MSA"))
        assert got == want


class TestManifest:
    """A damaged manifest raises FormatError; one that disagrees with a
    shard's checksum raises DataError. Both exit 3 from the CLI."""

    @pytest.fixture(scope="class")
    def shard_dir(self, tmp_path_factory):
        policy = NormalizationPolicy()
        docs = prepare_documents(synth_raw_docs(12, seed=6), policy)
        out = tmp_path_factory.mktemp("manifest")
        write_encoded_shards(docs, _SHARED_VOCAB, policy, out, shard_docs=5)
        return out

    @staticmethod
    def use(shard_dir):
        reader = ShardReader(shard_dir)
        for i in range(len(reader)):
            reader.doc_tokens(i)
        sum(1 for _ in reader.iter_tokens("MSA"))
        return reader

    def damaged(self, shard_dir, tmp_path, edit):
        for f in shard_dir.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        manifest = json.loads((shard_dir / "manifest.json").read_text(encoding="utf-8"))
        edit(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        return tmp_path

    def test_intact_loads(self, shard_dir):
        assert len(self.use(shard_dir)) == 12

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("docs"),
        lambda m: m.pop("policy"),
        lambda m: m.pop("counts"),
        lambda m: m.pop("vocab_hash"),
        lambda m: m["docs"][0].update(shard=3),  # past the last shard
        lambda m: m["docs"][0].update(shard=-1),  # a Python negative index
        lambda m: m["docs"][4].update(index=5),  # past the shard's last doc
        lambda m: m["docs"][0].update(index=True),
        lambda m: m["docs"].pop(),
        lambda m: m["docs"][0].update(tokens=m["docs"][0]["tokens"] + 1),
        lambda m: m["docs"][0].update(dialect="XYZ"),
        lambda m: m["counts"]["source"].update(other=99),
        lambda m: m["shards"][0].update(file="../shard_0000.bin"),
        lambda m: m["policy"].update(unify_alif="yes"),
        lambda m: m["policy"].update(unknown=True),
    ])
    def test_damaged_manifest_raises_format_error(self, shard_dir, tmp_path, edit):
        with pytest.raises(FormatError):
            self.use(self.damaged(shard_dir, tmp_path, edit))

    def test_truncated_manifest_raises_format_error(self, shard_dir, tmp_path):
        self.damaged(shard_dir, tmp_path, lambda m: None)
        blob = (tmp_path / "manifest.json").read_bytes()
        (tmp_path / "manifest.json").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            self.use(tmp_path)

    @pytest.fixture(scope="class")
    def sweep(self, shard_dir, tmp_path_factory):
        return self.damaged(shard_dir, tmp_path_factory.mktemp("manifest_sweep"), lambda m: None)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_truncation_and_flip_sweep(self, shard_dir, sweep, data):
        blob = (shard_dir / "manifest.json").read_bytes()
        op = data.draw(st.sampled_from(["truncate", 0x01, 0xFF]), label="op")
        at = data.draw(st.integers(0, len(blob) - 2), label="at")  # blob[-2] closes the object
        if op == "truncate":
            (sweep / "manifest.json").write_bytes(blob[:at])
            with pytest.raises(FormatError):
                self.use(sweep)
            return
        flipped = bytearray(blob)
        flipped[at] ^= op
        (sweep / "manifest.json").write_bytes(bytes(flipped))
        try:
            self.use(sweep)
        except DataError:  # FormatError included; a flipped checksum is a mismatch
            pass
