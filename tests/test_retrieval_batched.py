"""Batched embedding and top-k scoring against one-at-a-time references.

The references below are the per-text embedding and per-row distance loop
that the batched code replaced. Results must match them bit for bit,
because equal distances are common and a last-bit difference reorders them.
"""

import gc
import mmap
import random
import re
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groundedqa import HashedEmbedder, KnowledgeGraph, ScriptedBackend, parse_axiom, retrieval
from groundedqa.entities import AnchorEntitySet
from groundedqa.expansion import Branch, MissingEvidence, expand
from groundedqa.kg import Subgraph
from groundedqa.retrieval import (
    SCORE_CHUNK,
    _fnv1a_64,
    prune_subgraph,
    top_k_similar,
    verbalize,
)
from groundedqa.trace import Audit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import datagen  # noqa: E402

WORDS = ["rome", "mayor", "age", "spouse", "fate", "blue", "45", "x", "née"]
TEXTS = [
    "",
    "   ",
    "Rome",
    "rome rome rome mayor",
    "x x x x x x x x x x x x",
    "née",
    "Née Bérénice, 東京 2024!",
    "age 45 -- spouse of the mayor of Rome",
    "!!!",
]


def _ref_fnv1a_64(token):
    h = 0xCBF29CE484222325
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


def _ref_embed(text, dimension):
    vec = np.zeros(dimension)
    for token in re.split(r"[^a-z0-9]+", text.lower()):
        if token:
            vec[_ref_fnv1a_64(token) % dimension] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def _ref_top_k(dimension, axiom_text, kg, ids, k, exclude=frozenset()):
    qv = _ref_embed(axiom_text, dimension)
    scored = sorted(
        (float(np.linalg.norm(_ref_embed(verbalize(kg, kg.triple(t)), dimension) - qv)), t)
        for t in set(ids) - set(exclude)
    )
    return [tid for _, tid in scored[:k]]


def test_fnv_cache_returns_uncached_values():
    tokens = ["", "a", "rome", "née", "東京", "45", "x" * 300] + [f"t{i}" for i in range(500)]
    for _ in range(2):  # second pass is served from the cache
        assert [_fnv1a_64(t) for t in tokens] == [_ref_fnv1a_64(t) for t in tokens]


@pytest.mark.parametrize("dimension", [256, 7])
def test_embed_many_rows_equal_per_text_reference_bit_for_bit(dimension):
    e = HashedEmbedder(dimension)
    m = e.embed_many(TEXTS)
    assert m.shape == (len(TEXTS), dimension) and m.dtype == np.float64
    for i, text in enumerate(TEXTS):
        ref = _ref_embed(text, dimension)
        assert m[i].tobytes() == ref.tobytes(), text
        assert e.embed(text).tobytes() == ref.tobytes(), text
    assert not m[0].any() and not m[1].any()  # empty text embeds to zero
    assert e.embed_many([]).shape == (0, dimension)


def _tie_heavy_kg(seed, n=2000):
    rng = random.Random(seed)
    return KnowledgeGraph([
        (
            f"E{rng.randrange(20)}",
            rng.choice(WORDS),
            " ".join(rng.choices(WORDS, k=rng.randrange(1, 4))),
        )
        for _ in range(n)
    ])


def _cases(kg, seed):
    """(query, ids, k, exclude) around the chunk boundary, with and without exclude."""
    rng = random.Random(seed)
    all_ids = [t.id for t in kg.triples]
    for n in (1, SCORE_CHUNK - 1, SCORE_CHUNK, SCORE_CHUNK + 1, 1000):
        for with_exclude in (False, True):
            extra = n // 3 + 1 if with_exclude else 0
            ids = rng.sample(all_ids, n + extra)
            # n ids remain: the excluded ones are passed ids plus a few never passed
            exclude = (set(ids[n:]) | (set(rng.sample(all_ids, 5)) - set(ids[:n]))
                       if with_exclude else set())
            for k in (0, 1, 10, n + 5):
                yield " ".join(rng.choices(WORDS, k=3)), ids, k, exclude


@pytest.mark.parametrize("embedder", [HashedEmbedder()], ids=["embed_many"])
def test_top_k_equals_per_row_norm_brute_force(embedder):
    kg = _tie_heavy_kg(11)
    checked = 0
    for text, ids, k, exclude in _cases(kg, 12):
        got = top_k_similar(embedder, text, kg, ids, k, exclude=exclude)
        want = _ref_top_k(256, text, kg, ids, k, exclude)
        assert got == want, (len(ids), k, len(exclude))
        assert not set(got) & exclude
        checked += 1
    assert checked == 5 * 2 * 4


def test_tie_heavy_kg_has_equal_distances():
    """The brute-force check above is only sharp if equal distances occur."""
    kg = _tie_heavy_kg(11)
    qv = _ref_embed("rome mayor age", 256)
    dists = [
        float(np.linalg.norm(_ref_embed(verbalize(kg, t), 256) - qv)) for t in kg.triples
    ]
    assert len(set(dists)) < len(dists) // 10


def _assert_rows_equal_reference(rows, kg, ids, dimension):
    assert rows.shape == (len(ids), dimension) and rows.dtype == np.float64
    for row, tid in zip(rows, ids):
        text = verbalize(kg, kg.triple(tid))
        assert row.tobytes() == _ref_embed(text, dimension).tobytes(), (tid, text)


def _labelled_kg():
    """Tie-heavy triples plus labelled heads, a Unicode label and a tokenless triple."""
    kg = _tie_heavy_kg(5, n=300)
    triples = [(t.head, t.relation, t.tail) for t in kg.triples]
    triples += [("E1", "spouse", "E2"), ("!!", "--", "?"), ("E3", "née", "東京 2024")]
    return KnowledgeGraph(triples, [("E1", "Née Bérénice"), ("E2", "Rome mayor")])


@pytest.mark.parametrize("dimension", [256, 7])
def test_embed_triples_rows_equal_reference_cold_warm_and_partly_warm(dimension):
    kg = _labelled_kg()
    e = HashedEmbedder(dimension)
    n = len(kg)
    first = [n - 1, n - 2, n - 3] + list(range(0, 150, 2))
    _assert_rows_equal_reference(e.embed_triples(kg, first), kg, first, dimension)  # cold
    _assert_rows_equal_reference(e.embed_triples(kg, first), kg, first, dimension)  # warm
    # partly warm, unsorted, with a repeated id
    second = list(range(n - 1, 100, -1)) + [7, 7, 0]
    _assert_rows_equal_reference(e.embed_triples(kg, second), kg, second, dimension)
    assert e.embed_triples(kg, []).shape == (0, dimension)
    assert not e.embed_triples(kg, [n - 2]).any()  # tokenless triple embeds to zero


def test_top_k_equals_per_row_norm_brute_force_on_a_warm_store():
    kg = _tie_heavy_kg(11)
    embedder = HashedEmbedder()
    for _ in range(2):  # the second pass is served from the store
        for text, ids, k, exclude in _cases(kg, 12):
            got = top_k_similar(embedder, text, kg, ids, k, exclude=exclude)
            assert got == _ref_top_k(256, text, kg, ids, k, exclude), (len(ids), k)


def test_store_is_per_kg_object_so_an_extended_kg_gets_its_own_rows():
    kg = KnowledgeGraph([("E1", "spouse", "E2"), ("E1", "age", "45")], [("E1", "Rome mayor")])
    other = kg.extended([], [("E2", "Other name")])
    assert verbalize(other, other.triple(0)) != verbalize(kg, kg.triple(0))
    e = HashedEmbedder()
    base_row = e.embed_triples(kg, [0])[0]
    other_row = e.embed_triples(other, [0])[0]
    assert other_row.tobytes() != base_row.tobytes()
    _assert_rows_equal_reference(e.embed_triples(other, [0, 1]), other, [0, 1], 256)
    assert e.embed_triples(kg, [0])[0].tobytes() == base_row.tobytes()


def test_a_count_above_255_widens_the_store():
    kg = KnowledgeGraph([("E1", "age", "45"), ("E1", "motto", " ".join(["rome"] * 300))])
    e = HashedEmbedder()
    e.embed_triples(kg, [0])
    assert e._stores[kg].counts.dtype == np.uint8
    _assert_rows_equal_reference(e.embed_triples(kg, [1, 0]), kg, [1, 0], 256)
    assert e._stores[kg].counts.dtype == np.uint16


def test_store_is_freed_with_its_kg():
    kg = _tie_heavy_kg(3, n=50)
    e = HashedEmbedder()
    top_k_similar(e, "rome mayor", kg, range(len(kg)), 5)
    assert len(e._stores) == 1
    ref = weakref.ref(kg)
    del kg
    gc.collect()
    assert ref() is None and len(e._stores) == 0


def test_top_k_scores_the_rows_the_embedder_gives():
    kg = _tie_heavy_kg(7, n=100)
    query = "age fate x"

    class TripleTwoAtQuery(HashedEmbedder):
        def embed_triples(self, kg, triple_ids):
            rows = super().embed_triples(kg, triple_ids)
            rows[[i for i, tid in enumerate(triple_ids) if tid == 2]] = self.embed(query)
            return rows

    assert top_k_similar(HashedEmbedder(), query, kg, range(len(kg)), 1) != [2]
    assert top_k_similar(TripleTwoAtQuery(), query, kg, range(len(kg)), 1) == [2]


def test_top_k_rejects_ids_outside_the_kg():
    kg = KnowledgeGraph([("A", "r", "x"), ("B", "r", "y")])
    for ids in ([-1], [0, 2], [5], range(3), np.array([1, -1]), np.array([2, 0], np.int32)):
        with pytest.raises(ValueError):
            top_k_similar(HashedEmbedder(), "B r y", kg, ids, 1)
    # an excluded out-of-range id is never scored
    assert top_k_similar(HashedEmbedder(), "B r y", kg, [1, 9], 1, exclude={9}) == [1]


CONTRACT_KG = _tie_heavy_kg(31, n=600)
CONTRACT_IDS = random.Random(32).choices(range(len(CONTRACT_KG)), k=300)  # with repeats
ID_KINDS = {
    "list_with_duplicates": list,
    "set": set,
    "frozenset": frozenset,
    "generator": lambda ids: (tid for tid in ids),
    "int32_array": lambda ids: np.array(ids, dtype=np.int32),
    "int64_array": lambda ids: np.array(ids, dtype=np.int64),
    "sorted_distinct_intp_array": lambda ids: np.array(sorted(set(ids)), dtype=np.intp),
}
EXCLUDES = {
    "none": frozenset(),
    "disjoint": frozenset(set(range(len(CONTRACT_KG))) - set(CONTRACT_IDS)),
    "overlapping": frozenset(CONTRACT_IDS[::3] + [len(CONTRACT_KG) + 5, -2]),
    "covering": frozenset(CONTRACT_IDS),
}


@pytest.mark.parametrize("exclude", sorted(EXCLUDES))
@pytest.mark.parametrize("kind", sorted(ID_KINDS))
def test_top_k_picks_are_the_same_for_every_kind_of_id_collection(kind, exclude):
    exclude = EXCLUDES[exclude]
    embedder = HashedEmbedder()
    for k in (1, 10, 400):
        got = top_k_similar(
            embedder, "rome mayor age", CONTRACT_KG, ID_KINDS[kind](CONTRACT_IDS), k, exclude,
        )
        assert got == _ref_top_k(256, "rome mayor age", CONTRACT_KG, CONTRACT_IDS, k, exclude)
        assert all(type(tid) is int for tid in got)  # trace documents need plain ints


def test_top_k_takes_a_range():
    kg = CONTRACT_KG
    for ids in (range(len(kg)), range(50, 400, 3), range(0)):
        got = top_k_similar(HashedEmbedder(), "fate blue 45", kg, ids, 10)
        assert got == _ref_top_k(256, "fate blue 45", kg, ids, 10)


@pytest.mark.parametrize("dimension", [0, -3])
def test_embedder_rejects_a_dimension_below_one(dimension):
    with pytest.raises(ValueError):
        HashedEmbedder(dimension)


def test_threads_sharing_a_fresh_embedder_give_the_serial_picks():
    kg = _tie_heavy_kg(13)
    rng = random.Random(14)
    jobs = [
        (" ".join(rng.choices(WORDS, k=3)), range(start, start + 900), 10)
        for start in (0, 300, 600, 900, 1100)
    ]
    serial = [top_k_similar(HashedEmbedder(), text, kg, ids, k) for text, ids, k in jobs]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = HashedEmbedder()
            got = [None] * len(jobs)

            def run(i):
                text, ids, k = jobs[i]
                got[i] = top_k_similar(shared, text, kg, ids, k)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == serial
            store = shared._stores[kg]
            scored = np.flatnonzero(store.slots >= 0)
            # every scored triple got exactly one row
            assert store.size == len(scored) == len(set(store.slots[scored].tolist()))
            _assert_rows_equal_reference(shared.embed_triples(kg, scored), kg, scored, 256)
    finally:
        sys.setswitchinterval(old_interval)


def _shortlist_kg():
    """Tie-heavy triples plus tokenless ones (zero rows) and one that widens the store."""
    kg = _tie_heavy_kg(23, n=400)
    triples = [(t.head, t.relation, t.tail) for t in kg.triples]
    triples += [("!!", "--", "?"), ("E1", "motto", " ".join(["rome"] * 300)), ("?", "!", "--")]
    return KnowledgeGraph(triples)


SHORTLIST_KG = _shortlist_kg()
WIDE_ID = len(SHORTLIST_KG) - 2
TRIPLE_ID = st.integers(0, len(SHORTLIST_KG) - 1)


class FullPath(HashedEmbedder):
    """Gives the store's rows through an override, so top_k_similar scores every candidate."""

    def embed_triples(self, kg, triple_ids):
        return super().embed_triples(kg, triple_ids)


@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(st.sampled_from(WORDS + ["!!"]), max_size=4),
    ids=st.lists(TRIPLE_ID, min_size=1, max_size=150),
    repeats=st.integers(0, 20),
    exclude=st.sets(TRIPLE_ID, max_size=15),
    k=st.one_of(st.integers(1, 12), st.sampled_from(["n", "n+3"])),
    warm=st.lists(TRIPLE_ID, max_size=60),
    widen=st.booleans(),
)
@example(words=[], ids=list(range(len(SHORTLIST_KG))), repeats=0, exclude=set(), k=10,
         warm=[], widen=False)  # a tokenless query: every distance is 0 or 1
@example(words=["rome", "mayor"], ids=list(range(len(SHORTLIST_KG))), repeats=5,
         exclude={0, 1, WIDE_ID}, k=1, warm=list(range(50)), widen=True)
def test_shortlisted_top_k_equals_per_row_norm_brute_force(
    words, ids, repeats, exclude, k, warm, widen,
):
    ids = ids + ids[:repeats]
    n = len(set(ids) - exclude)
    k = {"n": n, "n+3": n + 3}.get(k, k)
    embedder = HashedEmbedder()
    if widen:
        embedder.embed_triples(SHORTLIST_KG, [WIDE_ID])
        assert embedder._stores[SHORTLIST_KG].counts.dtype == np.uint16
    embedder.embed_triples(SHORTLIST_KG, warm)
    text = " ".join(words)
    got = top_k_similar(embedder, text, SHORTLIST_KG, ids, k, exclude=exclude)
    assert got == _ref_top_k(256, text, SHORTLIST_KG, ids, k, exclude)


def test_shortlist_kg_often_ties_at_the_kth_distance():
    """The property test is only sharp if the k-th distance is often tied past k."""
    kg, k = SHORTLIST_KG, 10
    rng = random.Random(29)
    tied = 0
    for _ in range(20):
        text = " ".join(rng.choices(WORDS, k=3))
        ranking = _ref_top_k(256, text, kg, range(len(kg)), len(kg))
        qv = _ref_embed(text, 256)
        dist = [np.linalg.norm(_ref_embed(verbalize(kg, kg.triple(t)), 256) - qv)
                for t in ranking[k - 1:k + 1]]
        tied += dist[0] == dist[1]
        assert top_k_similar(HashedEmbedder(), text, kg, range(len(kg)), k) == ranking[:k]
    assert tied >= 5


@pytest.mark.parametrize("warm", [False, True])
def test_a_hashed_top_k_call_looks_the_store_up_once(monkeypatch, warm):
    """One slot lookup serves the shortlist and the exact pass over it."""
    embedder, ids, text = HashedEmbedder(), range(len(SHORTLIST_KG)), "rome mayor age"
    if warm:
        embedder.embed_triples(SHORTLIST_KG, ids)
    calls = []
    stored = HashedEmbedder._stored

    def counting(self, kg, triple_ids):
        calls.append(len(triple_ids))
        return stored(self, kg, triple_ids)

    monkeypatch.setattr(HashedEmbedder, "_stored", counting)
    assert top_k_similar(embedder, text, SHORTLIST_KG, ids, 10) == _ref_top_k(
        256, text, SHORTLIST_KG, ids, 10,
    )
    assert calls == [len(SHORTLIST_KG)]


def test_a_cold_whole_kg_call_counts_at_most_score_chunk_texts_at_once(monkeypatch):
    kg = _tie_heavy_kg(17, n=3 * SCORE_CHUNK + 5)
    sizes = []
    bucket_counts = retrieval._bucket_counts

    def counting(texts, dimension):
        sizes.append(len(texts))
        return bucket_counts(texts, dimension)

    monkeypatch.setattr(retrieval, "_bucket_counts", counting)
    got = top_k_similar(HashedEmbedder(), "rome mayor age", kg, range(len(kg)), 10)
    assert got == _ref_top_k(256, "rome mayor age", kg, range(len(kg)), 10)
    # the query once, then every triple once, never more than a chunk at a time
    assert max(sizes) == SCORE_CHUNK and sum(sizes) == 1 + len(kg)


@pytest.mark.parametrize("seed, index, rank, tied", [
    (26, 2938, 11, range(10, 14)),  # the whole tie lies past the top 10
    (38, 1583, 10, range(4, 11)),  # the tie spans the 10th distance
])
def test_benchmark_item_whose_evidence_ties_just_outside_the_top_k(
    tmp_path, seed, index, rank, tied,
):
    """baseline_rr items whose evidence triple ranks 11th or 12th, tied with its neighbours.

    The smaller-id tie-break orders the tie the same on every scoring path,
    so the shortlist must keep every tied triple that can win a place.
    """
    gen = datagen.generate("baseline_rr", seed, tmp_path, n_items=index + 1)
    item = gen.items[index]
    label, relation, tail, _ = gen.plans[item.query].baseline
    kg = KnowledgeGraph.load(gen.kg_file, gen.labels_file)
    (head,) = kg.resolve_label(label)
    (evidence,) = [t.id for t in kg.triples
                   if (t.head, t.relation, t.tail) == (head, relation, tail)]
    all_ids = range(len(kg))
    ranking = top_k_similar(FullPath(), item.query, kg, all_ids, len(kg))
    assert top_k_similar(HashedEmbedder(), item.query, kg, all_ids, 10) == ranking[:10]
    assert ranking.index(evidence) == rank
    qv = _ref_embed(item.query, 256)
    dist = [float(np.linalg.norm(_ref_embed(verbalize(kg, kg.triple(t)), 256) - qv))
            for t in ranking[tied.start - 1:tied.stop + 1]]
    assert dist[0] < dist[1] == dist[-2] < dist[-1] and len(set(dist[1:-1])) == 1


def _hub_kg():
    """One hub head with 2000 triples, plus a tail entity that has triples of its own."""
    rng = random.Random(41)
    triples = [("HUB", rng.choice(WORDS), " ".join(rng.choices(WORDS, k=2)))
               for _ in range(2000)]
    triples += [("HUB", "spouse", "E2"), ("E2", "age", "45"), ("E2", "fate", "rome")]
    return KnowledgeGraph(triples)


def test_pruning_a_hub_never_reads_the_subgraph_as_a_set(monkeypatch):
    """Pruning, on the search path and on both expansion paths, reads only ``Subgraph.ids``."""
    kg, axiom = _hub_kg(), parse_axiom("age(E2) >= 18")
    hub = kg.one_hop_subgraph(["HUB"])
    monkeypatch.setattr(Subgraph, "triple_ids", property(
        lambda self: pytest.fail("pruning built the subgraph's frozenset")))
    backend = ScriptedBackend({"triple_select": ["SELECT: 1,2", "SELECT: 1"]})
    embedder, audit = HashedEmbedder(), Audit()
    anchors = AnchorEntitySet(entities=[], provenance={})
    anchors.add("HUB", "lexical")
    branch = Branch(anchors, hub)
    picked = prune_subgraph(embedder, backend, kg, axiom, hub, 10, branch.consumed, audit)
    assert len(picked) >= 10
    for missing in (MissingEvidence("more", "HUB", "HUB", True),
                    MissingEvidence("age", "E2", "E2", False)):
        assert expand(kg, branch, missing, embedder, backend, axiom, 10, audit, 40)
    assert branch.subgraph.ids.tolist() == list(range(len(kg)))  # the hub's and E2's triples


def test_store_rows_are_c_contiguous_and_exact_across_doubling_and_widening(monkeypatch):
    # a small huge-page bound, so growth also moves the counts into a mapped buffer
    monkeypatch.setattr(retrieval, "_HUGE_PAGE_ARRAY_BYTES", 256 * 16)
    kg, e = SHORTLIST_KG, HashedEmbedder()
    batches = [[0, 1, 2], list(range(3, 12)), list(range(12, 40)), [WIDE_ID, 40], [41, 0, 42]]
    layouts, scored = [], []
    for batch in batches:
        rows = e.embed_triples(kg, batch)
        assert rows.flags.c_contiguous
        scored += batch
        counts = e._stores[kg].counts
        layouts.append((counts.shape, counts.dtype))
    assert {shape[0] for shape, _ in layouts} == {256}  # bucket-major
    assert len({shape[1] for shape, _ in layouts}) == 4  # 3, 12, 40, then doubled to 80
    assert not e._stores[kg].counts.flags.owndata  # it lives in a mapped buffer
    assert [dtype for _, dtype in layouts] == [np.uint8] * 3 + [np.uint16] * 2
    rng = random.Random(43)
    order = rng.sample(scored, len(scored))
    rows = e.embed_triples(kg, order)
    assert rows.flags.c_contiguous
    for row, tid in zip(rows, order):
        want = e.embed_many([verbalize(kg, kg.triple(tid))])[0]
        assert row.tobytes() == want.tobytes(), tid


@pytest.mark.skipif(not hasattr(mmap, "MADV_NOHUGEPAGE") or not Path("/proc/self/statm").exists(),
                    reason="needs madvise(MADV_NOHUGEPAGE) and /proc")
def test_filling_the_first_columns_of_a_large_count_buffer_keeps_the_rest_off_memory():
    def resident_bytes():
        return int(Path("/proc/self/statm").read_text().split()[1]) * mmap.PAGESIZE

    capacity = 16 * mmap.PAGESIZE  # each bucket row spans 16 pages: 16 MiB with 4 KiB pages
    before = resident_bytes()
    counts = retrieval._bucket_major(256, capacity, np.uint8)
    counts[:, :8] = 1  # touches a page in every bucket row
    grew = resident_bytes() - before
    assert (counts[:, :8] == 1).all()
    assert grew <= counts.nbytes // 4, grew  # about one page per bucket row, not all 16
