"""Dataset ingestion: raw triple files -> indexed graphs and a persisted bundle.

The on-disk layout follows the standard inductive benchmark convention:

    <root>/train/{train.txt,valid.txt,test.txt}   triples over training entities
    <root>/ind/{train.txt,test.txt[,valid.txt]}   support / query triples over
                                                  a disjoint entity set

Files are UTF-8 TSV ``head<TAB>relation<TAB>tail``: a leading byte-order
mark is dropped, blank lines are skipped, fields past the third are ignored
and each field is stripped. Each file is read into one flat field list
``[h0, r0, t0, h1, ...]``, with no tuple per triple; the vocabulary and the
ids come from C-level passes over those lists (``dict.fromkeys``,
``np.fromiter`` over ``map``). ``load_triples``, ``build_vocab`` and
``encode_triples`` adapt label triples to the same helpers. The processed
bundle is a single versioned binary file (magic ``IKGD3``); see
serialize_dataset for the exact layout.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from . import binio
from .errors import (
    EmptyInput,
    EntityOverlap,
    DuplicateTriple,
    IdOutOfBounds,
    MalformedLine,
    MissingFile,
    UnknownEntity,
    UnknownRelation,
)

log = logging.getLogger(__name__)

MAGIC = b"IKGD3"


def load_triples(path) -> list[tuple[str, str, str]]:
    """The (head, relation, tail) label triples of a TSV file, in file order;
    ``_read_fields`` and ``_fields_by_line`` state the parse rules."""
    fields = _read_fields(path)
    return list(zip(fields[0::3], fields[1::3], fields[2::3]))


# every byte but tab and newline: deleting them leaves a file's separators
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - {ord("\t"), ord("\n")}))


def _read_fields(path) -> list[str]:
    """One flat field list ``[h0, r0, t0, h1, ...]`` for a TSV triple file.

    The file is read once as UTF-8 text, with universal newlines and a
    leading byte-order mark dropped, and a newline added after an
    unterminated last line. When every line holds exactly two tabs, which
    one ``bytes.translate`` of the text checks, the fields are one split of
    the text with its newlines turned into tabs, each then stripped. Any
    other file, or one with a field that strips to nothing, goes through
    ``_fields_by_line``, which states the per-line rules both forms follow.
    """
    if not os.path.isfile(path):
        raise MissingFile(str(path))
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        text += "\n"
    separators = text.encode().translate(None, _NOT_SEPARATOR)
    if separators == b"\t\t\n" * (len(separators) // 3):
        fields = list(map(str.strip, text.replace("\n", "\t").split("\t")))
        del fields[-1]                  # the empty field after the last newline
        if all(fields):
            return fields
    return _fields_by_line(path, text.split("\n"))


def _fields_by_line(path, lines) -> list[str]:
    """The flat field list of ``lines`` by the per-line rules: blank lines
    are skipped, fields past the third ignored and each field stripped; a
    line with fewer than three non-blank fields raises MalformedLine with
    its 1-based number."""
    fields = _stripped_fields(lines)
    if fields is None:
        line_no = next(n for n, line in enumerate(lines, start=1)
                       if _stripped_fields([line]) is None)
        raise MalformedLine(path, line_no)
    return fields


def _stripped_fields(lines) -> list[str] | None:
    """The first three tab-separated fields of each non-blank line, stripped,
    or None when some line has fewer than three non-blank ones. The lines
    stream through C-level maps, so no list per line stays alive to trigger
    the cyclic garbage collector."""
    rows = map(str.split, filter(str.strip, lines), repeat("\t"), repeat(3))
    try:
        fields = list(map(str.strip, chain.from_iterable(map(itemgetter(0, 1, 2), rows))))
    except IndexError:
        return None
    return fields if all(fields) else None


def _flat(triples) -> list[str]:
    """The flat field list of label triples."""
    return list(chain.from_iterable(triples))


def _ends(fields) -> list[str]:
    """The head and tail fields of a flat field list: ``[h0, t0, h1, ...]``."""
    ends = fields[:]
    del ends[1::3]
    return ends


@dataclass
class Vocab:
    entity2id: dict[str, int]
    relation2id: dict[str, int]
    id2entity: list[str] = field(default_factory=list)
    id2relation: list[str] = field(default_factory=list)

    def __post_init__(self):
        e2i, r2i = self.entity2id, self.relation2id
        self.id2entity = self.id2entity or sorted(e2i, key=e2i.get)
        self.id2relation = self.id2relation or sorted(r2i, key=r2i.get)

    @property
    def num_entities(self) -> int:
        return len(self.entity2id)

    @property
    def num_relations(self) -> int:
        return len(self.relation2id)


def build_vocab(train, valid=(), test=(), support=(), query=()) -> Vocab:
    """Assign dense ids by first appearance; ``_vocab`` states the rules."""
    return _vocab([_flat(split) for split in (train, valid, test, support, query)])


def _vocab(splits) -> Vocab:
    """The vocabulary of flat field lists, train first.

    Entities are numbered by first appearance across the splits in order,
    so inductive entities receive fresh ids after the training ones.
    Relations are numbered from the training split only; the first relation
    of a later split, in split order, that train lacks raises UnknownRelation.
    No training triple raises EmptyInput.
    """
    train, *later = splits
    if not train:
        raise EmptyInput("at least one training triple required")
    relations = dict.fromkeys(train[1::3])
    for fields in later:
        for r in dict.fromkeys(fields[1::3]):
            if r not in relations:
                raise UnknownRelation(r)
    entities = dict.fromkeys(chain.from_iterable(map(_ends, splits)))
    return Vocab(dict(zip(entities, range(len(entities)))),
                 dict(zip(relations, range(len(relations)))),
                 list(entities), list(relations))


def encode_triples(raw, vocab: Vocab) -> np.ndarray:
    """Map labelled triples to an (n, 3) int64 id array, preserving order."""
    return _encode(_flat(raw), vocab)


def _encode(fields, vocab: Vocab) -> np.ndarray:
    """The (n, 3) int64 id array of a flat field list, in row order."""
    e2i, r2i = vocab.entity2id, vocab.relation2id
    n = len(fields) // 3
    out = np.empty((n, 3), dtype=np.int64)
    try:
        for col, label2id in enumerate((e2i, r2i, e2i)):
            out[:, col] = np.fromiter(map(label2id.__getitem__, fields[col::3]), np.int64, n)
    except KeyError:
        # report the first unknown label in row order, as a row-by-row scan would
        for h, r, t in zip(fields[0::3], fields[1::3], fields[2::3]):
            if h not in e2i:
                raise UnknownEntity(h) from None
            if t not in e2i:
                raise UnknownEntity(t) from None
            if r not in r2i:
                raise UnknownRelation(r) from None
        raise
    return out


def _check_key_space(num_entities: int, num_relations: int) -> None:
    """Raise ValueError unless every ``triple_keys`` value fits in int64."""
    ne, nr = int(num_entities), int(num_relations)
    if ne * ne * nr > 2 ** 63:      # the largest key is E * E * R - 1
        raise ValueError(
            f"{ne} entities and {nr} relations need {ne}^2 * {nr} triple keys, "
            f"more than int64 holds")


def triple_keys(triples, num_entities: int, num_relations: int) -> np.ndarray:
    """One int64 key ``(h * R + r) * E + t`` per row of an (n, 3) id array.

    Keys order like (h, r, t) rows, so a sorted key array answers membership
    with ``find_sorted``.
    """
    _check_key_space(num_entities, num_relations)
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return (triples[:, 0] * num_relations + triples[:, 1]) * num_entities + triples[:, 2]


def _check_ids(triples: np.ndarray, num_entities: int, num_relations: int) -> None:
    """Raise IdOutOfBounds, naming the first bad id, unless every id of an
    (n, 3) array is in range."""
    for cols, bound, name in (([0, 2], num_entities, "entity"), ([1], num_relations, "relation")):
        ids = triples[:, cols]
        if len(ids) and (ids.min() < 0 or ids.max() >= bound):
            bad = ids[(ids < 0) | (ids >= bound)][0]
            raise IdOutOfBounds(f"{name} id {bad} outside [0, {bound})")


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    # sort + neighbour mask: np.unique is over 10x slower on 60k int64 keys
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys


def _rows_of_keys(keys: np.ndarray, num_entities: int, num_relations: int) -> np.ndarray:
    """The (n, 3) id rows whose ``triple_keys`` are ``keys``, in key order."""
    hr, t = np.divmod(keys, num_entities)
    h, r = np.divmod(hr, num_relations)
    return np.stack([h, r, t], axis=1)


def find_sorted(sorted_keys: np.ndarray, keys) -> tuple[np.ndarray, np.ndarray]:
    """``(pos, found)`` of ``keys`` in the ascending ``sorted_keys``, each of
    ``keys``' shape: ``sorted_keys[pos] == keys`` exactly where ``found``.
    ``pos`` is the leftmost insertion point, so a repeated key finds its
    first position, and it may be ``len(sorted_keys)`` where not found."""
    pos = sorted_keys.searchsorted(keys)
    if not len(sorted_keys):
        return pos, np.zeros(pos.shape, dtype=bool)
    # a key past the last one clips onto it and compares unequal
    return pos, sorted_keys.take(pos, mode="clip") == keys


class IndexedGraph:
    """Immutable adjacency over integer-id triples.

    One CSR holds every edge twice: row ``e`` is entity ``e``'s out-run of
    (neighbor, relation) pairs, ending at ``out_end[e]``, then its in-run,
    each run sorted by (neighbor, relation); ``csr_keys`` holds their sorted keys.
    ``known_keys`` is the sorted, duplicate-free ``triple_keys`` array of
    *all* triples the graph is meant to know about (used for filtered
    negative sampling), which may be a superset of the edges present in the
    adjacency; ``contains`` and ``contains_many`` look triples up in it with
    ``find_sorted``, and ``sampling._corruption_pool`` reads a tail side's
    known triples from it by key range, and a head side's from
    ``reversed_keys``.
    The extraction kernels in ``indkg.subgraph`` read the CSR arrays and
    ``edge_positions`` only, never the known triples.
    """

    def __init__(self, triples: np.ndarray, num_entities: int, num_relations: int,
                 known_triples: np.ndarray | None = None):
        _check_key_space(num_entities, num_relations)
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        known = (triples if known_triples is None
                 else np.asarray(known_triples, dtype=np.int64).reshape(-1, 3))
        for arr in (triples, known):
            _check_ids(arr, num_entities, num_relations)
        self.num_entities = num_entities
        self.num_relations = num_relations
        # collapse exact duplicates; sorted keys give the canonical (h, r, t) order
        keys = _sorted_unique(triple_keys(triples, num_entities, num_relations))
        self.known_keys = (keys if known_triples is None else
                           _sorted_unique(triple_keys(known, num_entities, num_relations)))
        self.triples = _rows_of_keys(keys, num_entities, num_relations)

        self.indptr, self.out_end, self.nbr, self.rel, self.csr_keys = _build_csr(
            self.triples, num_entities, num_relations)

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    @cached_property
    def edged(self) -> np.ndarray:
        """Ascending ids of the entities with at least one edge, whose CSR
        rows are not empty; built on first use."""
        return np.flatnonzero(self.indptr[1:] > self.indptr[:-1])

    @cached_property
    def reversed_keys(self) -> np.ndarray:
        """The sorted ``triple_keys`` of the known triples read as (t, r, h),
        ``(t * R + r) * E + h``, so the known heads of ``(., r, t)`` are one
        key range, as the known tails of ``(h, r, .)`` are in
        ``known_keys``; built on first use."""
        rows = _rows_of_keys(self.known_keys, self.num_entities, self.num_relations)
        return np.sort(triple_keys(rows[:, ::-1], self.num_entities, self.num_relations))

    def contains(self, h: int, r: int, t: int) -> bool:
        return bool(self.contains_many([(h, r, t)])[0])

    def contains_many(self, triples) -> np.ndarray:
        """Boolean membership of each row of an (n, 3) id array."""
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        ne, nr = self.num_entities, self.num_relations
        h, r, t = triples.T
        in_range = (h >= 0) & (h < ne) & (r >= 0) & (r < nr) & (t >= 0) & (t < ne)
        # keys of out-of-range rows may alias in-range ones; they are masked off
        return in_range & find_sorted(self.known_keys, triple_keys(triples, ne, nr))[1]

    def edge_positions(self, triples) -> np.ndarray:
        """(n, 2) CSR positions of each row's (t, r) in the out-run of h and
        (h, r) in the in-run of t, or -1 where the row is not an edge. An id
        out of range, whose key could alias an edge's, raises IdOutOfBounds."""
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        _check_ids(triples, self.num_entities, self.num_relations)
        pos, found = find_sorted(self.csr_keys, _csr_keys(
            triples[:, [0, 2]], np.array([0, 1]), triples[:, [2, 0]], triples[:, [1]],
            self.num_entities, self.num_relations))
        return np.where(found, pos, -1)

    def out_edges(self, e: int):
        """(neighbor, relation) pairs for edges e -> neighbor."""
        s, p = self.indptr[e], self.out_end[e]
        return self.nbr[s:p], self.rel[s:p]

    def in_edges(self, e: int):
        """(neighbor, relation) pairs for edges neighbor -> e."""
        s, p = self.out_end[e], self.indptr[e + 1]
        return self.nbr[s:p], self.rel[s:p]


def _csr_keys(src, is_in, nbr, rel, n, num_relations) -> np.ndarray:
    """The uint64 key ``((src * 2 + is_in) * n + nbr) * R + rel`` of src's
    out- (is_in 0) or in-entry (is_in 1) (nbr, rel); it is below 2 * n^2 * R,
    which uint64 holds wherever ``triple_keys`` fit int64."""
    row = (np.asarray(src) * 2 + is_in).astype(np.uint64)
    return row * np.uint64(max(n * num_relations, 1)) + (nbr * num_relations + rel).astype(np.uint64)


def _build_csr(triples, n, num_relations):
    """``(indptr, out_end, nbr, rel, keys)``: row e holds e's out-entries
    (t, r), then its in-entries (h, r), in ascending ``_csr_keys`` order.
    One ``np.sort`` of the keys orders them, and ``nbr, rel`` are decoded
    from the sorted keys by ``divmod``; equal keys carry equal entries, so
    the sort need not be stable."""
    h, r, t = triples.T
    key = np.sort(_csr_keys(np.concatenate([h, t]), np.repeat(np.array([0, 1]), len(h)),
                            np.concatenate([t, h]), np.concatenate([r, r]), n, num_relations))
    nbr, rel = divmod((key % np.uint64(max(n * num_relations, 1))).astype(np.int64),
                      num_relations)
    out_deg = np.bincount(h, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(out_deg + np.bincount(t, minlength=n))])
    return indptr, indptr[:-1] + out_deg, nbr, rel, key


class DatasetBundle:
    """The six encoded splits of a dataset and the two graphs over them.

    ``train_graph`` has the ``train`` triples as edges and knows ``train``,
    ``valid`` and ``test``; ``ind_graph`` has the ``support`` triples as
    edges and knows ``support``, ``ind_valid`` and ``query``. The held-out
    splits are thus known triples of their graph (filtered negatives skip
    them) but not edges of it. ``ind_valid`` is empty when absent on disk.

    Each graph is built once, on first access, and cached on the bundle, so
    a stage sorts only the graph it reads; a graph passed to the
    constructor is kept as given. The ids of all six splits are checked
    against the vocabulary here, whether or not their graph is ever built.
    """

    def __init__(self, vocab: Vocab, train: np.ndarray, valid: np.ndarray,
                 test: np.ndarray, support: np.ndarray, query: np.ndarray,
                 ind_valid: np.ndarray, train_graph: IndexedGraph | None = None,
                 ind_graph: IndexedGraph | None = None):
        self.vocab = vocab
        self.train, self.valid, self.test = train, valid, test
        self.support, self.query, self.ind_valid = support, query, ind_valid
        ne, nr = vocab.num_entities, vocab.num_relations
        _check_key_space(ne, nr)
        for split in self.splits().values():
            _check_ids(split, ne, nr)
        # cached_property reads a value already in the instance dict as built
        if train_graph is not None:
            self.train_graph = train_graph
        if ind_graph is not None:
            self.ind_graph = ind_graph

    @cached_property
    def train_graph(self) -> IndexedGraph:
        return IndexedGraph(self.train, self.vocab.num_entities, self.vocab.num_relations,
                            known_triples=np.vstack([self.train, self.valid, self.test]))

    @cached_property
    def ind_graph(self) -> IndexedGraph:
        return IndexedGraph(self.support, self.vocab.num_entities, self.vocab.num_relations,
                            known_triples=np.vstack([self.support, self.ind_valid, self.query]))

    def splits(self):
        return {"train": self.train, "valid": self.valid, "test": self.test,
                "support": self.support, "ind_valid": self.ind_valid,
                "query": self.query}


def _check_duplicates(name, triples, vocab: Vocab):
    """The distinct rows of ``triples`` in (h, r, t) order; warns on duplicates."""
    ne, nr = vocab.num_entities, vocab.num_relations
    uniq = _rows_of_keys(_sorted_unique(triple_keys(triples, ne, nr)), ne, nr)
    if len(uniq) < len(triples):
        log.warning("%s: dropped %d duplicate triple(s)", name, len(triples) - len(uniq))
    return uniq


def _check_cross_split(observed, other, other_name, vocab: Vocab):
    """Raise DuplicateTriple when a held-out triple of ``other`` also occurs
    in ``observed``, the split its graph is built from (train or support)."""
    if len(other) == 0:
        return
    ne, nr = vocab.num_entities, vocab.num_relations
    dups = np.flatnonzero(find_sorted(np.sort(triple_keys(observed, ne, nr)),
                                      triple_keys(other, ne, nr))[1])
    if len(dups):
        raise DuplicateTriple(
            f"{len(dups)} triple(s) of split {other_name!r} also occur in the "
            f"observed graph, e.g. {tuple(np.asarray(other)[dups[0]].tolist())}")


_RAW_FILES = {"train": ("train", "train.txt"), "valid": ("train", "valid.txt"),
              "test": ("train", "test.txt"), "support": ("ind", "train.txt"),
              "query": ("ind", "test.txt")}


def load_raw_dataset(root) -> DatasetBundle:
    """Build a DatasetBundle from the on-disk TSV layout under ``root``.

    Each file becomes one flat field list (``_read_fields``), with no tuple
    per triple; the vocabulary numbers entities across train, valid, test,
    support, ind_valid and query in that order (``_vocab``). An empty
    training split raises EmptyInput. An unknown relation raises
    UnknownRelation before any entity check; a support, ind_valid or query
    triple that names a training entity raises EntityOverlap with the
    labels of every such entity.
    """
    raw = {name: _read_fields(os.path.join(root, sub, fname))
           for name, (sub, fname) in _RAW_FILES.items()}
    ind_valid_path = os.path.join(root, "ind", "valid.txt")
    raw["ind_valid"] = _read_fields(ind_valid_path) if os.path.isfile(ind_valid_path) else []
    vocab = _vocab([raw[name] for name in
                    ("train", "valid", "test", "support", "ind_valid", "query")])
    enc = {name: _encode(fields, vocab) for name, fields in raw.items()}
    # training entities are numbered first, so they hold the ids up to train's largest
    ind_ends = np.concatenate([enc[name][:, [0, 2]].ravel()
                               for name in ("support", "ind_valid", "query")])
    shared = ind_ends[ind_ends <= enc["train"][:, [0, 2]].max()]
    if len(shared):
        raise EntityOverlap({vocab.id2entity[i] for i in shared.tolist()})
    train, valid, test, support, query, ind_valid = (
        _check_duplicates(name, triples, vocab) for name, triples in enc.items())
    _check_cross_split(train, valid, "valid", vocab)
    _check_cross_split(train, test, "test", vocab)
    _check_cross_split(support, query, "query", vocab)
    _check_cross_split(support, ind_valid, "ind_valid", vocab)
    return DatasetBundle(vocab, train, valid, test, support, query, ind_valid)


def _write_triple_block(buf, triples):
    binio.write_u64(buf, len(triples))
    binio.write_array(buf, triples, "<i8")


def _read_triple_block(rd):
    n = rd.read_u64()
    return rd.read_array(3 * n, "<i8").reshape(n, 3)


def serialize_dataset(bundle: DatasetBundle) -> bytes:
    """Encode a bundle into the IKGD3 byte layout.

    Layout: magic, the entity labels and the relation labels as two string
    tables (see ``binio``), then six triple blocks (train, valid, test,
    support, query, ind_valid), each a u64 row count followed by the
    (h, r, t) rows as one little-endian int64 array.
    """
    buf = bytearray(MAGIC)
    binio.write_strings(buf, bundle.vocab.id2entity)
    binio.write_strings(buf, bundle.vocab.id2relation)
    for split in (bundle.train, bundle.valid, bundle.test,
                  bundle.support, bundle.query, bundle.ind_valid):
        _write_triple_block(buf, split)
    return bytes(buf)


def deserialize_dataset(data: bytes) -> DatasetBundle:
    rd = binio.Reader(data)
    binio.check_magic(rd, MAGIC)
    id2entity = rd.read_strings()
    id2relation = rd.read_strings()
    vocab = Vocab({s: i for i, s in enumerate(id2entity)},
                  {s: i for i, s in enumerate(id2relation)},
                  id2entity, id2relation)
    blocks = [_read_triple_block(rd) for _ in range(6)]
    rd.expect_end()
    return DatasetBundle(vocab, *blocks)


def persist_dataset(bundle: DatasetBundle, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_dataset(bundle))


def load_dataset(path) -> DatasetBundle:
    if not os.path.isfile(path):
        raise MissingFile(str(path))
    with open(path, "rb") as fh:
        return deserialize_dataset(fh.read())
