"""Pins of the resolutions the composition, transport and I/O layers build.

Each resolution is pinned by the SHA-256 of repr(classes), so the class
order and the block order inside every class are fixed, not just the
partition.  The digests and the error texts were recorded from the
tuple-and-dict block lookup that the array lookup replaced.
"""

import hashlib

import pytest

from trisys import io
from trisys.composition import resolvable_sts, split_standard_resolution
from trisys.constructions import affine_geometry
from trisys.designs import BlockDesign, transport_resolution


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# order -> (classes, digest of classes, digest of the system's blocks)
RESOLVABLE = {
    45: (22, "7d16181fe4227114fa1188d5d47244d23d0ff85bf896b911294f3aabffd2bfc0",
         "4bb2d7c51cf21c5a05a36af6c0014180768c2362ad6da960ecd32d2883dfac3d"),
    135: (67, "4c3245c224993688da6590cb00ff8c1edda82a1e14fda8f072a7eccd702b39d6",
          "b62a739dcada9d0661d917dd2e9882936f12681422998784bfc89326c165cbb5"),
}


@pytest.mark.parametrize("order", sorted(RESOLVABLE))
def test_composed_resolution_pinned(order):
    # Orders 45 and 135 go through compose_resolution.
    n, classes_digest, blocks_digest = RESOLVABLE[order]
    s, r = resolvable_sts(order)
    assert r.n_classes == n
    assert digest(r.classes) == classes_digest
    assert digest(s.blocks) == blocks_digest


def test_composed_resolution_first_classes():
    assert resolvable_sts(45)[1].classes[0][:6] == (0, 64, 85, 105, 122, 260)
    assert resolvable_sts(135)[1].classes[0][:6] == (0, 199, 265, 330, 392, 935)


# k -> (classes, blocks, digest of classes, digest of the remainder's blocks)
SPLIT = {
    2: (3, 9, "e25c9ffbf83055da1556bb7684847604ade07d75f74926c9c36e8e04fa7b187d",
        "9d2c82175c1525234c7ca87f8a0930469a2fa2f5a89ab4d9a78d45744a6626dc"),
    3: (12, 108, "d2b37aab9b4fa114cbb5bd4a76954986bb9b141b81af7cde3042cf089c380dca",
        "bb164c568ecd9707eb6626c1e3ef7d249fee0d870c4b8a0d8706f3376ae2a4d1"),
    4: (39, 1053, "4a1f7c99f995e062e68f5e784e5718ea73eda39b008ebb7ee2b9539c01ef3a5e",
        "10a76b921c5e2a5e271771458ac920901e5a7feab9bae3149d67adfc9f480400"),
}


@pytest.mark.parametrize("k", sorted(SPLIT))
def test_split_standard_resolution_pinned(k):
    n, b, classes_digest, blocks_digest = SPLIT[k]
    d, r = split_standard_resolution(k)
    assert (r.n_classes, len(d.blocks)) == (n, b)
    assert digest(r.classes) == classes_digest
    assert digest(d.blocks) == blocks_digest


def test_split_standard_resolution_k2_classes():
    assert split_standard_resolution(2)[1].classes == ((0, 4, 8), (1, 5, 6), (2, 3, 7))


TRANSPORT = {
    2: "12ebafa5bb6bbaaffce3e76df45e6c73d657dc2970f818b44f29ec00ab974aee",
    3: "558cdbec87b660bafff00c73f17ac0877ac691bdc5869eb5cd5fe3226dd7ac20",
}


@pytest.mark.parametrize("k", sorted(TRANSPORT))
def test_transport_resolution_pinned(k):
    ag = affine_geometry(k)
    v = 3**k
    image = [(7 * p + 3) % v for p in range(v)]
    r = transport_resolution(ag.sts.design, ag.standard_resolution, image)
    assert digest(r.classes) == TRANSPORT[k]
    if k == 2:
        assert r.classes == ((3, 4, 8), (1, 5, 9), (0, 10, 11), (2, 6, 7))


def test_resolution_record_round_trip_pinned():
    s, r = resolvable_sts(45)
    text = io.serialize(io.resolution_record(s.design, r))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5393348065c110a9bc48a4fa6217e5e095a95f77487ee2c69118405bb2b6b2ee"
    )
    assert io.resolution_from_record(io.deserialize(text), s.design) == r


def test_resolution_from_record_sorts_inline_blocks():
    rec = io.DesignFileRecord("resolution", 9, classes=(((2, 1, 0), (8, 4, 0)),))
    design = affine_geometry(2).sts.design
    assert io.resolution_from_record(rec, design).classes == ((0, 2),)


# Inline blocks of a resolution file that are not blocks of AG(2) minus its
# last block (6, 7, 8): the first one in file order is named.
UNKNOWN = {
    "missing-last": (((0, 1, 2), (3, 4, 5), (6, 7, 8)),),
    "second-class": (((2, 1, 0),), ((0, 4, 8), (5, 1, 6), (9, 10, 11))),
    "short": (((0, 1, 2),), ((0, 1), (0, 4, 8))),
    "range": (((0, 1, 100), (0, 1, 2)),),
    "negative": (((-1, 0, 1),),),
    "huge": (((0, 1, 10**30),),),
    "empty-block": (((),),),
    "missing-before-short": (((0, 1, 3), (0, 1)),),
}
UNKNOWN_TEXT = {
    "missing-last": "(6, 7, 8)",
    "second-class": "(9, 10, 11)",
    "short": "(0, 1)",
    "range": "(0, 1, 100)",
    "negative": "(-1, 0, 1)",
    "huge": "(0, 1, 1000000000000000000000000000000)",
    "empty-block": "()",
    "missing-before-short": "(0, 1, 3)",
}


@pytest.mark.parametrize("name", sorted(UNKNOWN))
def test_resolution_from_record_names_unknown_block(name):
    blocks = affine_geometry(2).sts.blocks
    other = BlockDesign(9, blocks[:-1])
    rec = io.DesignFileRecord("resolution", 9, classes=UNKNOWN[name])
    with pytest.raises(ValueError) as info:
        io.resolution_from_record(rec, other)
    assert str(info.value) == f"resolution references unknown block {UNKNOWN_TEXT[name]}"


def test_resolution_from_record_on_empty_design():
    empty = io.DesignFileRecord("resolution", 0)
    assert io.resolution_from_record(empty, BlockDesign(0, ())).classes == ()
    rec = io.DesignFileRecord("resolution", 3, classes=(((0, 1, 2),),))
    with pytest.raises(ValueError) as info:
        io.resolution_from_record(rec, BlockDesign(3, ()))
    assert str(info.value) == "resolution references unknown block (0, 1, 2)"


def test_resolution_from_record_refuses_other_kind_and_order():
    ag = affine_geometry(2)
    rec = io.resolution_record(ag.sts.design, ag.standard_resolution)
    for other, text in (
        (io.sts_record(ag.sts), "not a resolution file"),
        (io.DesignFileRecord("resolution", 27, classes=rec.class_body),
         "resolution file has v=27, design has v=9"),
    ):
        with pytest.raises(ValueError) as info:
            io.resolution_from_record(other, ag.sts.design)
        assert str(info.value) == text
