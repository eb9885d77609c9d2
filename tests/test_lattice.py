"""Lattice construction: golden listings, family counting, layout, JSON."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhombuscode.engine import require_independent, stabilizer_rank
from rhombuscode.lattice import (
    NAMED_CODES,
    CodeSpec,
    LatticeLayout,
    _adjacency,
    _first_anticommuting_pair,
    _x_blocks,
    _z_blocks,
    build_named,
    build_unit,
    code_from_json,
    code_to_json,
    family_parameters,
    layout_coordinates,
    stack_grid,
    stack_l_shape,
)
from rhombuscode.pauli import PauliOperator, parse_pauli, to_string
from test_pauli import brute_first_pair

UNIT_STABILIZERS = ("X1X2X3X4", "X3X4X5X6", "Z1Z3Z5", "Z2Z4Z6")


def support(op):
    return frozenset(
        q + 1 for q in range(op.n) if (op.x_mask | op.z_mask) >> q & 1
    )


# --- catalog golden data ---------------------------------------------------


def test_unit_listing():
    code = build_unit()
    assert code.n == 6
    assert tuple(to_string(s) for s in code.stabilizers) == UNIT_STABILIZERS
    assert code.declared == (6, 2, 2)
    assert [to_string(x) + "/" + to_string(z) for x, z in code.logical_pairs] == [
        "X1X3/Z1Z4Z6",
        "X4X6/Z2Z4Z5",
    ]


@pytest.mark.parametrize(
    "name,n,m,declared",
    [
        ("unit", 6, 4, (6, 2, 2)),
        ("two_horizontal", 12, 7, (12, 5, 2)),
        ("two_vertical", 10, 7, (10, 3, 3)),
        ("grid_2x2", 20, 12, (20, 8, 3)),
    ],
)
def test_catalog_counts_and_rank(name, n, m, declared):
    code = build_named(name)
    assert (code.n, code.m, code.declared) == (n, m, declared)
    rank = stabilizer_rank(code)
    assert rank == m  # independent generators
    assert code.n - rank == declared[1]
    assert len(code.logical_pairs) == declared[1]


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        build_named("three_diagonal")


# --- grid family -----------------------------------------------------------


def test_stack_grid_base_case_is_unit():
    assert stack_grid(1).stabilizers == build_unit().stabilizers


def test_stack_grid_2_matches_golden_listing():
    got = {to_string(s) for s in stack_grid(2).stabilizers}
    want = {to_string(s) for s in build_named("grid_2x2").stabilizers}
    assert got == want


@pytest.mark.parametrize("p", [1, 2, 3])
def test_grid_counts_match_formulas(p):
    code = stack_grid(p)
    fam = family_parameters(p)
    assert fam.n == 2 * p * (2 * p + 1)
    assert fam.m == 2 * p * (p + 1)
    assert fam.k == 2 * p * p
    assert code.n == fam.n and code.m == fam.m
    assert code.n - stabilizer_rank(code) == fam.k
    assert code.declared == (fam.n, fam.k, fam.d)


def test_encoding_rate_increases_toward_half():
    rates = [family_parameters(p).k / family_parameters(p).n for p in range(1, 7)]
    assert rates[0] == pytest.approx(1 / 3)
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(r < 0.5 for r in rates)


# --- L-shaped family ---------------------------------------------------------


@pytest.mark.parametrize("v", range(4))
@pytest.mark.parametrize("h", range(4))
def test_l_shape_counts(v, h):
    code = stack_l_shape(v, h)
    assert code.n == 10 + 8 * v + 10 * h
    assert code.m == 7 + 6 * v + 5 * h
    k = code.n - stabilizer_rank(code)
    assert k == 3 + 2 * v + 5 * h
    assert code.declared == (code.n, k, v + 3)


@pytest.mark.parametrize("v", range(4))
@pytest.mark.parametrize("h", range(4))
def test_l_shape_matrix_counts(v, h):
    code = stack_l_shape(v, h, fill_matrix=True)
    assert code.n == 10 + 8 * v + 10 * h + 8 * v * h
    assert code.m == 7 + 6 * v + 5 * h + 4 * v * h
    assert code.n - stabilizer_rank(code) == 3 + 2 * v + 5 * h + 4 * v * h


def test_l_shape_base_is_two_vertical():
    assert stack_l_shape(0, 0).stabilizers == build_named("two_vertical").stabilizers


# --- layout geometry ---------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_layout_adjacency_reproduces_stabilizer_supports(p):
    code = stack_grid(p)
    layout = layout_coordinates(p)
    assert len(layout.data_coords) == code.n
    x_supports = {
        support(s) for s in code.stabilizers if s.is_x_type()
    }
    z_supports = {
        support(s) for s in code.stabilizers if s.is_z_type()
    }
    assert {frozenset(adj) for adj in layout.x_adjacency} == x_supports
    assert {frozenset(adj) for adj in layout.z_adjacency} == z_supports


def unit_distance_adjacency(data, ancillae):
    """_adjacency as the O(N^2) predicate dx^2 + 3 dy^2 == 4."""
    return tuple(
        tuple(
            i + 1
            for i, (dx, dy) in enumerate(data)
            if (ax - dx) ** 2 + 3 * (ay - dy) ** 2 == 4
        )
        for ax, ay in ancillae
    )


@pytest.mark.parametrize("p", range(1, 9))
def test_adjacency_matches_unit_distance_predicate(p):
    layout = layout_coordinates(p)
    data = layout.data_coords
    for ancillae, adjacency in (
        (layout.x_ancilla_coords, layout.x_adjacency),
        (layout.z_ancilla_coords, layout.z_adjacency),
    ):
        assert adjacency == unit_distance_adjacency(data, ancillae)


points = st.tuples(st.integers(-6, 6), st.integers(-4, 4))


@settings(max_examples=300, deadline=None)
@given(st.lists(points, max_size=60, unique=True), st.lists(points, max_size=12))
def test_adjacency_matches_predicate_on_random_points(data, ancillae):
    """Through the layout's properties when the points make a layout (distinct,
    every ancilla measuring a data qubit), else through _adjacency, with the
    layout refused at construction."""
    data, ancillae = tuple(data), tuple(ancillae)
    want = unit_distance_adjacency(data, ancillae)
    assert _adjacency(data, ancillae) == want
    if len(set(data + ancillae)) == len(data + ancillae) and all(want):
        layout = LatticeLayout(data, (), ancillae)
        assert (layout.x_adjacency, layout.z_adjacency) == ((), want)
    else:
        with pytest.raises(ValueError):
            LatticeLayout(data, ancillae, ())


@pytest.mark.parametrize("x_anc, z_anc", [(((0, 0), (9, 9)), ()), ((), ((9, 9),))],
                         ids=["x", "z"])
def test_isolated_ancilla_raises_at_construction(x_anc, z_anc):
    """An ancilla at unit distance from no data qubit is refused when the
    layout is built, not when its adjacency is first read."""
    data = ((-2, 0), (2, 0))
    with pytest.raises(ValueError, match="^every ancilla must measure at least one data qubit$"):
        LatticeLayout(data, x_anc, z_anc)


def test_layout_equality_is_over_the_coordinates():
    """Reading the adjacency caches it on the layout but leaves equality and
    the hash to the coordinates."""
    a, b = layout_coordinates(2), layout_coordinates(2)
    assert a.x_adjacency and a.z_adjacency
    assert a == b and hash(a) == hash(b)
    assert a != layout_coordinates(3)


def test_layout_coords_distinct():
    layout = layout_coordinates(2)
    everything = (
        list(layout.data_coords)
        + list(layout.x_ancilla_coords)
        + list(layout.z_ancilla_coords)
    )
    assert len(set(everything)) == len(everything)


# --- JSON round-trip ----------------------------------------------------------


@pytest.mark.parametrize("name", NAMED_CODES)
def test_json_round_trip_named(name):
    code = build_named(name)
    text = code_to_json(code)
    back = code_from_json(text)
    assert back.n == code.n
    assert back.stabilizers == code.stabilizers
    assert back.logical_pairs == code.logical_pairs
    assert back.declared == code.declared
    # serialization is a fixed point after one round trip
    assert code_to_json(back) == text


def test_json_round_trip_generated():
    for code in (stack_grid(2), stack_l_shape(1, 1), stack_l_shape(1, 1, True)):
        back = code_from_json(code_to_json(code))
        assert back.stabilizers == code.stabilizers
        assert back.declared == code.declared


def test_json_rejects_garbage():
    with pytest.raises((ValueError, KeyError)):
        code_from_json("{}")


def reference_code_to_json(code):
    """The document through json.dumps(..., indent=2), as code_to_json built it
    before it wrote the fixed shape directly."""
    doc = {
        "n": code.n,
        "stabilizers": [to_string(s) for s in code.stabilizers],
        "logical_pairs": (
            [[to_string(x), to_string(z)] for x, z in code.logical_pairs]
            if code.logical_pairs is not None
            else None
        ),
        "declared": list(code.declared) if code.declared is not None else None,
        "layout": (
            {
                "data": [list(c) for c in code.layout.data_coords],
                "x_ancilla": [list(c) for c in code.layout.x_ancilla_coords],
                "z_ancilla": [list(c) for c in code.layout.z_ancilla_coords],
            }
            if code.layout is not None
            else None
        ),
    }
    return json.dumps(doc, indent=2) + "\n"


def odd_layout():
    """Negative, float and integral-float coordinates, each ancilla at unit
    distance from a data qubit."""
    data = ((-3, -1), (-2.5, 0.5), (1, -0.5), (2.0, 10**20))
    x_anc = ((-1, -1), (0, 0.5))
    z_anc = ((-0.5, 0.5), (4.0, 10**20))
    return LatticeLayout(data, x_anc, z_anc)


def sparse_code(**fields):
    stabs = tuple(parse_pauli(t, 3) for t in ("X1X2", "Z1Z2"))
    return CodeSpec(3, stabs, **fields)


JSON_CODES = (
    [pytest.param(build_named(name), id=name) for name in NAMED_CODES]
    + [pytest.param(stack_grid(p), id=f"grid:{p}") for p in (1, 2, 3, 4, 5, 6, 12, 16, 20)]
    + [pytest.param(stack_l_shape(v, h, fill), id=f"lshape:{v},{h}" + (",matrix" * fill))
       for v in range(4) for h in range(4) for fill in (False, True)]
    + [
        pytest.param(sparse_code(), id="bare"),
        pytest.param(sparse_code(logical_pairs=()), id="no-logicals"),
        pytest.param(sparse_code(layout=odd_layout(), declared=(3, 1, 1)), id="odd-layout"),
        pytest.param(sparse_code(logical_pairs=(
            (parse_pauli("X3", 3), parse_pauli("Y3", 3)),
            (parse_pauli("X1Y2Y3", 3), parse_pauli("Z1Z2", 3)),
        )), id="y-logicals"),
    ]
)


@pytest.mark.parametrize("code", JSON_CODES)
def test_code_to_json_matches_indenting_encoder(code):
    text = code_to_json(code)
    assert text == reference_code_to_json(code)
    assert code_from_json(text) == code


def test_json_empty_logical_pairs_differ_from_missing_ones():
    """"logical_pairs": [] states that the code file has no logicals; only a
    missing key (or null) leaves them to be synthesized."""
    text = code_to_json(sparse_code(logical_pairs=()))
    assert code_from_json(text).logical_pairs == ()
    doc = json.loads(text)
    del doc["logical_pairs"]
    assert code_from_json(json.dumps(doc)).logical_pairs is None


def test_code_to_json_writes_phase_prefixes_as_the_encoder_does():
    """Every phase of X3 and of Y3, written with to_string's prefixes and
    read back by code_from_json."""
    ops = [PauliOperator(3, 0b100, z, phase) for z in (0, 0b100) for phase in range(4)]
    code = sparse_code(logical_pairs=tuple(zip(ops[0::2], ops[1::2])), layout=odd_layout())
    text = code_to_json(code)
    assert text == reference_code_to_json(code)
    assert code_from_json(text) == code
    assert sorted(sum(json.loads(text)["logical_pairs"], [])) == sorted(
        ["X3", "+iX3", "-X3", "-iX3", "Y3", "+iY3", "-Y3", "-iY3"])


def text_rule_stabilizers(pair_rows, z_order_block_major):
    """The stabilizer strings by the text rule _assemble used before it built
    masks: sorted qubit labels joined per block, then parsed."""
    qubit, nq = {}, 0
    for c, rows in enumerate(pair_rows, start=1):
        for r in rows:
            for col in (2 * c - 1, 2 * c):
                nq += 1
                qubit[(r, col)] = nq
    x_texts = []
    for c, rows in enumerate(pair_rows, start=1):
        for j, block in enumerate(_x_blocks(rows)):
            qs = sorted(qubit[(r, col)] for r in block for col in (2 * c - 1, 2 * c))
            x_texts.append(((c, j), "".join(f"X{q}" for q in qs)))
    z_texts = []
    npairs = len(pair_rows)
    for b in range(npairs + 1):
        left_rows = pair_rows[b - 1] if b >= 1 else ()
        right_rows = pair_rows[b] if b < npairs else ()
        blocks = {}
        for rows, col in ((left_rows, 2 * b), (right_rows, 2 * b + 1)):
            if not rows:
                continue
            for block in _z_blocks(rows):
                blocks.setdefault(tuple(block), []).extend(qubit[(r, col)] for r in block)
        for i, key in enumerate(sorted(blocks)):
            z_texts.append(((i, b) if z_order_block_major else (b, i),
                            "".join(f"Z{q}" for q in sorted(blocks[key]))))
    texts = [t for _, t in sorted(x_texts)] + [t for _, t in sorted(z_texts)]
    return tuple(parse_pauli(t, nq) for t in texts)


def grid_rows(p):
    return [tuple(range(1, 2 * p + 2))] * p


def l_shape_rows(v, h, fill):
    full = tuple(range(1, 4 * v + 6))
    short = tuple(range(4 * v + 1, 4 * v + 6))
    return [full] + [full if fill else short] * h


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_grid_masks_match_text_rule(p):
    assert stack_grid(p).stabilizers == text_rule_stabilizers(grid_rows(p), False)


@pytest.mark.parametrize("v,h", [(v, h) for v in range(3) for h in range(3)])
@pytest.mark.parametrize("fill", [False, True])
def test_l_shape_masks_match_text_rule(v, h, fill):
    pair_rows = l_shape_rows(v, h, fill)
    assert stack_l_shape(v, h, fill).stabilizers == text_rule_stabilizers(pair_rows, True)


def dict_rule_stabilizers(pair_rows, z_order_block_major):
    """The stabilizers as _assemble built them before it computed masks by
    arithmetic: a (row, column) -> bit dict over the numbering, and each
    block's mask the sum of its qubits' bits."""
    npairs = len(pair_rows)
    bit = {}
    for c, rows in enumerate(pair_rows, start=1):
        for r in rows:
            for col in (2 * c - 1, 2 * c):
                bit[(r, col)] = 1 << len(bit)
    nq = len(bit)
    x_entries = []
    for c, rows in enumerate(pair_rows, start=1):
        for j, block in enumerate(_x_blocks(rows)):
            mask = sum(bit[(r, col)] for r in block for col in (2 * c - 1, 2 * c))
            x_entries.append(((c, j), mask))
    z_entries = []
    for b in range(npairs + 1):
        left_rows = pair_rows[b - 1] if b >= 1 else ()
        right_rows = pair_rows[b] if b < npairs else ()
        blocks = {}
        for rows, col in ((left_rows, 2 * b), (right_rows, 2 * b + 1)):
            if not rows:
                continue
            for block in _z_blocks(rows):
                key = tuple(block)
                blocks[key] = blocks.get(key, 0) | sum(bit[(r, col)] for r in block)
        for i, key in enumerate(sorted(blocks)):
            z_entries.append(((i, b) if z_order_block_major else (b, i), blocks[key]))
    return tuple(PauliOperator(nq, x_mask=x) for _, x in sorted(x_entries)) + tuple(
        PauliOperator(nq, z_mask=z) for _, z in sorted(z_entries)
    )


@pytest.mark.parametrize("p", range(1, 21))
def test_grid_masks_match_dict_rule(p):
    """The same stabilizers in the same order as the bit-dict construction."""
    assert stack_grid(p).stabilizers == dict_rule_stabilizers(grid_rows(p), False)


@pytest.mark.parametrize("v,h", [(v, h) for v in range(5) for h in range(5)])
@pytest.mark.parametrize("fill", [False, True])
def test_l_shape_masks_match_dict_rule(v, h, fill):
    pair_rows = l_shape_rows(v, h, fill)
    assert stack_l_shape(v, h, fill).stabilizers == dict_rule_stabilizers(pair_rows, True)


# --- validation and scale -------------------------------------------------------


def test_anticommuting_stabilizers_name_the_first_pair():
    """The first anticommuting pair in combinations order is (X1, Z1Z2), not
    one involving the first generator; (Z1Z2, X2) anticommutes too."""
    stabs = tuple(parse_pauli(t, 3) for t in ("Z3", "X1", "Z1Z2", "X2"))
    with pytest.raises(ValueError) as exc:
        CodeSpec(3, stabs)
    assert str(exc.value) == "stabilizers X1 and Z1Z2 anticommute"


@st.composite
def css_lists(draw):
    """(n, pure-X and pure-Z operators, expected first pair or "any").

    In the "none" and "one" modes every support is made of whole qubit
    pairs (2i, 2i + 1) below the last qubit, so any X and Z overlap evenly;
    "one" then puts the last qubit on one X-type and one Z-type, the only
    odd overlap. "many" draws arbitrary masks, with many odd overlaps."""
    n = draw(st.integers(1, 120))
    mode = draw(st.sampled_from(["none", "one", "many"]))
    kinds = draw(st.lists(st.sampled_from("XZ"), max_size=16))
    if mode == "one" and not {"X", "Z"} <= set(kinds):
        kinds += ["X", "Z"]
    if mode == "many":
        masks = [draw(st.integers(0, (1 << n) - 1)) for _ in kinds]
    else:
        units = draw(st.lists(st.integers(0, (1 << ((n - 1) // 2)) - 1),
                              min_size=len(kinds), max_size=len(kinds)))
        masks = [sum(3 << 2 * i for i in range(u.bit_length()) if u >> i & 1) for u in units]
    expected = "any" if mode == "many" else None
    if mode == "one":
        a = draw(st.sampled_from([g for g, k in enumerate(kinds) if k == "X"]))
        b = draw(st.sampled_from([g for g, k in enumerate(kinds) if k == "Z"]))
        masks[a] |= 1 << (n - 1)
        masks[b] |= 1 << (n - 1)
        expected = (min(a, b), max(a, b))
    ops = [PauliOperator(n, x_mask=m) if k == "X" else PauliOperator(n, z_mask=m)
           for k, m in zip(kinds, masks)]
    return n, ops, expected


@settings(max_examples=300, deadline=None)
@given(css_lists())
def test_css_commutation_check_finds_the_first_pair(case):
    """The one-pass check names the pair a combinations scan finds first, and
    CodeSpec raises with that pair."""
    n, ops, expected = case
    found = _first_anticommuting_pair(ops, n)
    assert found == brute_first_pair(ops)
    if expected != "any":
        assert found == expected
    if found is None:
        CodeSpec(n, tuple(ops))
    else:
        a, b = (to_string(ops[i]) for i in found)
        with pytest.raises(ValueError, match=f"^stabilizers {a} and {b} anticommute$"):
            CodeSpec(n, tuple(ops))


def test_stack_grid_40_builds_round_trips_and_is_independent():
    """n = 6480, m = 3280: construction, the commutation check, adjacency,
    JSON and the rank check stay near-linear at this size."""
    code = stack_grid(40)
    assert (code.n, code.m) == (6480, 3280)
    back = code_from_json(code_to_json(code))
    assert back.stabilizers == code.stabilizers
    assert back.layout == code.layout
    assert require_independent(back) == 3200
