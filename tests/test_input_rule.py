"""One input rule for every exported name: each callable in
``ppinterp.__all__`` rejects NaN, +-inf, complex, text and out-of-range
arguments with a ``ValueError``.

``VALID`` holds one accepted call of every exported callable.  Every
numeric argument of it (a scalar, or one entry of an array) is spoiled in
turn with NaN, +inf, -inf, a complex value and the number as text
(``SPOILERS``), and ``OUT_OF_RANGE`` adds the calls whose arguments are
real and finite but outside their range.  ``classify_interval`` takes any
real, finite slopes, so it has no out-of-range row."""

import numpy as np
import pytest

import ppinterp
from ppinterp import DBI, PPI, InterpConfig
from ppinterp.stencil import DividedDifferenceTable, IntervalInterpolant

X = np.linspace(0.0, 1.0, 5)
U = np.array([0.0, 1.0, 3.0, 2.0, 2.5])
V2 = np.outer(U, U + 1.0)
V3 = V2[:, :, None] * (U + 2.0)
XO = np.linspace(0.0, 1.0, 7)
CFG = InterpConfig(d=4, im=PPI)
PIECE = ppinterp.interval_interpolants(X, U, CFG)[1]
TABLE = ppinterp.build_table(X, U, 4)
SLOPES = np.diff(U) / np.diff(X)

VALID = {
    "adaptive_interpolation_1d": (X, U, XO, 3, PPI),
    "adaptive_interpolation_2d": (X, X, V2, XO, XO, 3, DBI),
    "adaptive_interpolation_3d": (X, X, X, V3, XO, XO, XO, 3, PPI),
    "pchip_1d": (X, U, XO),
    "pchip_2d": (X, X, V2, XO, XO),
    "InterpConfig": (3, PPI, 2, 0.01, 1.0),
    "boundary_sigmas": (SLOPES, 1),
    "classify_interval": (1.0, -1.0, 2.0),
    "interval_bounds": (1.0, 2.0, 1, 0.01, 1.0),
    "build_table": (X, U, 3),
    "interval_interpolants": (X, U, CFG),
    "newton_eval": (PIECE, X, XO),
    "replay_chain": (PIECE, TABLE, X),
}


def replaced(args, k, value):
    return args[:k] + (value,) + args[k + 1 :]


OUTSIDE = np.append(XO, 1.5)
OUT_OF_RANGE = {
    "adaptive_interpolation_1d": [replaced(VALID["adaptive_interpolation_1d"], 2, -XO - 0.5)],
    "adaptive_interpolation_2d": [replaced(VALID["adaptive_interpolation_2d"], 4, OUTSIDE)],
    "adaptive_interpolation_3d": [replaced(VALID["adaptive_interpolation_3d"], 5, OUTSIDE)],
    "pchip_1d": [(X, U, OUTSIDE)],
    "pchip_2d": [(X, X, V2, XO, -XO - 0.5)],
    "InterpConfig": [(0, PPI), (3, 3), (3, PPI, 4), (3, PPI, 3, -0.5), (3, PPI, 3, 0.01, -1.0)],
    "boundary_sigmas": [(SLOPES, -1), (SLOPES, SLOPES.size), (1.0, 0)],
    "interval_bounds": [(1.0, 2.0, 4, 0.01, 1.0), (1.0, 2.0, -1, 0.01, 1.0), (1.0, 2.0, 1, -0.01, 1.0)],
    "build_table": [(X, U, 0)],
    "interval_interpolants": [(X[:1], U[:1], CFG)],
    "newton_eval": [(PIECE, X, 5.0), (PIECE, X, [0.5, -0.25])],
    "replay_chain": [(PIECE, TABLE, X[:2])],
}


# Each spoiler maps an accepted number to a bad one of the same place;
# text that reads as the number is not a number either.
SPOILERS = {"nan": lambda v: np.nan, "+inf": lambda v: np.inf, "-inf": lambda v: -np.inf,
            "complex": lambda v: v + 1j, "text": str}


def spoiled(value, spoil):
    """``value`` with one bad number: the scalar spoiled, or an array's
    middle entry, the array cast to the bad number's type."""
    if np.ndim(value) == 0:
        return spoil(value)
    k = value.size // 2
    bad = spoil(value.flat[k])
    a = value.astype(type(bad))
    a.flat[k] = bad
    return a


def cases():
    for name, args in VALID.items():
        numeric = [k for k, a in enumerate(args) if isinstance(a, (int, float, np.ndarray))]
        for k in numeric:
            for label, spoil in SPOILERS.items():
                bad_args = replaced(args, k, spoiled(args[k], spoil))
                yield pytest.param(name, bad_args, id=f"{name}-arg{k}-{label}")
        for j, bad_args in enumerate(OUT_OF_RANGE.get(name, [])):
            yield pytest.param(name, bad_args, id=f"{name}-range{j}")


def test_table_covers_every_exported_callable():
    callables = {name for name in ppinterp.__all__ if callable(getattr(ppinterp, name))}
    assert set(VALID) == callables
    assert set(OUT_OF_RANGE) == callables - {"classify_interval"}
    for name, args in VALID.items():
        getattr(ppinterp, name)(*args)  # the unspoiled call is accepted


@pytest.mark.parametrize("name, args", cases())
def test_every_export_rejects_invalid_input(name, args):
    with pytest.raises(ValueError):
        getattr(ppinterp, name)(*args)


# Pieces are built by the caller, not by an exported function, so the table
# above does not reach their numbers: a piece rejects a bad coefficient or
# scaling factor when it is built, and replay_chain a bad denom.
@pytest.mark.parametrize("coefficients", [(np.nan, 1.0), (1j, 1.0)], ids=["nan", "complex"])
def test_piece_coefficients_are_checked(coefficients):
    with pytest.raises(ValueError):
        ppinterp.newton_eval(IntervalInterpolant((0, 1), coefficients), [0.0, 1.0], 0.5)


# A misspelled normalization would be replayed as the standard one, and a
# float or bool index would pass the order checks by comparing equal to
# an integer.
@pytest.mark.parametrize("fields", [
    dict(normalization="Degenerate"),
    dict(normalization=""),
    dict(insertion_order=(0.0, 1.0)),
    dict(insertion_order=(False, True)),
], ids=["misspelled", "empty", "float-order", "bool-order"])
def test_piece_fields_are_checked(fields):
    valid = dict(insertion_order=(0, 1), coefficients=(0.0, 1.0))
    with pytest.raises(ValueError, match="normalization|integers"):
        IntervalInterpolant(**{**valid, **fields})


@pytest.mark.parametrize("field", ["m_l", "m_r"])
@pytest.mark.parametrize("label", SPOILERS)
def test_piece_scaling_factors_are_checked(field, label):
    with pytest.raises(ValueError):
        IntervalInterpolant((0, 1), (0.0, 1.0), **{field: SPOILERS[label](0.5)})


@pytest.mark.parametrize("denom", [None, *SPOILERS], ids=["default", *SPOILERS])
def test_replay_chain_checks_the_piece_denom(denom):
    fields = dict(vars(PIECE))
    if denom is None:
        del fields["denom"]  # the NaN default
    else:
        fields["denom"] = SPOILERS[denom](fields["denom"])
    with pytest.raises(ValueError, match="piece denom"):
        ppinterp.replay_chain(IntervalInterpolant(**fields), TABLE, X)


def read_nan():
    """``TABLE``'s entries with NaN at the divided difference over the
    piece's whole window, which its last step reads."""
    entries = TABLE.entries.copy()
    l, r = PIECE.window
    entries[l, r - l] = np.nan
    return entries


# The table is read under the same rule: complex entries are not cut to
# their real part, entries that are not a 2-D array raise a ValueError
# instead of an IndexError or AttributeError, and a NaN among the entries
# the piece reads raises instead of giving NaN readings.
@pytest.mark.parametrize("entries", [
    TABLE.entries + 0.5j, TABLE.entries[:, 0], TABLE.entries[:, 0].tolist(), read_nan(),
], ids=["complex", "1-d-array", "1-d-list", "nan-read"])
def test_replay_chain_checks_the_table(entries):
    with pytest.raises(ValueError, match="^table "):
        ppinterp.replay_chain(PIECE, DividedDifferenceTable(entries), X)
