import re

import numpy as np
import pytest

from kgembed import optim
from kgembed.optim import ADAGRAD_EPS, NonFiniteGradientError, init_optimizer, optimizer_step


def scalar_oracle_step(kind, x, g, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference scalar update: float64 arithmetic, float32 storage."""
    x64 = np.float64(np.float32(x))
    g64 = np.float64(g)
    if kind == "sgd":
        return np.float32(x64 - lr * g64), state
    if kind == "adagrad":
        acc = np.float64(np.float32(state["accum"])) + g64 * g64
        state = {"accum": np.float32(acc)}
        return np.float32(x64 - lr * g64 / (np.sqrt(acc) + ADAGRAD_EPS)), state
    t = np.float64(np.float32(state["steps"])) + 1.0
    m = beta1 * np.float64(np.float32(state["m"])) + (1 - beta1) * g64
    v = beta2 * np.float64(np.float32(state["v"])) + (1 - beta2) * g64 * g64
    state = {"m": np.float32(m), "v": np.float32(v), "steps": np.float32(t)}
    mhat = np.float64(np.float32(m)) / (1 - beta1**t)
    vhat = np.float64(np.float32(v)) / (1 - beta2**t)
    return np.float32(x64 - lr * mhat / (np.sqrt(vhat) + eps)), state


def test_sgd_example():
    tables = {"w": np.array([[1.0]], dtype=np.float32)}
    state = init_optimizer("sgd", tables)
    optimizer_step(state, tables, {"w": (np.array([0]), np.array([[0.5]]))}, lr=0.1)
    assert tables["w"][0, 0] == pytest.approx(0.95)


def test_untouched_rows_and_state_unchanged():
    tables = {"w": np.arange(12, dtype=np.float32).reshape(4, 3)}
    state = init_optimizer("adam", tables)
    before = tables["w"].copy()
    optimizer_step(state, tables, {"w": (np.array([1]), np.ones((1, 3)))}, lr=0.01)
    assert np.array_equal(tables["w"][[0, 2, 3]], before[[0, 2, 3]])
    assert (state.slots["w"]["m"][[0, 2, 3]] == 0).all()
    assert (state.slots["w"]["steps"][[0, 2, 3]] == 0).all()
    assert state.slots["w"]["steps"][1] == 1


def test_empty_grads_noop():
    tables = {"w": np.ones((3, 2), dtype=np.float32)}
    state = init_optimizer("adam", tables)
    before = tables["w"].copy()
    optimizer_step(state, tables, {}, lr=0.5)
    assert np.array_equal(tables["w"], before)


@pytest.mark.parametrize("kind", ["sgd", "adagrad", "adam"])
def test_hundred_random_steps_match_scalar_oracle(kind):
    rng = np.random.default_rng(0)
    n_rows, dim = 5, 3
    tables = {"w": rng.normal(size=(n_rows, dim)).astype(np.float32)}
    state = init_optimizer(kind, tables)

    mirror = tables["w"].copy()
    oracle_state = [
        [
            {"accum": np.float32(0)} if kind == "adagrad" else {"m": np.float32(0), "v": np.float32(0), "steps": np.float32(0)}
            for _ in range(dim)
        ]
        for _ in range(n_rows)
    ]
    lr = 0.05
    for step in range(100):
        rows = np.unique(rng.integers(0, n_rows, size=rng.integers(1, n_rows + 1)))
        g = rng.normal(size=(len(rows), dim))
        optimizer_step(state, tables, {"w": (rows, g)}, lr)
        for i, row in enumerate(rows):
            for j in range(dim):
                new_x, new_s = scalar_oracle_step(
                    kind, mirror[row, j], g[i, j], oracle_state[row][j], lr
                )
                mirror[row, j] = new_x
                oracle_state[row][j] = new_s
    assert np.abs(tables["w"] - mirror).max() < 1e-7


def test_nonfinite_gradient_names_row():
    tables = {"emb": np.ones((4, 2), dtype=np.float32)}
    state = init_optimizer("sgd", tables)
    bad = np.array([[0.0, 1.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="emb.*row 3"):
        optimizer_step(state, tables, {"emb": (np.array([1, 3]), bad)}, lr=0.1)


@pytest.mark.parametrize("kind", ["adagrad", "adam"])
@pytest.mark.parametrize(
    "bad", [("b", np.nan, NonFiniteGradientError), ("nope", 1.0, KeyError)], ids=["nan", "unknown"]
)
def test_rejected_step_leaves_every_table_and_slot_unchanged(kind, bad):
    name, value, error = bad
    tables = {"a": np.ones((3, 2), dtype=np.float32), "b": np.ones((3, 2), dtype=np.float32)}
    state = init_optimizer(kind, tables)
    optimizer_step(state, tables, {"a": (np.array([0]), np.ones((1, 2)))}, lr=0.1)

    def snapshot():
        slots = {f"{t}.{k}": v for t, s in state.slots.items() for k, v in s.items()}
        return {k: v.tobytes() for k, v in {**tables, **slots}.items()}

    before = snapshot()
    grads = {
        "a": (np.array([0, 2]), np.ones((2, 2))),
        name: (np.array([1]), np.full((1, 2), value)),
    }
    with pytest.raises(error):
        optimizer_step(state, tables, grads, lr=0.1)
    assert snapshot() == before


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize(
    "ids, message",
    [
        ([1, 1], "got 1"),  # a repeated row would be updated once, by its last gradient
        ([2, 1], "got 1"),
        ([-1], "got -1"),  # would update the last row
        ([0, 5], "got 5"),
    ],
    ids=["repeated", "decreasing", "negative", "past-the-end"],
)
def test_ids_that_do_not_increase_strictly_within_the_table_are_rejected(kind, ids, message):
    tables = {"a": np.ones((3, 2), dtype=np.float32), "w": np.ones((3, 2), dtype=np.float32)}
    state = init_optimizer(kind, tables)
    before = state.copy()
    grads = {"a": (np.array([0]), np.ones((1, 2))),
             "w": (np.array(ids), np.arange(2.0 * len(ids)).reshape(-1, 2))}
    bad = rf"ids of table 'w' must increase strictly within \[0, 3\), {message}$"
    with pytest.raises(ValueError, match=bad):
        optimizer_step(state, tables, grads, lr=1.0)
    assert (tables["a"] == 1).all() and (tables["w"] == 1).all()
    for name, slots in state.slots.items():
        for slot, arr in slots.items():
            assert arr.tobytes() == before.slots[name][slot].tobytes(), (name, slot)


def test_ids_that_are_not_integers_are_rejected_before_any_table_is_written():
    tables = {"a": np.ones((3, 2), dtype=np.float32), "b": np.ones((3, 2), dtype=np.float32)}
    state = init_optimizer("sgd", tables)
    grads = {"a": (np.array([0]), np.ones((1, 2))), "b": (np.array([1.0]), np.ones((1, 2)))}
    with pytest.raises(ValueError, match="ids of table 'b' must be integers, got float64"):
        optimizer_step(state, tables, grads, lr=1.0)
    assert (tables["a"] == 1).all()


@pytest.mark.parametrize(
    "ids, g",
    [([0, 1], np.ones((3, 2))), ([0, 1], np.ones((2, 3))), ([[0, 1]], np.ones((1, 2, 2)))],
    ids=["rows", "columns", "2-d-ids"],
)
def test_gradient_rows_of_another_shape_are_rejected_naming_both_shapes(ids, g):
    tables = {"w": np.ones((3, 2), dtype=np.float32)}
    state = init_optimizer("adagrad", tables)
    shapes = f"gradient of shape {g.shape} with ids of shape {np.shape(ids)} does not fit"
    with pytest.raises(ValueError, match=re.escape(shapes + " table 'w' of shape (3, 2)")):
        optimizer_step(state, tables, {"w": (np.array(ids), g)}, lr=0.1)
    assert (tables["w"] == 1).all() and not state.slots["w"]["accum"].any()


def test_adam_lazy_bias_correction_per_row():
    # a row first touched at step 10 must be bias-corrected as if at its own step 1
    tables = {"w": np.zeros((2, 1), dtype=np.float32)}
    state = init_optimizer("adam", tables)
    for _ in range(9):
        optimizer_step(state, tables, {"w": (np.array([0]), np.array([[1.0]]))}, lr=0.1)
    optimizer_step(state, tables, {"w": (np.array([1]), np.array([[1.0]]))}, lr=0.1)
    # fresh row: mhat = m/(1-b1) = g, vhat = g^2, update = -lr * g/(|g|+eps)
    assert tables["w"][1, 0] == pytest.approx(-0.1, rel=1e-5)
    assert state.slots["w"]["steps"][1] == 1


def test_unknown_table_errors():
    tables = {"w": np.ones((2, 2), dtype=np.float32)}
    state = init_optimizer("sgd", tables)
    with pytest.raises(KeyError):
        optimizer_step(state, tables, {"nope": (np.array([0]), np.ones((1, 2)))}, lr=0.1)


def test_init_unknown_kind():
    with pytest.raises(ValueError):
        init_optimizer("rmsprop", {"w": np.ones((1, 1), dtype=np.float32)})


def two_copy_step(state, tables, grads, lr):
    """The step as fancy-indexed gathers and float64 expressions, every result a new array."""
    for name, (ids, g) in grads.items():
        table = tables[name]
        g64 = np.asarray(g, dtype=np.float64)
        x = table[ids].astype(np.float64)
        if state.kind == "sgd":
            x -= lr * g64
        elif state.kind == "adagrad":
            acc = state.slots[name]["accum"]
            a = acc[ids].astype(np.float64) + g64 * g64
            acc[ids] = a.astype(np.float32)
            x -= lr * g64 / (np.sqrt(a) + ADAGRAD_EPS)
        else:
            slot = state.slots[name]
            steps = slot["steps"][ids].astype(np.float64) + 1.0
            slot["steps"][ids] = steps.astype(np.float32)
            m = state.beta1 * slot["m"][ids].astype(np.float64) + (1 - state.beta1) * g64
            v = state.beta2 * slot["v"][ids].astype(np.float64) + (1 - state.beta2) * g64 * g64
            slot["m"][ids] = m.astype(np.float32)
            slot["v"][ids] = v.astype(np.float32)
            shape = (-1,) + (1,) * (g64.ndim - 1)
            mhat = m / (1.0 - state.beta1**steps).reshape(shape)
            vhat = v / (1.0 - state.beta2**steps).reshape(shape)
            x -= lr * mhat / (np.sqrt(vhat) + state.eps)
        table[ids] = x.astype(table.dtype)


@pytest.mark.parametrize("block_elems", [20, 1 << 15], ids=["blocks-of-2-rows", "one-block"])
@pytest.mark.parametrize("kind", ["sgd", "adagrad", "adam"])
def test_in_place_step_leaves_the_bytes_of_the_two_copy_step(monkeypatch, kind, block_elems):
    """Sparse steps on a matrix table and a [n, d, d] one (TransR's projections)."""
    monkeypatch.setattr(optim, "_BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(5)
    tables = {
        "ent": rng.normal(0, 1, (30, 8)).astype(np.float32),
        "proj": rng.normal(0, 1, (5, 3, 3)).astype(np.float32),
    }
    state = init_optimizer(kind, tables, beta1=0.8, beta2=0.99, eps=1e-6)
    ref_tables = {k: v.copy() for k, v in tables.items()}
    ref_state = state.copy()
    for _ in range(25):
        grads = {}
        for name, table in tables.items():
            ids = np.unique(rng.integers(0, len(table), len(table) // 2))
            grads[name] = (ids, rng.normal(0, 10.0 ** rng.integers(-6, 3), (len(ids),) + table.shape[1:]))
        optimizer_step(state, tables, grads, lr=0.05)
        two_copy_step(ref_state, ref_tables, grads, lr=0.05)
    for name in tables:
        assert tables[name].tobytes() == ref_tables[name].tobytes(), name
        for slot, arr in state.slots.get(name, {}).items():
            assert arr.tobytes() == ref_state.slots[name][slot].tobytes(), (name, slot)
