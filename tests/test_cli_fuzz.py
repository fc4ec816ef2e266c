"""Seeded mutations of valid instance files through cli.main keep the exit-code contract.

Each case mutates a valid instance JSON or the tensor CSV of a custom_table
instance: a dropped key, a value of the wrong type, a non-finite or
overflowing number, a truncated file or inserted bad bytes. The command
must return without raising: 1 or 3 with exactly one `error:` line on
stderr, or 0 or 2 with a JSON report on stdout. A mutation can leave a
valid instance (dropping an optional key, say), so 0 is allowed with a
report; truncated files and bad bytes must give 1.
"""

import copy
import json

import numpy as np

from motbounds.cli import main

CASES = 300

VALUES = [None, True, "abc", "1.5", [], {}, [1.0, "x"], [[0.5], [0.5, 1.0]], -1, 0, 2.5,
          1e-300, float("nan"), float("inf"), -float("inf"), 1e308, 10**30, 10**400]

TABLE_ROWS = ["-1.0,-2.0,3.0", "-1.0,2.0,1.0", "1.0,-2.0,1.0", "1.0,2.0,3.0"]


def base_instances(table_path):
    points = {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]}
    wide = {"atoms": [-2.0, 2.0], "weights": [0.5, 0.5]}
    return [
        {"marginals": [points, wide], "cost": {"form": "squared_increment"}},
        {"marginals": [{"lognormal": {"location": -s * s / 2, "scale": s, "m": 4}}
                       for s in (0.1, 0.2)],
         "cost": {"form": "basket", "strike": 1.0}},
        {"marginals": [points, wide], "cost": {"form": "custom_table", "path": table_path}},
    ]


def nodes(value, path=()):
    """Every (path, value) in a JSON tree, the root included."""
    yield path, value
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from nodes(child, path + (key,))


def replace_at(tree, path, value):
    if not path:
        return value
    out = copy.deepcopy(tree)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def mutate_json(rng, payload):
    """One mutation of an instance: (kind, file bytes)."""
    kind = ("drop_key", "wrong_type", "non_finite", "truncate", "bad_bytes")[rng.integers(5)]
    if kind == "drop_key":
        keyed = [p for p, _ in nodes(payload) if p and isinstance(p[-1], str)]
        path = keyed[rng.integers(len(keyed))]
        payload = copy.deepcopy(payload)
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    elif kind == "wrong_type":
        paths = [p for p, _ in nodes(payload)]
        payload = replace_at(payload, paths[rng.integers(len(paths))],
                             VALUES[rng.integers(len(VALUES))])
    elif kind == "non_finite":
        numbers = [p for p, v in nodes(payload) if isinstance(v, (int, float))]
        payload = replace_at(payload, numbers[rng.integers(len(numbers))],
                             VALUES[rng.integers(12, len(VALUES))])
    text = json.dumps(payload).encode()
    if kind == "truncate":
        text = text[:rng.integers(len(text))]
    elif kind == "bad_bytes":
        at = rng.integers(len(text) + 1)
        text = text[:at] + bytes(rng.choice([0x00, 0xff, 0xfe, 0x80], 2).tolist()) + text[at:]
    return kind, text


def mutate_table(rng):
    """One mutation of the tensor CSV: (kind, file bytes)."""
    rows = list(TABLE_ROWS)
    kind = ("drop_row", "wrong_type", "non_finite", "truncate", "bad_bytes")[rng.integers(5)]
    i = int(rng.integers(len(rows)))
    if kind == "drop_row":
        del rows[i]
    elif kind in ("wrong_type", "non_finite"):
        cells = rows[i].split(",")
        pool = (["abc", "", "1,2", "[1]"] if kind == "wrong_type"
                else ["nan", "inf", "-inf", "1e400"])
        cells[rng.integers(len(cells))] = pool[rng.integers(len(pool))]
        rows[i] = ",".join(cells)
    text = ("\n".join(rows) + "\n").encode()
    if kind == "truncate":
        text = text[:rng.integers(len(text))]
    elif kind == "bad_bytes":
        at = rng.integers(len(text) + 1)
        text = text[:at] + b"\xff\xfe" + text[at:]
    return kind, text


COMMANDS = [["check"], ["certify"], ["solve", "--method", "dual"]]


def test_mutated_inputs_keep_the_exit_contract(tmp_path, capsys):
    rng = np.random.default_rng(31337)
    table = tmp_path / "table.csv"
    instance = tmp_path / "instance.json"
    bases = base_instances(str(table))
    seen = {}
    for case in range(CASES):
        table.write_text("\n".join(TABLE_ROWS) + "\n")
        base = bases[case % len(bases)]
        if base["cost"]["form"] == "custom_table" and rng.random() < 0.5:
            kind, text = mutate_table(rng)
            table.write_bytes(text)
            instance.write_text(json.dumps(base))
            kind = "table_" + kind
        else:
            kind, text = mutate_json(rng, base)
            instance.write_bytes(text)
        command = COMMANDS[case % len(COMMANDS)]
        # only solve --method dual|both reads --max-iters; every other run refuses it
        cap = ["--max-iters", "3"] if command[0] == "solve" else []
        argv = ["--json"] + cap + [command[0], str(instance)] + command[1:]
        code = main(argv)
        out, err = capsys.readouterr()
        context = f"case {case} ({kind}): {text[:200]!r} -> {code}\n{err}"
        assert code in (0, 1, 2, 3), context
        assert "Traceback" not in out + err, context
        if code in (1, 3):
            assert err.startswith("error: ") and err.count("\n") == 1, context
        else:
            assert err == "", context
            json.loads(out)
        if kind in ("truncate", "bad_bytes"):
            assert code == 1, context
        seen[code] = seen.get(code, 0) + 1
    assert seen.get(1, 0) > CASES // 2 and seen.get(2, 0) > 0, seen
