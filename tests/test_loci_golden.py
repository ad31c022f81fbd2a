"""Frozen outputs of the degeneracy-locus calculators.

``tests/golden/loci.json`` maps a label for each call below to its JSON
result, or to ``{"error": MESSAGE}`` when the call raises ValueError.  The
grid spans all three kinds of locus, the everywhere bounds, both note flags
and parameters that the command line rejects, so a refactor of
:mod:`degenloci.loci` must keep every number and every message a user can
see.

The file changes only on purpose.  Rewrite it with
``PYTHONPATH=src python tests/test_loci_golden.py``.
"""

import json
from itertools import product
from pathlib import Path

import pytest

from degenloci.loci import (
    AmbientData,
    MorphismSetup,
    betti_degeneracy,
    betti_skew,
    max_lefschetz_general,
    max_lefschetz_skew,
    skew_to_orthogonal,
    thresholds_report,
    verify_growth_inequalities,
    verify_growth_sweep,
)

GOLDEN_FILE = Path(__file__).parent / "golden" / "loci.json"

AMBIENTS = {f"pn:{n}": AmbientData.projective_space(n) for n in (0, 3, 8, 13)}
AMBIENTS.update({f"torus:{g}": AmbientData.abelian_variety(g) for g in (1, 3)})


def _thresholds(kind: str, dim_x: int, flags=(True, True), **kwargs):
    setup = MorphismSetup(kind, **kwargs, lower_locus_empty=flags[0],
                          amplitude_assumed=flags[1])
    return thresholds_report(setup, dim_x)


def _on_ambient(fn):
    return lambda ambient, **kwargs: fn(AMBIENTS[ambient], **kwargs)


def _case(name: str, fn, **kwargs):
    label = name + "".join(f" {k}={v}" for k, v in kwargs.items())
    return label, fn, kwargs


# parameters that each calculator must reject, one per rule it checks
INVALID_SETUPS = (
    dict(kind="general", f=4, r=1), dict(kind="general", e=3, r=1),
    dict(kind="general", e=3, f=2, r=1), dict(kind="general", e=3, f=4, r=4),
    dict(kind="general", e=3, f=4, r=-1),
    dict(kind="general", e=3, f=4, r=2, max_rank=1),
    dict(kind="general", e=3, f=4, r=2, max_rank=4),
    dict(kind="skew", r=1), dict(kind="skew", e=6, f=6, r=1),
    dict(kind="skew", e=6, r=4), dict(kind="skew", e=6, r=-1),
    dict(kind="skew", e=7, r=1, max_rank=5), dict(kind="skew", e=7, r=2, max_rank=2),
    dict(kind="skew", e=7, r=1, max_rank=8),
    dict(kind="orthogonal", e=3, r=3, ambient_jump=1),
    dict(kind="orthogonal", f=3, r=3, ambient_jump=1), dict(kind="orthogonal", r=-2),
    dict(kind="orthogonal", r=3), dict(kind="orthogonal", r=3, ambient_jump=-1),
    dict(kind="orthogonal", r=3, ambient_jump=5), dict(kind="mystery", r=1),
)


def _cases():
    """(label, function, keyword arguments) of every frozen call."""
    for e, dim_x in product(range(5), (0, 9)):
        for f, r in product((e, e + 2), range(e + 1)):
            for k in (None, *range(r, e + 1)):
                yield _case("thresholds general", _thresholds, kind="general",
                            dim_x=dim_x, e=e, f=f, r=r, max_rank=k)
    for e, dim_x in product(range(8), (0, 12)):
        for r in range(e // 2 + 1):
            for k in (None, *range(2 * r, e + 1, 2)):
                yield _case("thresholds skew", _thresholds, kind="skew",
                            dim_x=dim_x, e=e, r=r, max_rank=k)
    for r, dim_x in product(range(8), (0, 12)):
        for k in (None, *range(r % 2, r + 1, 2)):
            yield _case("thresholds orthogonal", _thresholds, kind="orthogonal",
                        dim_x=dim_x, r=r, ambient_jump=k)
    for flags in product((True, False), repeat=2):
        for kwargs in (dict(kind="general", e=3, f=4, r=1, max_rank=2),
                       dict(kind="skew", e=7, r=1, max_rank=4),
                       dict(kind="orthogonal", r=5, ambient_jump=1)):
            yield _case("thresholds", _thresholds, dim_x=15, flags=flags, **kwargs)
    yield _case("thresholds", _thresholds, kind="general", dim_x=-1, e=2, f=2, r=1)
    for kwargs in INVALID_SETUPS:
        yield _case("thresholds", _thresholds, dim_x=5, **kwargs)
    for dim_x, e, r in product(range(0, 16, 3), range(6), range(4)):
        if r <= e:
            for f in range(e, 7):
                yield _case("max_lefschetz_general", max_lefschetz_general,
                            dim_x=dim_x, e=e, f=f, r=r)
        if 2 * r <= e:
            yield _case("max_lefschetz_skew", max_lefschetz_skew,
                        dim_x=dim_x, e=e, r=r)
    for e, r in product(range(1, 7), range(6)):
        for f in range(e, 8):
            if r < e:
                yield _case("verify_growth_inequalities", verify_growth_inequalities,
                            kind="general", e=e, r=r, f=f, t_max=30)
    for e, r in product(range(2, 10), range(4)):
        if 2 * r + 2 <= e:
            yield _case("verify_growth_inequalities", verify_growth_inequalities,
                        kind="skew", e=e, r=r, t_max=30)
    yield _case("verify_growth_sweep", verify_growth_sweep, max_rank=8, t_max=100)
    for spec, e in product(AMBIENTS, range(5)):
        for f, r in product((e, e + 2), range(min(e, 3) + 1)):
            yield _case("betti_degeneracy", _on_ambient(betti_degeneracy),
                        ambient=spec, e=e, f=f, r=r)
        for r in range(e // 2 + 1):
            yield _case("betti_skew", _on_ambient(betti_skew), ambient=spec, e=e, r=r)
    for e, f, r in ((3, 2, 1), (3, 4, 4), (3, 4, -1)):
        yield _case("betti_degeneracy", _on_ambient(betti_degeneracy),
                    ambient="pn:8", e=e, f=f, r=r)
    for e, r in ((3, 2), (3, -1)):
        yield _case("betti_skew", _on_ambient(betti_skew), ambient="pn:8", e=e, r=r)
    for e, r in product(range(-1, 10), range(-1, 5)):
        yield _case("skew_to_orthogonal", skew_to_orthogonal, e=e, r=r)


def _evaluate(fn, kwargs):
    try:
        result = fn(**kwargs)
    except ValueError as exc:
        return {"error": str(exc)}
    if hasattr(result, "to_json_obj"):
        result = result.to_json_obj()
    return json.loads(json.dumps(result))


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    labels = [label for label, _, _ in _cases()]
    assert len(labels) == len(set(labels))
    assert sorted(golden) == sorted(labels)


@pytest.mark.parametrize("name", ["thresholds", "max_lefschetz", "verify_growth",
                                  "betti", "skew_to_orthogonal"])
def test_loci_output_matches_golden(golden, name):
    mismatches = [label for label, fn, kwargs in _cases() if label.startswith(name)
                  and _canonical(_evaluate(fn, kwargs)) != _canonical(golden[label])]
    assert mismatches == []


def _write_golden() -> None:
    golden = {label: _evaluate(fn, kwargs) for label, fn, kwargs in _cases()}
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    # one case per line, so a diff names the cases that changed
    lines = [f"{json.dumps(label)}: {_canonical(value)}"
             for label, value in sorted(golden.items())]
    GOLDEN_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
