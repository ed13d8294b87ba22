"""Oracles over match results: a result's shape checked against a term, and
a result printed in the paper's notation; and oracles over raw JSON for the
benchmark templates on edge-shaped documents.  No code path of the program
needs any of them; tests use them as independent checks."""

from jpq.matching import MArray, MatchResult, MBind, MFailed, MOption, MTuple, _viable, succeeded
from jpq.model import key, serialize
from jpq.terms import ArrayT, DistinctT, OptionT, Term, TupleT, Var


def instantiates(r: MatchResult, t: Term) -> bool:
    """Does the result's shape instantiate the term?  Failed never does."""
    if isinstance(r, MFailed):
        return False
    if isinstance(t, Var):
        return isinstance(r, MBind) and r.name == t.name
    if isinstance(t, TupleT):
        return (
            isinstance(r, MTuple)
            and len(r.items) == len(t.items)
            and all(instantiates(s, st) for s, st in zip(r.items, t.items))
        )
    if isinstance(t, OptionT):
        return (
            isinstance(r, MOption)
            and len(r.branches) == len(t.branches)
            and all(
                instantiates(b, bt)
                for b, bt in zip(r.branches, t.branches)
                if succeeded(b)
            )
            and succeeded(_viable(r))
        )
    if isinstance(t, ArrayT):
        if t.flat:
            # a flattened array's elements are spliced into the enclosing
            # array, so in place of the array one finds a single element,
            # which may itself be an array
            return instantiates(r, t.elem)
        return (
            isinstance(r, MArray)
            and r.folded == t.folded
            and all(instantiates(item, t.elem) for item in r.items)
        )
    if isinstance(t, DistinctT):
        return instantiates(r, t.inner)
    raise TypeError(f"cannot check against term {t!r}")

def render_result(r: MatchResult, max_value: int = 40) -> str:
    """Paper-style notation: ($x↦v, [..;..], a|b)."""
    if isinstance(r, MFailed):
        return "FAIL"
    if isinstance(r, MBind):
        text = serialize(r.value)
        if len(text) > max_value:
            text = text[: max_value - 3] + "..."
        return f"${r.name} -> {text}"
    if isinstance(r, MTuple):
        return "(" + ", ".join(render_result(s, max_value) for s in r.items) + ")"
    if isinstance(r, MArray):
        return "[" + "; ".join(render_result(s, max_value) for s in r.items) + "]"
    if isinstance(r, MOption):
        alts = [render_result(b, max_value) for b in r.branches if succeeded(b)]
        return alts[0] if len(alts) == 1 else "(" + " | ".join(alts) + ")"
    raise TypeError(f"not a result: {r!r}")


# -- template oracles over raw JSON ---------------------------------------------


def ex3_school_pairs(u: dict) -> list[dict]:
    """EX3's result list on the university `u`: one pair per two schools of
    different names whose faculty share an ID, both in JPQ equality
    (`jpq.model.key`: NaN equals nothing, `true` is not `1`).  A school that
    is no object with a `name` and a `faculty` array, or a faculty item that
    is no object with an `ID`, is not matched by the pattern, so it is skipped."""
    schools = [s for s in u["schools"]
               if isinstance(s, dict) and "name" in s and isinstance(s.get("faculty"), list)]
    ids = [{key(f["ID"]) for f in s["faculty"] if isinstance(f, dict) and "ID" in f}
           for s in schools]
    return [{"school1": a["name"], "school2": b["name"]}
            for a, ids_a in zip(schools, ids) for b, ids_b in zip(schools, ids)
            if key(a["name"]) != key(b["name"]) and not ids_a.isdisjoint(ids_b)]
