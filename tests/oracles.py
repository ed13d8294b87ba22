"""Oracles over match results: a result's shape checked against a term, and
a result printed in the paper's notation.  No code path of the program needs
either; tests use them as independent checks."""

from jpq.matching import MArray, MatchResult, MBind, MFailed, MOption, MTuple, _viable, succeeded
from jpq.model import serialize
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
