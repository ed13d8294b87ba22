"""Query templates and their independent oracles.

Each template is a query over named documents plus a plain-Python oracle that
computes the expected output from the raw JSON, in the style of
`tests/test_acceptance.py`.  Outputs are compared exactly where the language
fixes the order (document order, `groupby asc|desc`) and as multisets where
it does not (join outputs).  A template without an oracle cannot be defined
here, so it cannot enter a workload.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable

EXACT = "exact"
MULTISET = "multiset"


@dataclass(frozen=True)
class Template:
    name: str
    text: str
    oracle: Callable[..., object]
    compare: str
    docs: tuple[str, ...] = ("univ",)

    def query(self, names: dict[str, str]) -> str:
        """The query text with each placeholder document renamed."""
        text = self.text
        for placeholder, name in names.items():
            text = text.replace(f'doc("{placeholder}")', f'doc("{name}")')
        return text


def _canon(v) -> str:
    return json.dumps(v, ensure_ascii=False, separators=(",", ":"))


def check(template: Template, output: str, expected) -> bool:
    """Whether the engine's serialized output agrees with the oracle value."""
    got = json.loads(output)
    if template.compare == EXACT:
        return _canon(got) == _canon(expected)
    # one top-level member holding the unordered join output
    if not isinstance(got, dict) or list(got) != list(expected):
        return False
    (key,) = expected
    return Counter(map(_canon, got[key])) == Counter(map(_canon, expected[key]))


# -- oracles over raw JSON ----------------------------------------------------


def _roles(u: dict):
    """(role key, member) for every president role, in document order; an
    array-valued role contributes each member."""
    for key, value in u.items():
        if "president" in key:
            for member in value if isinstance(value, list) else [value]:
                yield key, member, isinstance(value, list)


def _faculty_ids(school: dict) -> set:
    return {m["ID"] for m in school["faculty"]}


def merge_roles(u):
    return {"presidents": [{"role": r, "info": m} for r, m, _ in _roles(u)]}


def group_ids(u):
    ids: dict[str, list] = {}
    for s in u["schools"]:
        for m in s["faculty"]:
            ids.setdefault(m["ID"], []).append({"name": s["name"]})
    return {"faculty": [{"ID": i, "schools": ids[i]} for i in sorted(ids)]}


def group_emails_desc(u):
    emails: dict[str, list] = {}
    for s in u["schools"]:
        for m in s["faculty"]:
            if "email" in m:
                emails.setdefault(m["email"], []).append({"name": s["name"]})
    return {"emails": [{"email": e, "schools": emails[e]} for e in sorted(emails, reverse=True)]}


def school_pairs(u):
    schools = u["schools"]
    return {"result": [
        {"school1": a["name"], "school2": b["name"]}
        for a in schools
        for b in schools
        if a["name"] != b["name"] and _faculty_ids(a) & _faculty_ids(b)
    ]}


def fully_emailed(u):
    return {"result": [
        s for s in u["schools"]
        if len(s["faculty"]) > 100 or all(m.get("email") is not None for m in s["faculty"])
    ]}


def _officer_school_pairs(u, ids_of):
    out = []
    for _, person, _ in _roles(u):
        for s in u["schools"]:
            if person["ID"] in ids_of(s):
                out.append({"president": person, "school": s["name"]})
    return out


def officers_on_faculty(u):
    return {"results": _officer_school_pairs(u, _faculty_ids)}


def officers_as_deans(u):
    return {"results": _officer_school_pairs(u, lambda s: {s["dean"]["ID"]})}


def officers_with_all_schools(u):
    return {"results": [
        {"president": person, "schools": [s["name"] for s in u["schools"]]}
        for _, person, _ in _roles(u)
    ]}


def vice_presidents_on_faculty(u):
    return {"results": [
        {"president": person, "school": s["name"]}
        for _, person, in_array in _roles(u)
        if in_array
        for s in u["schools"]
        if person["ID"] in _faculty_ids(s)
    ]}


def edu_schools(u):
    return {"result": [
        {"school": s["name"]}
        for s in u["schools"]
        if sum(1 for m in s["faculty"] if m.get("email", "").endswith("edu")) >= 3
    ]}


def roster(u):
    return {"roster": [
        {"school": s["name"], "ID": m["ID"], "name": m["first name"]}
        for s in u["schools"]
        for m in s["faculty"]
        if "first name" in m
    ]}


def _preorder(v):
    yield v
    if isinstance(v, dict):
        for sub in v.values():
            yield from _preorder(sub)
    elif isinstance(v, list):
        for sub in v:
            yield from _preorder(sub)


def contacts(u):
    return {"contacts": [
        {"id": v["ID"], "email": v["email"]}
        for v in _preorder(u)
        if isinstance(v, dict) and "ID" in v and "email" in v
    ]}


def staff(people, jobs):
    return {"staff": [
        {"name": p["name"], "title": j["title"]}
        for p in people["ps"]
        for j in jobs["js"]
        if p["id"] == j["pid"]
    ]}


# -- the templates ------------------------------------------------------------

_PRESIDENTS = '/"?president?":(<$p1,{"ID":$id1}>|[<$p2,{"ID":$id2}>])'

EX1 = Template(
    "EX1-merge",
    'from doc("univ") /$r"?president?":(<$po,{"ID":*}>|[$pa]) '
    'construct {"presidents":[{"role":$r,"info":$po}|^[{"role":$r,"info":$pa}]]}',
    merge_roles, EXACT,
)
EX2 = Template(
    "EX2-groupby-asc",
    'from doc("univ") {"schools":[{"name":$n,"faculty":[{"ID":$id}]}]} '
    'construct {"faculty":[{"ID":^[$id]%,"schools":[{"name":$n}]}] groupby ^[$id]% asc}',
    group_ids, EXACT,
)
EX3 = Template(
    "EX3-self-join",
    'from doc("univ") {"schools":<[{"name":$n1,"faculty":[{"ID":$id1}]}],'
    '[{"name":$n2,"faculty":[{"ID":$id2}]}]>} '
    'construct {"result":[(^[{"school1":$n1,"school2":$n2}])]} '
    "where not ($n1 = $n2) and $id1 = $id2",
    school_pairs, MULTISET,
)
EX4 = Template(
    "EX4-count-foreach",
    'from doc("univ") {"schools":[<$s,{"faculty":[$f]}>]} '
    'construct "result":[$s] '
    'where count[$f] > 100 or (foreach $f; notnull($f."email"))',
    fully_emailed, EXACT,
)
EX5 = Template(
    "EX5-par-join",
    f'from doc("univ") <{_PRESIDENTS}, '
    '{"schools":[{"name":$n,"faculty":[{"ID":$id3}]}]}> '
    'construct {"results":[^[{"president":$p1,"school":$n}]|'
    '^[^[{"president":$p2,"school":$n}]]]} '
    "where $id1 = $id3 par $id2 = $id3",
    officers_on_faculty, MULTISET,
)
EX5_DEAN = Template(
    "EX5-dean",
    f'from doc("univ") <{_PRESIDENTS}, '
    '{"schools":[{"name":$n,"dean":{"ID":$id3}}]}> '
    'construct {"results":[^[{"president":$p1,"school":$n}]|'
    '^[^[{"president":$p2,"school":$n}]]]} '
    "where $id1 = $id3 par $id2 = $id3",
    officers_as_deans, MULTISET,
)
EX5_NESTED = Template(
    "EX5-nested",
    f'from doc("univ") <{_PRESIDENTS}, '
    '{"schools":[{"name":$n,"faculty":[{"ID":$id3}]}]}> '
    'construct {"results":[{"president":$p1,"schools":[$n]}|'
    '^[{"president":$p2,"schools":[$n]}]]}',
    officers_with_all_schools, EXACT,
)
ARRAY_BRANCH = Template(
    "array-branch",
    'from doc("univ") </"?president?":[<$p2,{"ID":$id2}>], '
    '{"schools":[{"name":$n,"faculty":[{"ID":$id3}]}]}> '
    'construct {"results":[^[^[{"president":$p2,"school":$n}]]]} '
    "where $id2 = $id3",
    vice_presidents_on_faculty, MULTISET,
)
EX6 = Template(
    "EX6-with",
    'from doc("univ") {"schools":[{"name":$n,"faculty":[{"email":$m}]}]} '
    'construct {"result":[{"school":$n}]} '
    'where endWith($m, "edu") with count([{$m}]) >= 3',
    edu_schools, EXACT,
)
PEOPLE_JOBS = Template(
    "people-jobs",
    'from doc("people") {"ps":[{"id":$i,"name":$n}]}, '
    'doc("jobs") {"js":[{"pid":$p,"title":$t}]} '
    'construct {"staff":[(^[{"name":$n,"title":$t}])]} where $i = $p',
    staff, MULTISET, ("people", "jobs"),
)
EMAILS_DESC = Template(
    "emails-groupby-desc",
    'from doc("univ") {"schools":[{"name":$n,"faculty":[{"email":$m}]}]} '
    'construct {"emails":[{"email":^[$m]%,"schools":[{"name":$n}]}] groupby ^[$m]% desc}',
    group_emails_desc, EXACT,
)
ROSTER = Template(
    "roster-flatten",
    'from doc("univ") {"schools":[{"name":$n,"faculty":[{"ID":$id,"first name":$f}]}]} '
    'construct {"roster":[^[{"school":$n,"ID":$id,"name":$f}]]}',
    roster, EXACT,
)
DESCENDANTS = Template(
    "descendants",
    'from doc("univ") //{"ID":$id,"email":$m} '
    'construct {"contacts":[{"id":$id,"email":$m}]}',
    contacts, EXACT,
)

ALL = (EX1, EX2, EX3, EX4, EX5, EX5_DEAN, EX5_NESTED, ARRAY_BRANCH, EX6,
       PEOPLE_JOBS, EMAILS_DESC, ROSTER, DESCENDANTS)
