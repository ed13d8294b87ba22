"""Seeded generator of benchmark documents.

Two families, both plain JSON-ready Python values:

- university directories in the shape of `fixtures/univ.json`, scaled to
  `schools` x `faculty`; faculty IDs come from a pool whose size sets how
  often an ID recurs across schools (join selectivity); 70% of faculty have
  a `.edu` email, 20% a `.com` one and 10% none; president roles appear both
  as objects and as an array;
- people/jobs pairs for the two-document join, where 90% of job `pid`s name
  a person and the rest name nobody.

Shares and ID multiplicities are exact rather than drawn per item, so the
work a query does depends on the document's size, not on its seed.

The same seed gives byte-identical documents.  Run standalone to write a
document set to a directory:

    python3 bench/gen.py --seed 7 --out /tmp/docs --univ 20x20 --people 300
"""

from __future__ import annotations

import argparse
import json
import os
import random

FIRST = ["Li", "Gu", "Sun", "Zhao", "Qian", "Wang", "Zhou", "Wu", "Zheng", "Feng",
         "Chen", "Chu", "Wei", "Jiang", "Shen", "Han", "Yang", "Zhu", "Qin", "You"]
LAST = ["Xu", "He", "Lu", "Shi", "Zhang", "Kong", "Cao", "Yan", "Hua", "Jin"]
SUBJECTS = ["Computer", "Math", "Physics", "Chemistry", "Biology", "History", "Law",
            "Music", "Art", "Medicine", "Economics", "Philosophy"]
TITLES = ["dean", "lecturer", "professor", "registrar", "librarian", "counsel"]


def _id(n: int) -> str:
    return f"{n:04d}"


def _kinds(rng: random.Random, n: int) -> list[str]:
    """Email kinds for n people: exactly 70% `.edu`, 20% `.com` and the rest
    missing (rounded), in seeded order, so every document of one size costs
    the same to filter."""
    edu, com = round(n * 0.7), round(n * 0.2)
    kinds = ["edu"] * edu + ["com"] * com + [""] * (n - edu - com)
    rng.shuffle(kinds)
    return kinds


def _person(rng: random.Random, pid: int, domain: str, kind: str = "edu") -> dict:
    first = rng.choice(FIRST)
    person = {"ID": _id(pid), "last name": rng.choice(LAST), "first name": first}
    local = f"{first.lower()}{pid}"
    if kind == "edu":
        person["email"] = f"{local}@{domain}.edu"
    elif kind == "com":
        person["email"] = f"{local}@mail{rng.randrange(10)}.com"
    return person


def _deal_ids(rng: random.Random, schools: int, faculty: int, pool: int) -> list[list[int]]:
    """Faculty IDs per school: the pool's IDs in turn until every seat is
    taken, so each ID occurs equally often (within one), shuffled across
    schools with no ID twice in one school."""
    seats = [i % pool + 1 for i in range(schools * faculty)]
    rng.shuffle(seats)
    rows = [seats[i * faculty:(i + 1) * faculty] for i in range(schools)]
    for row in rows:
        for j in range(faculty):
            while row.count(row[j]) > 1:
                other = rng.choice([r for r in rows if r is not row])
                k = rng.randrange(faculty)
                if other[k] not in row and row[j] not in other:
                    row[j], other[k] = other[k], row[j]
    return rows


def univ(rng: random.Random, schools: int, faculty: int, id_pool: int | None = None) -> dict:
    """A university directory with `schools` schools of `faculty` members.

    Faculty IDs come from IDs 1..id_pool (default: half the total faculty
    count, so each ID occurs in exactly two schools).  Officers and deans draw
    their IDs from the same pool, so officer/faculty joins find matches."""
    pool = id_pool or max(faculty, schools * faculty // 2)
    if not faculty <= pool <= schools * faculty:
        raise ValueError("id_pool must lie between the faculty count and the seat count")
    doc: dict = {
        "president": _person(rng, rng.randint(1, pool), "123"),
        "executive-vice-president": _person(rng, rng.randint(1, pool), "123"),
        "vice-presidents": [
            _person(rng, rng.randint(1, pool), "123") for _ in range(rng.randint(1, 3))
        ],
    }
    kinds = iter(_kinds(rng, schools * faculty))
    rows = []
    for i, ids in enumerate(_deal_ids(rng, schools, faculty, pool)):
        domain = f"s{i + 1}.123"
        rows.append({
            "name": f"{SUBJECTS[i % len(SUBJECTS)]} School {i + 1:03d}",
            "dean": {"ID": _id(rng.randint(1, pool)), "last name": rng.choice(LAST)},
            "faculty": [_person(rng, n, domain, next(kinds)) for n in ids],
        })
    doc["schools"] = rows
    return doc


def people_jobs(rng: random.Random, people: int, jobs: int | None = None) -> tuple[dict, dict]:
    """`people` persons and `jobs` jobs (default as many).  Exactly 90% of
    the jobs (rounded) name a person, drawn at random; the rest name nobody."""
    jobs = people if jobs is None else jobs
    ps = [{"id": f"p{i:05d}", "name": f"{rng.choice(FIRST)} {rng.choice(LAST)}"}
          for i in range(people)]
    named = [True] * round(jobs * 0.9) + [False] * (jobs - round(jobs * 0.9))
    rng.shuffle(named)
    js = [{"pid": f"{'p' if hit else 'x'}{rng.randrange(people):05d}",
           "title": rng.choice(TITLES)} for hit in named]
    return {"ps": ps}, {"js": js}


def dump(doc) -> str:
    """The exact text the engine receives."""
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def count_elements(v) -> int:
    """JSON values in a document, the root and every nested value."""
    if isinstance(v, dict):
        return 1 + sum(count_elements(x) for x in v.values())
    if isinstance(v, list):
        return 1 + sum(count_elements(x) for x in v)
    return 1


def _size(text: str) -> tuple[int, int]:
    s, _, f = text.partition("x")
    return int(s), int(f)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory to write the documents to")
    p.add_argument("--univ", action="append", default=[], metavar="SxF",
                   help="a university document of S schools x F faculty (repeatable)")
    p.add_argument("--people", type=int, default=0, help="people/jobs pair size")
    args = p.parse_args(argv)
    rng = random.Random(args.seed)
    docs = {}
    for spec in args.univ:
        s, f = _size(spec)
        docs[f"univ_{s}x{f}.json"] = univ(rng, s, f)
    if args.people:
        ps, js = people_jobs(rng, args.people)
        docs["people.json"], docs["jobs.json"] = ps, js
    os.makedirs(args.out, exist_ok=True)
    for name, doc in docs.items():
        text = dump(doc)
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as f:
            f.write(text)
        print(f"{name}: {len(text.encode())} bytes, {count_elements(doc)} elements")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
