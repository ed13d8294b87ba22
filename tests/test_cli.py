import io
import json

import pytest

from jpq.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_QUERY,
    CliConfig,
    build_parser,
    main,
    repl,
    run_query,
)

from jpq.engine import Engine
from jpq.errors import ShapeMismatchError

from .conftest import FIXTURES

UNIV = str(FIXTURES / "univ.json")
QUERY = 'from doc("univ") {"president":{"ID":$i}} construct {"id":$i}'


def run(config):
    out, err = io.StringIO(), io.StringIO()
    code = run_query(config, out, err)
    return code, out.getvalue(), err.getvalue()


def test_inline_query_prints_result():
    code, out, err = run(CliConfig(docs=[("univ", UNIV)], query_text=QUERY))
    assert (code, err) == (EXIT_OK, "")
    assert out == '{"id":"0001"}\n'


def test_query_file(tmp_path):
    qfile = tmp_path / "q.jpq"
    qfile.write_text(QUERY)
    code, out, _ = run(CliConfig(docs=[("univ", UNIV)], query_path=str(qfile)))
    assert code == EXIT_OK
    assert out == '{"id":"0001"}\n'


def test_syntax_error_exits_with_query_code():
    code, out, err = run(CliConfig(docs=[("univ", UNIV)], query_text="from doc( oops"))
    assert code == EXIT_QUERY
    assert out == "" and err.startswith("error:")


def test_unbound_construction_variable_is_a_query_error():
    q = 'from doc("univ") $x construct {"y":$ghost}'
    code, _, err = run(CliConfig(docs=[("univ", UNIV)], query_text=q))
    assert code == EXIT_QUERY and "ghost" in err


def test_unknown_document_exits_with_data_code():
    code, _, err = run(CliConfig(docs=[], query_text=QUERY))
    assert code == EXIT_DATA and "univ" in err


def test_unreadable_document_exits_with_data_code():
    code, _, err = run(
        CliConfig(docs=[("univ", "/nonexistent/univ.json")], query_text=QUERY)
    )
    assert code == EXIT_DATA and "error:" in err


def test_missing_query_file_exits_with_data_code(tmp_path):
    code, _, err = run(
        CliConfig(docs=[("univ", UNIV)], query_path=str(tmp_path / "none.jpq"))
    )
    assert code == EXIT_DATA


def test_explain_precedes_the_result():
    config = CliConfig(docs=[("univ", UNIV)], query_text=QUERY, explain=True)
    code, out, _ = run(config)
    assert code == EXIT_OK
    assert out.startswith("matching term:")
    assert out.endswith('{"id":"0001"}\n')


def test_pretty_output_is_valid_json():
    config = CliConfig(docs=[("univ", UNIV)], query_text=QUERY, pretty=True)
    code, out, _ = run(config)
    assert code == EXIT_OK
    assert "\n  " in out
    assert json.loads(out) == {"id": "0001"}


def test_output_file(tmp_path):
    target = tmp_path / "result.json"
    config = CliConfig(docs=[("univ", UNIV)], query_text=QUERY, output=str(target))
    code, out, _ = run(config)
    assert code == EXIT_OK and out == ""
    assert target.read_text() == '{"id":"0001"}\n'


def test_argument_parsing_builds_bindings():
    args = build_parser().parse_args(["--doc", "univ=" + UNIV, "-e", QUERY, "--pretty"])
    assert args.doc == [("univ", UNIV)]
    assert args.expr == QUERY and args.pretty


def test_bad_doc_binding_is_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--doc", "univ", "-e", QUERY])


def test_main_runs_batch(capfd):
    code = main(["--doc", "univ=" + UNIV, "-e", QUERY])
    assert code == EXIT_OK
    assert capfd.readouterr().out == '{"id":"0001"}\n'


def test_main_builds_an_immutable_config(monkeypatch):
    seen = []
    monkeypatch.setattr("jpq.cli.run_query", lambda config: seen.append(config) or EXIT_OK)
    assert main(["--doc", "univ=" + UNIV, "-e", QUERY]) == EXIT_OK
    assert seen[0].docs == (("univ", UNIV),)
    assert hash(seen[0]) == hash(CliConfig(docs=(("univ", UNIV),), query_text=QUERY))


def repl_session(script):
    stdin = io.StringIO(script)
    out, err = io.StringIO(), io.StringIO()
    code = repl(stdin, out, err)
    return code, out.getvalue(), err.getvalue()


def test_repl_load_run_quit():
    code, out, err = repl_session(
        f":load univ {UNIV}\n:run {QUERY}\n:quit\n"
    )
    assert (code, err) == (EXIT_OK, "")
    assert "loaded univ" in out
    assert '{"id":"0001"}' in out


def test_repl_matches_batch_output():
    _, out, _ = repl_session(f":load univ {UNIV}\n:run {QUERY}\n:quit\n")
    _, batch, _ = run(CliConfig(docs=[("univ", UNIV)], query_text=QUERY))
    # strip the inline prompt the REPL writes before reading each line
    repl_result = [
        l.split("jpq> ")[-1] for l in out.splitlines() if '{"id"' in l
    ]
    assert repl_result == [batch.strip()]


def test_repl_reports_errors_and_continues():
    code, out, err = repl_session(
        f":run from doc( oops\n:load univ {UNIV}\n:run {QUERY}\n"
    )
    assert code == EXIT_OK  # ended by EOF, not by the error
    assert err.startswith("error:")
    assert '{"id":"0001"}' in out


def test_repl_explain_replays_the_plan():
    q = (
        'from doc("univ") {"schools":[{"name":$n,"faculty":[{"ID":$id}]}]} '
        'construct {"faculty":[{"ID":^[$id]%,"schools":[{"name":$n}]}] '
        "groupby ^[$id]% asc}"
    )
    code, out, err = repl_session(f":load univ {UNIV}\n:explain {q}\n:quit\n")
    assert (code, err) == (EXIT_OK, "")
    assert "array-flattening" in out and "array-tpl-folding" in out


def test_repl_unknown_command():
    _, _, err = repl_session(":frobnicate\n:quit\n")
    assert "unknown command" in err


# -- failures map to exit codes, never to a traceback ---------------------------


def crash(*args, **kwargs):
    raise RuntimeError("boom")


def test_deeply_nested_document_exits_with_data_code(tmp_path, capfd):
    doc = tmp_path / "deep.json"
    doc.write_text('{"a":' + "[" * 5000 + "]" * 5000 + "}")
    code = main(["--doc", f"univ={doc}", "-e", QUERY])
    err = capfd.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("depth", [450, 900, 990])
@pytest.mark.parametrize("kind", ["array", "object"])
@pytest.mark.parametrize("pattern", ["$x", "//$y"])
def test_a_deep_document_is_queried_or_fails_as_a_data_error(tmp_path, depth, kind, pattern):
    # every stage, comparison included, reaches the depth README supports;
    # past it, parsing or serializing fails as a data error
    text = "[" * depth + "]" * depth if kind == "array" else '{"a":' * depth + "1" + "}" * depth
    var = pattern.lstrip("/")
    built = var if var == pattern else f"[{var}]"
    query = f'from doc("d") {pattern} construct {{"r":{built}}} where {var} = {var}'
    code, out, err = run_on(tmp_path, text, query)
    if code == EXIT_OK:
        assert out.startswith('{"r":') and err == ""
    else:
        assert (code, out) == (EXIT_DATA, "") and "nests too deeply" in err, err
    if depth <= 900:
        assert code == EXIT_OK, err


def test_deeply_nested_query_exits_with_query_code(capfd):
    q = 'from doc("univ") {"a":' + "[" * 3000 + "$x" + "]" * 3000 + '} construct {"x":$x}'
    code = main(["--doc", "univ=" + UNIV, "-e", q])
    err = capfd.readouterr().err
    assert code == EXIT_QUERY
    assert err.startswith("error:") and "Traceback" not in err


def test_foreign_exception_exits_with_internal_code(monkeypatch, capfd):
    monkeypatch.setattr(Engine, "run", crash)
    code = main(["--doc", "univ=" + UNIV, "-e", QUERY])
    err = capfd.readouterr().err
    assert code == EXIT_INTERNAL
    assert err == "internal error: RuntimeError: boom\n"


def test_repl_survives_a_foreign_exception(monkeypatch):
    monkeypatch.setattr(Engine, "explain", crash)
    code, out, err = repl_session(
        f":load univ {UNIV}\n:explain {QUERY}\n:run {QUERY}\n:quit\n"
    )
    assert code == EXIT_OK
    assert err == "internal error: RuntimeError: boom\n"
    assert '{"id":"0001"}' in out


def test_repl_reports_an_internal_error_as_batch_does(monkeypatch):
    def mismatch(*args, **kwargs):
        raise ShapeMismatchError("expected a tuple result")

    monkeypatch.setattr(Engine, "run", mismatch)
    code, out, err = repl_session(f":load univ {UNIV}\n:run {QUERY}\n:explain {QUERY}\n")
    assert code == EXIT_OK
    assert err == "internal error: expected a tuple result\n"
    assert "matching term:" in out
    assert run(CliConfig(docs=[("univ", UNIV)], query_text=QUERY)) == (EXIT_INTERNAL, "", err)


def test_repl_load_of_a_missing_file_reports_it_as_batch_does(tmp_path):
    missing = str(tmp_path / "none.json")
    _, out, err = repl_session(f":load x {missing}\n")
    assert "loaded" not in out
    assert err.startswith("error: cannot read document 'x': ")
    assert run(CliConfig(docs=[("x", missing)], query_text=QUERY)) == (EXIT_DATA, "", err)


def not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b'{"a":"\xff"}')
    return str(path)


def test_a_document_that_is_not_utf8_is_a_data_error(tmp_path):
    bad = not_utf8(tmp_path, "bad.json")
    code, out, err = run(CliConfig(docs=[("d", bad)], query_text=QUERY))
    assert (code, out) == (EXIT_DATA, "")
    assert err.startswith("error: cannot read document 'd': ")


def test_a_query_file_that_is_not_utf8_is_a_data_error(tmp_path):
    bad = not_utf8(tmp_path, "bad.jpq")
    code, out, err = run(CliConfig(docs=[("univ", UNIV)], query_path=bad))
    assert (code, out) == (EXIT_DATA, "")
    assert err.startswith("error: cannot read query file: ")


def test_repl_load_of_a_file_that_is_not_utf8_reports_a_data_error(tmp_path):
    bad = not_utf8(tmp_path, "bad.json")
    code, out, err = repl_session(f":load d {bad}\n")
    assert code == EXIT_OK and "loaded" not in out
    assert err.startswith("error: cannot read document 'd': ")
    assert run(CliConfig(docs=[("d", bad)], query_text=QUERY)) == (EXIT_DATA, "", err)


@pytest.mark.parametrize(
    "failure, code",
    [
        (dict(query_text="from doc( oops"), EXIT_QUERY),
        (dict(docs=[("univ", "missing.json")]), EXIT_DATA),
        (
            dict(
                query_text='from doc("univ") {"president":{"ID":$i}} construct {"n":count($i)}',
                explain=True,
            ),
            EXIT_QUERY,
        ),
    ],
    ids=["query-error", "unreadable-document", "run-error-after-explain"],
)
def test_a_failed_command_writes_no_output(tmp_path, failure, code):
    config = {"docs": [("univ", UNIV)], "query_text": QUERY, **failure}
    got, out, err = run(CliConfig(**config))
    assert (got, out) == (code, "") and err.startswith("error: ")
    target = tmp_path / "out.json"
    target.write_text("keep")
    assert run(CliConfig(**config, output=str(target))) == (code, "", err)
    assert target.read_text() == "keep"


def test_an_unopenable_output_file_is_reported_after_the_query(tmp_path):
    target = str(tmp_path / "no-such-dir" / "out.json")
    bad = CliConfig(docs=[("univ", UNIV)], query_text="from doc( oops", output=target)
    assert run(bad)[0] == EXIT_QUERY
    code, out, err = run(CliConfig(docs=[("univ", UNIV)], query_text=QUERY, output=target))
    assert (code, out) == (EXIT_DATA, "")
    assert err.startswith("error: cannot open output file: ")


SCHOOLS = 'from doc("univ") {"schools":[{"name":$n,"dean":{"ID":$d}}]} '
FACULTY = 'from doc("univ") {"schools":[{"name":$n,"faculty":[{"ID":$id}]}]} '
STATIC_ERRORS = {
    "duplicate-key": SCHOOLS + 'construct {"s":[{"a":$n,"a":$n}]}',
    "duplicate-key-top": 'from doc("univ") {"president":{"ID":$i}} construct {"a":$i,"a":$i}',
    "order-without-groupby": SCHOOLS + 'construct {"s":[$n] asc}',
    "order-by-two-variables": SCHOOLS + 'construct {"s":[{"n":$n,"d":$d}] groupby ($n,$d) asc}',
    "order-by-a-nested-variable": FACULTY + 'construct [{"s":$n,"fs":[$id]}] groupby $id desc',
    "order-by-a-variable-not-built": FACULTY + 'construct [{"s":$n}] groupby $id desc',
    "unknown-function": SCHOOLS + 'construct {"s":[frob($n)]}',
    "unknown-predicate": SCHOOLS + 'construct {"s":[$n]} where frob($n)',
    "count-arity": SCHOOLS + 'construct {"s":[count($n,$n)]}',
    "predicate-arity": SCHOOLS + 'construct {"s":[$n]} where contains($n)',
    "or-across-option-branches": 'from doc("univ") {"president":({"ID":$a}|{"email":$b})} '
    'construct {"p":($a|$b)} where $a = "0001" or $b = "x"',
    "count-over-a-scalar": QUERY + ' where count[$i] > 0',
    "count-over-a-key": 'from doc("univ") {$k "president":{"ID":$i}} construct {"id":$i} '
    'where count[$k] > 0',
    "quantifier-range-of-another-variable": QUERY + ' where foreach $i in [$j]; $i = "x"',
    "quantifier-over-a-scalar": QUERY + ' where foreach $i; $i = "x"',
    "with-under-par": SCHOOLS + 'construct {"s":[$n]} where ($n = "x" with $d = "y") par $n = "z"',
    "range-and-elementwise": FACULTY + 'construct {"s":[$n]} where count[$id] > 1 and $id = "0001"',
    "nested-ranges": FACULTY + 'construct {"s":[$n]} where count[$n] > 1 and count[$id] > 2',
    "par-under-not": SCHOOLS + 'construct {"s":[$n]} where not ($n = "x" par $d = "y")',
    "with-under-forsome": FACULTY + 'construct {"s":[$n]} where forsome $id; ($id = "0001" with $n = "y")',
    "rebound-in-one-object": 'from doc("univ") {"president":{"ID":$x,"email":$x}} construct {"p":$x}',
    "rebound-across-option-branches": 'from doc("univ") {"president":({"ID":$x}|{"email":$x})} '
    'construct {"p":$x}',
    "rebound-key-and-value": 'from doc("univ") {$k:$k} construct {"p":$k}',
    "rebound-across-sources": 'from doc("univ") {"president":{"ID":$x}}, '
    'doc("univ") {"president":{"email":$x}} construct {"p":$x}',
}


@pytest.mark.parametrize("query", STATIC_ERRORS.values(), ids=STATIC_ERRORS.keys())
def test_static_query_errors_exit_1_whatever_the_data(query, tmp_path):
    # the query is checked before any document is read, even an unreadable one
    other = tmp_path / "other.json"
    other.write_text('{"other":1}')
    for doc in (UNIV, str(other), str(tmp_path / "missing.json")):
        code, out, err = run(CliConfig(docs=[("univ", doc)], query_text=query))
        assert (code, out) == (EXIT_QUERY, "") and err.startswith("error:"), doc


def test_nested_ranges_run_when_applied_in_turn():
    query = FACULTY + 'construct {"s":[$n]} where count[$n] > 1 with count[$id] > 2'
    code, out, err = run(CliConfig(docs=[("univ", UNIV)], query_text=query))
    assert (code, out, err) == (EXIT_OK, '{"s":["Computer School","Math School"]}\n', "")


# -- ordering by a member term -------------------------------------------------------

SHUFFLED = {
    "schools": [
        {"name": name, "dean": {"ID": dean}, "faculty": [{"ID": i} for i in ids]}
        for name, dean, ids in [
            ("Law", "0031", ["0002", "0005"]),
            ("Art", "0032", ["0005"]),
            ("Physics", "0033", ["0002", "0004", "0005"]),
            ("Math", "0034", ["0004"]),
        ]
    ]
}


def run_on_shuffled(tmp_path, query):
    doc = tmp_path / "shuffled.json"
    doc.write_text(json.dumps(SHUFFLED))
    code, out, err = run(CliConfig(docs=[("univ", str(doc))], query_text=query))
    assert (code, err) == (EXIT_OK, "")
    return json.loads(out)


def test_plain_array_ordered_by_a_member_term(tmp_path):
    got = run_on_shuffled(tmp_path, SCHOOLS + 'construct {"s":[{"n":$n,"d":$d}] groupby $n desc}')
    expected = [{"n": s["name"], "d": s["dean"]["ID"]} for s in SHUFFLED["schools"]]
    assert got == {"s": sorted(expected, key=lambda e: e["n"], reverse=True)}


NESTED_IDS = {"schools": [{"name": "A", "faculty": [{"ID": 1}, {"ID": 9}]},
                          {"name": "B", "faculty": [{"ID": 5}]}]}
ONE_VALUE_ORDER = {
    # $id is many values per school: there is no order to follow
    "nested": ('[{"s":$n,"fs":[$id]}] groupby $id desc', EXIT_QUERY, "",
               "error: ordering variable $id is not one value per array element\n"),
    # flattened, each element holds one $id
    "flattened": ('[^[{"s":$n,"i":$id}]] groupby $id desc', EXIT_OK,
                  '[{"s":"A","i":9},{"s":"B","i":5},{"s":"A","i":1}]\n', ""),
}


@pytest.mark.parametrize("construction, code, out, err", ONE_VALUE_ORDER.values(),
                         ids=ONE_VALUE_ORDER.keys())
def test_an_ordering_variable_is_one_value_per_element(tmp_path, construction, code, out, err):
    doc = tmp_path / "nested.json"
    doc.write_text(json.dumps(NESTED_IDS))
    got = run(CliConfig(docs=[("univ", str(doc))], query_text=FACULTY + "construct " + construction))
    assert got == (code, out, err)


def test_grouped_class_content_ordered_by_a_member_term(tmp_path):
    got = run_on_shuffled(
        tmp_path,
        FACULTY + 'construct {"f":[{"ID":^[$id]%,"ss":[$n] groupby $n desc}] groupby ^[$id]% asc}',
    )
    ids = sorted({f["ID"] for s in SHUFFLED["schools"] for f in s["faculty"]})
    expected = [
        {"ID": i, "ss": sorted((s["name"] for s in SHUFFLED["schools"]
                                if i in [f["ID"] for f in s["faculty"]]), reverse=True)}
        for i in ids
    ]
    assert got == {"f": expected}


# -- NaN numbers -----------------------------------------------------------------------


def run_on(tmp_path, text, query):
    doc = tmp_path / "d.json"
    doc.write_text(text)
    return run(CliConfig(docs=[("d", str(doc))], query_text=query))


BUILTIN_XS = '{"xs":[{"n":"a","k":1},{"n":"b","k":"s"}]}'


@pytest.mark.parametrize(
    "query, message",
    [
        ('from doc("d") {"xs":[{"n":$n}]} construct {"r":frob($n)}',
         "unknown function 'frob'"),
        ('from doc("d") {"xs":[{"n":$n}]} construct {"r":[$n]} where frob($n)',
         "unknown function 'frob'"),
        ('from doc("d") {"xs":[{"n":$n}]} construct {"r":endWith($n)}',
         "endWith takes 2 argument(s), got 1"),
        ('from doc("d") {"xs":[{"n":$n}]} construct {"r":[$n]} where notnull($n, $n)',
         "notnull takes 1 argument(s), got 2"),
        ('from doc("d") {"xs":[{"n":$n}]} construct {"r":[count($n)]}',
         "count applies to arrays only"),
        ('from doc("d") {"xs":[{"n":$n,"k":$k}]} construct {"r":[{"n":$n,"k":$k}] groupby $k asc}',
         "cannot order a mix of numbers and strings"),
    ],
    ids=["call", "condition", "arity", "condition-arity", "count", "mixed-keys"],
)
def test_builtin_and_ordering_errors_are_type_errors(tmp_path, query, message):
    assert run_on(tmp_path, BUILTIN_XS, query) == (EXIT_QUERY, "", f"error: {message}\n")


NAN_XS = '{"xs":[{"v":NaN},{"v":2}]}'


def test_nan_fails_an_ordering_condition(tmp_path):
    query = 'from doc("d") {"xs":[{"v":$v}]} construct {"r":[$v]} where $v > 1'
    assert run_on(tmp_path, NAN_XS, query) == (EXIT_OK, '{"r":[2]}\n', "")


def test_nan_fails_an_ordering_predicate(tmp_path):
    query = 'from doc("d") {"xs":[<{"v":(> 1)},$x>]} construct {"r":[$x]}'
    assert run_on(tmp_path, NAN_XS, query) == (EXIT_OK, '{"r":[{"v":2}]}\n', "")


@pytest.mark.parametrize(
    "text, query",
    [
        (NAN_XS, 'from doc("d") {"xs":[{"v":$v}]} construct {"r":[$v] groupby $v asc}'),
        (
            '{"xs":[{"v":1,"ys":[NaN,2]},{"v":3,"ys":[2]}]}',
            'from doc("d") {"xs":[{"v":$v,"ys":[$y]}]} '
            'construct {"r":[{"k":^[$y]%,"c":[$v]}] groupby ^[$y]% asc}',
        ),
    ],
    ids=["member-term", "grouped-classes"],
)
def test_nan_ordering_key_is_a_type_error(tmp_path, text, query):
    code, out, err = run_on(tmp_path, text, query)
    assert (code, out, err) == (EXIT_QUERY, "", "error: ordering keys must not be NaN\n")


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            '{"xs":[{"v":1,"ys":[NaN,2]},{"v":3,"ys":[NaN]}]}',
            '{"r":[{"k":NaN,"c":[1,3]},{"k":2,"c":[1]}]}',
        ),
        (
            '{"xs":[{"v":1,"ys":[{"a":[NaN]},1,true]},{"v":3,"ys":[{"a":[NaN]},1.0]}]}',
            '{"r":[{"k":{"a":[NaN]},"c":[1,3]},{"k":1,"c":[1,3]},{"k":true,"c":[1]}]}',
        ),
    ],
    ids=["atom", "nested"],
)
def test_nan_grouping_keys_form_one_class(tmp_path, text, expected):
    query = (
        'from doc("d") {"xs":[{"v":$v,"ys":[$y]}]} '
        'construct {"r":[{"k":^[$y]%,"c":[$v]}] groupby ^[$y]%}'
    )
    assert run_on(tmp_path, text, query) == (EXIT_OK, expected + "\n", "")


@pytest.mark.parametrize(
    "condition, expected",
    [("$x = $x", '{"r":[1]}'), ("$x != $x", '{"r":[NaN,[NaN],{"a":NaN}]}')],
    ids=["equal", "unequal"],
)
def test_an_array_or_object_holding_nan_equals_nothing(tmp_path, condition, expected):
    query = 'from doc("d") {"xs":[$x]} construct {"r":[$x]} where ' + condition
    text = '{"xs":[NaN,[NaN],{"a":NaN},1]}'
    assert run_on(tmp_path, text, query) == (EXIT_OK, expected + "\n", "")


# -- option alternatives through commutation and ungrouping -------------------------

OPTS = '{"p":{"ID":"1"},"q":[{"ID":"2"},{"ID":"3"}],"r":{"name":"n"},"s":{"ID":"4","name":"m"}}'
UNGROUPED = (
    'from doc("d") /$k:({"ID":$a}|([{"ID":$b}]|{"name":$c})) '
    'construct {"r":[{"k":$k,"v":($a|^[$b]|$c)}]}'
)


@pytest.mark.parametrize(
    "query, route, expected",
    [
        (
            UNGROUPED,
            "option-association @ 0/1 #-1",
            '{"r":[{"k":"p","v":"1"},{"k":"q","v":"2"},{"k":"q","v":"3"},'
            '{"k":"r","v":"n"},{"k":"s","v":"4"}]}',
        ),
        (
            # s matches both alternatives and keeps the first in pattern order
            'from doc("d") /$k:({"ID":$a}|{"name":$c}) construct {"r":[{"k":$k,"v":($c|$a)}]}',
            "option-commutation @ 0/1 #0",
            '{"r":[{"k":"p","v":"1"},{"k":"r","v":"n"},{"k":"s","v":"4"}]}',
        ),
        (
            UNGROUPED + ' where $a != "4" par $c = "n"',
            "option-association @ 0/1 #-1",
            '{"r":[{"k":"p","v":"1"},{"k":"r","v":"n"}]}',
        ),
        (
            # constant branches both stand: the first in pattern order is built
            'from doc("d") {"p":{"ID":$a}} construct {"r":("x"|"y")}',
            "(no restructuring needed)",
            '{"r":"x"}',
        ),
    ],
    ids=["ungrouping", "commutation", "filtered-ungrouping", "constant-branches"],
)
def test_option_alternatives_survive_rewriting(tmp_path, query, route, expected):
    doc = tmp_path / "d.json"
    doc.write_text(OPTS)
    code, out, err = run(CliConfig(docs=[("d", str(doc))], query_text=query, explain=True))
    assert (code, err) == (EXIT_OK, "")
    assert route in out and out.endswith("\n" + expected + "\n")


# -- absent members, null, member order and true against 1 ------------------------

NULLS = '{"xs":[{"n":"a","k":null},{"n":"b"},{"n":"c","k":1}]}'


@pytest.mark.parametrize(
    "condition, expected",
    [
        ('$o."k" = null', '{"r":[{"n":"a","k":null}]}'),
        ('notnull($o."k")', '{"r":[{"n":"c","k":1}]}'),
        ('$o."k" != null', '{"r":[{"n":"c","k":1}]}'),
    ],
)
def test_an_absent_member_is_not_null(tmp_path, condition, expected):
    query = 'from doc("d") {"xs":[$o]} construct {"r":[$o]} where ' + condition
    assert run_on(tmp_path, NULLS, query) == (EXIT_OK, expected + "\n", "")


ORDERS = (
    '{"xs":[{"n":"a","k":{"p":1,"q":2}},{"n":"b","k":{"q":2,"p":1}},'
    '{"n":"c","k":true},{"n":"d","k":1}]}'
)


def test_a_join_tells_member_order_and_true_from_1(tmp_path):
    query = (
        'from doc("d") {"xs":<[{"n":$n1,"k":$k1}],[{"n":$n2,"k":$k2}]>} '
        'construct {"r":[^[{"a":$n1,"b":$n2}]]} where $k1 = $k2'
    )
    expected = '{"r":[{"a":"a","b":"a"},{"a":"b","b":"b"},{"a":"c","b":"c"},{"a":"d","b":"d"}]}'
    assert run_on(tmp_path, ORDERS, query) == (EXIT_OK, expected + "\n", "")


def test_grouping_tells_member_order_and_true_from_1(tmp_path):
    query = 'from doc("d") {"xs":[{"n":$n,"k":$k}]} construct {"r":[{"k":$k%,"c":[$n]}] groupby $k%}'
    expected = (
        '{"r":[{"k":{"p":1,"q":2},"c":["a"]},{"k":{"q":2,"p":1},"c":["b"]},'
        '{"k":true,"c":["c"]},{"k":1,"c":["d"]}]}'
    )
    assert run_on(tmp_path, ORDERS, query) == (EXIT_OK, expected + "\n", "")


# -- grouped arrays whose members name the key ------------------------------------------

MEMBERS_DOC = {"xs": [{"a": 1, "b": 2, "n": "p"}, {"a": 3, "b": 2, "n": "r"}, {"a": 1, "b": 5, "n": "q"},
                      {"a": 1, "b": 2, "n": "s"}]}
MEMBERS_PATTERN = 'from doc("d") {"xs":[{"a":$a,"b":$b,"n":$n}]} '
KEY_TERMS = {"a": "$a%", "ab": "($a,$b)%"}


def key_member_rows():
    """(query, expected output) computed from the raw JSON for a grouping key
    (`$a%` or `($a,$b)%`), the class member's variables (repeats allowed) and
    whether the element references the key: classes in order of first
    appearance, a key reference being the key's value, or for a tuple key the
    list of its values."""
    named = {"key-inside": ("a", "an", True), "another-order": ("a", "na", True),
             "beside-a-third-variable": ("a", "nab", True)}
    cases = dict(named)
    for by in KEY_TERMS:
        for members in [*"abn", *(x + y for x in "abn" for y in "abn")]:
            for ref in (True, False):
                if (by, members, ref) not in named.values():
                    cases[f"{by}%-{members}-{'ref' if ref else 'noref'}"] = (by, members, ref)
    out = {}
    for name, (by, members, ref) in cases.items():
        classes: dict = {}
        for x in MEMBERS_DOC["xs"]:
            k = tuple(x[v] for v in by)
            classes.setdefault(k, []).append({f"{v}{i}": x[v] for i, v in enumerate(members)})
        member = "{" + ",".join(f'"{v}{i}":${v}' for i, v in enumerate(members)) + "}"
        elem = f'{{"k":{KEY_TERMS[by]},"v":[{member}]}}' if ref else f'{{"v":[{member}]}}'
        query = MEMBERS_PATTERN + f"construct [{elem}] groupby {KEY_TERMS[by]}"
        expected = [({"k": k[0] if len(k) == 1 else list(k)} if ref else {}) | {"v": v}
                    for k, v in classes.items()]
        out[name] = (query, expected)
    return out


KEY_MEMBERS = key_member_rows()
# and the key patterns themselves, on the same document
KEY_MEMBERS.update({
    "parenthesised-key-binding": ('from doc("d") {"xs":[{($x "a"):*}]} construct [$x]', ["a"] * 4),
    "key-predicate-matching-no-key": ('from doc("d") {"z?":$z} construct {"r":$z}', {"r": None}),
    "builtin-on-a-key": ('from doc("d") {$k:*} construct {"r":contains($k,"x")}', {"r": True}),
})


@pytest.mark.parametrize("query, expected", KEY_MEMBERS.values(), ids=KEY_MEMBERS.keys())
def test_grouped_members_may_name_the_key(tmp_path, query, expected):
    code, out, err = run_on(tmp_path, json.dumps(MEMBERS_DOC), query)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out) == expected


def test_ordering_by_a_tuple_key_is_a_type_error(tmp_path):
    query = MEMBERS_PATTERN + 'construct [{"v":[$n]}] groupby ($a,$b)% asc'
    code, out, err = run_on(tmp_path, json.dumps(MEMBERS_DOC), query)
    assert (code, out, err) == (EXIT_QUERY, "", "error: ordering keys must be numbers or strings\n")


# -- a flattened array whose elements are arrays ----------------------------------------

NESTED_DOC = {"xs": [{"ys": [[1, 2], [3]]}, {"ys": [[4]]}]}


def spliced_array_rows():
    """(construction, expected output) computed from the raw JSON: each
    element of every `ys` is spliced as one array."""
    ys = [y for x in NESTED_DOC["xs"] for y in x["ys"]]
    return {
        "alone": ("[^[[$c]]]", ys),
        "under-a-key": ('{"r":[^[[$c]]]}', {"r": ys}),
        "in-an-element": ('[{"x":^[[$c]]}]', [{"x": y} for y in ys]),
        "inside-an-object": ('[^[{"v":[$c]}]]', [{"v": y} for y in ys]),
    }


SPLICED_ARRAYS = spliced_array_rows()


@pytest.mark.parametrize("construction, expected", SPLICED_ARRAYS.values(), ids=SPLICED_ARRAYS.keys())
def test_a_flattened_array_splices_array_elements_whole(tmp_path, construction, expected):
    query = 'from doc("d") {"xs":[{"ys":[[$c]]}]} construct ' + construction
    code, out, err = run_on(tmp_path, json.dumps(NESTED_DOC), query)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out) == expected


# -- arrays of constants only ----------------------------------------------------------


def constant_array_rows():
    """(construction, expected output) computed from the raw JSON."""
    with open(UNIV) as f:
        schools = json.load(f)["schools"]
    names = [s["name"] for s in schools]
    ids = sorted({f["ID"] for s in schools for f in s["faculty"]})
    grouped = [
        {"ID": i, "k": [1], "ss": [s["name"] for s in schools if i in [f["ID"] for f in s["faculty"]]]}
        for i in ids
    ]
    return {
        "alone": ('{"k":[1]}', {"k": [1]}),
        "beside-a-variable-array": ('{"k":[1],"n":[$n]}', {"k": [1], "n": names}),
        "inside-an-element": ('{"s":[{"n":$n,"k":[{"a":1}]}]}',
                              {"s": [{"n": n, "k": [{"a": 1}]} for n in names]}),
        "nested": ('{"k":[[1]]}', {"k": [[1]]}),
        "beside-a-grouping-key": (
            '{"f":[{"ID":^[$id]%,"k":[1],"ss":[$n]}] groupby ^[$id]% asc}', {"f": grouped}),
    }


CONSTANT_ARRAYS = constant_array_rows()


@pytest.mark.parametrize("construction, expected", CONSTANT_ARRAYS.values(), ids=CONSTANT_ARRAYS.keys())
def test_an_array_of_constants_is_built_as_written(construction, expected):
    code, out, err = run(CliConfig(docs=[("univ", UNIV)], query_text=FACULTY + "construct " + construction))
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out) == expected


SPLICE_NOTHING = {c: FACULTY + "construct " + c
                  for c in ('{"k":^[1]}', '{"k":[^[1]]}', '{"s":[{"n":$n,"k":^[1]}]}')}
# rejected before any data is read, so a pattern that matches nothing is no exception
SPLICE_NOTHING["no-match"] = 'from doc("univ") {"provost":$p} construct {"k":^[1],"p":$p}'


@pytest.mark.parametrize("query", SPLICE_NOTHING.values(), ids=SPLICE_NOTHING.keys())
def test_a_flattened_array_of_constants_has_nothing_to_splice(query):
    code, out, err = run(CliConfig(docs=[("univ", UNIV)], query_text=query))
    assert (code, out) == (EXIT_QUERY, "")
    assert err == "error: a ^[...] of constants only has nothing to splice\n"


# -- a construction that repeats its variables ------------------------------------------

DUPLICATED = {"xs": [{"a": "p", "bs": ["u"]}, {"a": "q", "bs": ["v", "w"]}, {"a": "r", "bs": ["u", "v"]}]}
REPEATED = ('from doc("d") {"xs":[{"a":$a,"bs":[$b]}]} '
            'construct {"p":[^[{"a":$a,"b":$b}]],"q":[{"a":$a,"bs":[$b]}]} where ')


# where clause -> what it asks of one (a, b) pair of the raw JSON
REPEATED_WHERES = {
    '$b != "w"': lambda a, b: b != "w",
    '$b = "u"': lambda a, b: b == "u",
    '$b = "v"': lambda a, b: b == "v",
    '$a = "r"': lambda a, b: a == "r",
    'not ($a = "q") and $b != "u"': lambda a, b: a != "q" and b != "u",
}


@pytest.mark.parametrize("where", REPEATED_WHERES,
                         ids=["b-not-w", "b-is-u", "b-is-v", "a-is-r", "not-q-and-b-not-u"])
def test_a_construction_repeating_its_variables_keeps_every_admitted_pair(tmp_path, where):
    holds = REPEATED_WHERES[where]
    # the oracle, over the raw JSON: each x keeps the bs an assignment satisfies,
    # and an x left with none is dropped; `p` pairs each kept b with its x's a
    kept = [(x["a"], [b for b in x["bs"] if holds(x["a"], b)]) for x in DUPLICATED["xs"]]
    kept = [(a, bs) for a, bs in kept if bs]
    code, out, err = run_on(tmp_path, json.dumps(DUPLICATED), REPEATED + where)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out) == {"p": [{"a": a, "b": b} for a, bs in kept for b in bs],
                               "q": [{"a": a, "bs": bs} for a, bs in kept]}


# -- a sibling option restricts distribution ---------------------------------------------

SIBLING_OPTION = ('from doc("d") {"president":(<$p1,{"ID":$id1}>|[<$p2,{"ID":$id2}>]),'
                  '"schools":[{"name":$n,"faculty":[{"ID":$id3}]}]} '
                  'construct {"p":($p1|[$p2]),"pairs":[^[{"n":$n,"id":$id3}]]} '
                  'where $id1 = $id3 par $id2 = $id3')
_SCHOOLS = [{"name": "S", "faculty": [{"ID": "1"}, {"ID": "2"}]}, {"name": "T", "faculty": [{"ID": "3"}]}]
# one document per branch of the president option
SIBLING_DOCS = {"one": {"president": {"ID": "1"}, "schools": _SCHOOLS},
                "array": {"president": [{"ID": "2"}, {"ID": "3"}], "schools": _SCHOOLS}}


@pytest.mark.parametrize("doc", SIBLING_DOCS.values(), ids=SIBLING_DOCS.keys())
def test_a_sibling_option_restricts_distribution_to_its_taken_branch(tmp_path, doc):
    # the option beside the distributed schools takes one branch per document;
    # the faculty kept are those whose ID the taken branch names, in document order
    president = doc["president"]
    ids = {p["ID"] for p in president} if isinstance(president, list) else {president["ID"]}
    code, out, err = run_on(tmp_path, json.dumps(doc), SIBLING_OPTION)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out) == {"p": president, "pairs": [
        {"n": s["name"], "id": f["ID"]} for s in doc["schools"] for f in s["faculty"] if f["ID"] in ids]}
