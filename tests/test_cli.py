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
    "unknown-function": SCHOOLS + 'construct {"s":[frob($n)]}',
    "unknown-predicate": SCHOOLS + 'construct {"s":[$n]} where frob($n)',
    "count-arity": SCHOOLS + 'construct {"s":[count($n,$n)]}',
    "predicate-arity": SCHOOLS + 'construct {"s":[$n]} where contains($n)',
    "or-across-option-branches": 'from doc("univ") {"president":({"ID":$a}|{"email":$b})} '
    'construct {"p":($a|$b)} where $a = "0001" or $b = "x"',
    "count-over-a-scalar": QUERY + ' where count[$i] > 0',
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
