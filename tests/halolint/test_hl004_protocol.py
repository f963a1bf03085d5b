"""Teeth tests for HL004 — JSONL protocol-frame consistency."""

from __future__ import annotations

from halolint_helpers import findings_for

CLIENT = "src/repro/server/client.py"
APP = "src/repro/server/app.py"

GOOD_CLIENT = """
    class Client:
        def call(self, op, **fields):
            return self._transport(op, fields)

        def ping(self):
            return self.call("ping")

        def simulate(self, netlist, vector, full=True):
            return self.call(
                "simulate", netlist=netlist, vector=vector, full=full
            )

        def register(self, name, workers=None):
            fields = {"name": name}
            if workers is not None:
                fields["workers"] = workers
            return self.call("register", **fields)

        def read(self):
            frame = self._recv()
            if frame.get("ok"):
                return frame.get("result")
            error = frame.get("error") or {}
            return (error.get("kind"), error.get("message"))
"""

GOOD_APP = """
    class Server:
        async def _op_ping(self, _frame):
            return {"pong": True}

        async def _op_simulate(self, frame):
            netlist = frame.get("netlist")
            vector = frame["vector"]
            full = frame.get("full", True)
            return {"netlist": netlist, "lanes": [vector], "full": full}

        async def _op_register(self, frame):
            return {"name": frame.get("name"),
                    "workers": frame.get("workers")}

        async def _serve(self, frame):
            op = frame.get("op")
            handler = self._OPS.get(op)
            try:
                result = await handler(self, frame)
                return {"id": frame.get("id"), "ok": True, "op": op,
                        "result": result}
            except Exception as error:
                return {
                    "id": frame.get("id"),
                    "ok": False,
                    "op": op,
                    "error": {"kind": "internal", "message": str(error)},
                }

        _OPS = {
            "ping": _op_ping,
            "simulate": _op_simulate,
            "register": _op_register,
        }
"""


def test_matching_halves_are_clean(lint_tree):
    result = lint_tree({CLIENT: GOOD_CLIENT, APP: GOOD_APP})
    assert findings_for(result, "HL004") == []


def test_client_op_missing_from_dispatch_table_fires(lint_tree):
    client = GOOD_CLIENT + """
        def stats(self):
            return self.call("stats")
    """
    result = lint_tree({CLIENT: client, APP: GOOD_APP})
    (finding,) = findings_for(result, "HL004")
    assert "'stats'" in finding.message
    assert "does not dispatch" in finding.message


def test_dispatched_op_the_client_never_sends_fires(lint_tree):
    client = GOOD_CLIENT.replace("""\
        def ping(self):
            return self.call("ping")

""", "")
    result = lint_tree({CLIENT: client, APP: GOOD_APP})
    (finding,) = findings_for(result, "HL004")
    assert "'ping'" in finding.message
    assert "never sends" in finding.message


def test_sent_field_the_handler_ignores_fires(lint_tree):
    client = GOOD_CLIENT.replace(
        "vector=vector, full=full", "vector=vector, full=full, fast=1"
    )
    result = lint_tree({CLIENT: client, APP: GOOD_APP})
    (finding,) = findings_for(result, "HL004")
    assert "'fast'" in finding.message
    assert "never reads" in finding.message


def test_required_read_the_client_never_writes_fires(lint_tree):
    client = GOOD_CLIENT.replace(" vector=vector,", "")
    result = lint_tree({CLIENT: client, APP: GOOD_APP})
    (finding,) = findings_for(result, "HL004")
    assert finding.file == APP
    assert "'vector'" in finding.message
    assert "never writes" in finding.message


def test_star_expanded_builder_fields_are_tracked(lint_tree):
    # ``register()`` sends name/workers through a built dict; the
    # clean run proves both keys are credited to the op (otherwise the
    # required-read/ignored-field checks above would fire on them).
    result = lint_tree({CLIENT: GOOD_CLIENT, APP: GOOD_APP})
    assert findings_for(result, "HL004") == []


def test_non_envelope_response_key_fires(lint_tree):
    app = GOOD_APP.replace(
        '"ok": True, "op": op,', '"ok": True, "op": op, "extra": 1,'
    )
    result = lint_tree({CLIENT: GOOD_CLIENT, APP: app})
    (finding,) = findings_for(result, "HL004")
    assert "extra" in finding.message


def test_client_reading_unwritten_error_key_fires(lint_tree):
    client = GOOD_CLIENT.replace(
        'error.get("kind")', 'error.get("trace")'
    )
    result = lint_tree({CLIENT: client, APP: GOOD_APP})
    (finding,) = findings_for(result, "HL004")
    assert "'trace'" in finding.message


def test_rule_is_inert_without_both_halves(lint_tree):
    result = lint_tree({CLIENT: GOOD_CLIENT})
    assert findings_for(result, "HL004") == []


def test_disabling_the_rule_loses_the_teeth(lint_tree):
    bad = {
        CLIENT: GOOD_CLIENT + """
        def stats(self):
            return self.call("stats")
        """,
        APP: GOOD_APP,
    }
    assert findings_for(lint_tree(bad), "HL004")
    assert not findings_for(lint_tree(bad, disabled=["HL004"]), "HL004")
