"""Hash-consed ASTs and per-program lowering memos.

The parser builds each distinct subtree of one text once, every node
stores a hash computed when it is built, and ``==`` walks two trees
with its own stack (``repro.hdl.ast.Node``).  Lowering memoizes each
distinct expression and statement per program (``LowerCtx``,
``compile_stmt``).  These tests pin the sharing, that neither hashing,
comparing nor lowering recurses on a long operator run, that a stored
hash never outlives its process, and that a memo hit leaves the
lowering context exactly as lowering the node again would.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
import repro.hdl.compile as compile_mod
from oracles import SIMULATORS
from repro.hdl import ast
from repro.hdl.compile import _lower_spec, clear_program_cache
from repro.hdl.elaborate import elaborate
from repro.hdl.errors import HdlError
from repro.hdl.eval import LowerCtx
from repro.hdl.parser import parse_source
from test_diff_fuzz import generate_program, seed_for

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _initial_body(src: str) -> ast.Block:
    (module,) = parse_source(src).modules
    (block,) = [item for item in module.items
                if isinstance(item, ast.InitialBlock)]
    return block.body


def _sum(terms: int) -> str:
    return " + ".join(["a"] * terms)


REPEATED = """module tb;
    reg [3:0] a;
    integer f;
    initial begin
        f = $fopen("dump.txt");
        a = a + 4'd1;
        $fdisplay(f, "%b %d", a, a + 4'd1);
        a = a + 4'd1;
        $fdisplay(f, "%b %d", a, a + 4'd1);
    end
endmodule"""


class TestParserSharing:
    def test_equal_subtrees_of_one_text_are_one_object(self):
        _, step, dump, step_again, dump_again = _initial_body(REPEATED).stmts
        assert step is step_again
        assert dump is dump_again
        # Subtrees shared across different statements too: ``a + 4'd1``
        # is the stimulus's value and the dump's last argument.
        assert dump.args[-1] is step.value

    def test_texts_share_nothing(self):
        """The table lives for one parse: a second parse of the same
        text builds an equal tree of new objects."""
        first, second = _initial_body(REPEATED), _initial_body(REPEATED)
        assert first == second and hash(first) == hash(second)
        assert first is not second
        assert first.stmts[1] is not second.stmts[1]


class TestNodeHashAndEquality:
    @pytest.mark.parametrize("terms", [1000, 3000])
    def test_long_sums_hash_and_compare_without_recursing(self, terms):
        src = f'module tb; initial $display("%d", {_sum(terms)}); endmodule'
        first, second = (parse_source(src).modules[0],
                         parse_source(src).modules[0])
        assert first is not second
        assert hash(first) == hash(second)
        assert first == second
        other = parse_source(src.replace("a + a", "a - a", 1)).modules[0]
        assert first != other

    def test_replace_rehashes(self):
        node = ast.Binary("+", ast.Identifier("a"), ast.Number(4, 1))
        swapped = replace(node, op="-")
        assert swapped == ast.Binary("-", ast.Identifier("a"),
                                     ast.Number(4, 1))
        assert hash(swapped) == hash(ast.Binary("-", ast.Identifier("a"),
                                                ast.Number(4, 1)))
        assert swapped != node

    def test_pickled_node_hashes_afresh_under_another_hash_seed(self):
        """A node pickled under one ``PYTHONHASHSEED`` and loaded under
        another hashes like a node built fresh there: the stored hash
        mixes in string hashes and is never pickled."""
        build = ("from repro.hdl.parser import parse_source\n"
                 "node = parse_source(" + repr(REPEATED) + ").modules[0]\n")
        dump = build + ("import pickle, sys\n"
                        "print(hash(node))\n"
                        "sys.stdout.flush()\n"
                        "sys.stdout.buffer.write(pickle.dumps(node))\n")
        load = build + ("import pickle, sys\n"
                        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
                        "print(hash(node), hash(loaded), loaded == node)\n")

        def python(code: str, seed: str, stdin: bytes = b"") -> bytes:
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": SRC_DIR}
            return subprocess.run([sys.executable, "-c", code], input=stdin,
                                  env=env, capture_output=True,
                                  check=True).stdout

        out = python(dump, "1")
        first_hash, blob = out.split(b"\n", 1)
        fresh, loaded, equal = python(load, "2", blob).split()
        assert loaded == fresh and equal == b"True"
        assert fresh != first_hash  # the seeds really hash differently


# ----------------------------------------------------------------------
# Lowering memos
# ----------------------------------------------------------------------
class _Forgetful(dict):
    """A memo that never remembers: every lookup lowers cold."""

    def __setitem__(self, key, value):
        pass


def _lowering_states(src: str, top: str, memo: bool,
                     monkeypatch) -> list[tuple]:
    """Per process of ``top``: the lowering context's recorded state."""
    contexts: list[LowerCtx] = []

    class Recording(LowerCtx):
        def __init__(self, scope):
            super().__init__(scope)
            if not memo:
                self._expr_cache = _Forgetful()
                self._stmt_cache = _Forgetful()
            contexts.append(self)

    monkeypatch.setattr(compile_mod, "LowerCtx", Recording)
    design = elaborate(parse_source(src), top)
    states = []
    for spec in design.processes:
        contexts.clear()
        _lower_spec(spec)
        (ctx,) = contexts
        states.append((spec.label, ctx.slot_specs, list(ctx.facts.items()),
                       ctx.shareable, ctx.prefix_sensitive, ctx.reads_time))
    monkeypatch.undo()
    return states


#: Repeated statements whose lowering defers an error, reads ``$time``
#: or waits on an event, beside repeated dump lines.
DEFERRING = """module tb;
    reg [3:0] a;
    reg clk;
    integer f;
    always #5 clk = ~clk;
    initial begin
        clk = 0;
        f = $fopen("dump.txt");
        @(posedge clk) a = 4'd1;
        $fdisplay(f, "%b %0t", a, $time);
        if (a == 4'd2) a = missing;
        $display("%q", a);
        @(posedge clk) a = 4'd1;
        $fdisplay(f, "%b %0t", a, $time);
        if (a == 4'd2) a = missing;
        $display("%q", a);
        $finish;
    end
endmodule"""


class TestStatementMemo:
    @pytest.mark.parametrize("index", range(12))
    def test_memo_hit_leaves_the_context_as_a_cold_lowering(
            self, index, monkeypatch):
        src = generate_program(seed_for(index))
        assert (_lowering_states(src, "tb", True, monkeypatch)
                == _lowering_states(src, "tb", False, monkeypatch))

    def test_deferred_errors_and_time_reads_memoize_exactly(
            self, monkeypatch):
        memoized = _lowering_states(DEFERRING, "tb", True, monkeypatch)
        assert memoized == _lowering_states(DEFERRING, "tb", False,
                                            monkeypatch)
        initial = memoized[-1]
        assert initial[4] and initial[5]  # prefix_sensitive, reads_time

    def test_deferred_statement_lowers_once(self):
        """Both copies of a broken statement run one deferred closure."""
        body = _initial_body(DEFERRING)
        design = elaborate(parse_source(DEFERRING), "tb")
        ctx = LowerCtx(design.processes[-1].scope)
        broken = body.stmts[4]
        assert broken is body.stmts[8]
        first = compile_mod.compile_stmt(broken, ctx)
        assert compile_mod.compile_stmt(body.stmts[8], ctx) is first
        assert ctx.prefix_sensitive

    @pytest.mark.parametrize("engine", SIMULATORS)
    def test_memoized_deferred_error_still_raises(self, engine):
        src = DEFERRING.replace("if (a == 4'd2)", "if (a == 4'd1)")
        with pytest.raises(HdlError, match="missing"):
            SIMULATORS[engine](src, "tb")

    def test_repeated_fdisplay_lowers_its_format_once(self, monkeypatch):
        calls = []
        original = compile_mod._compile_format

        def counting(fmt, args, ctx):
            calls.append(fmt)
            return original(fmt, args, ctx)

        monkeypatch.setattr(compile_mod, "_compile_format", counting)
        dump = '        $fdisplay(f, "%b %d", a, a + 4\'d1);\n'
        src = ("module tb;\n    reg [3:0] a;\n    integer f;\n"
               "    initial begin\n        a = 4'd5;\n"
               '        f = $fopen("dump.txt");\n'
               + dump * 100 + "    end\nendmodule")
        clear_program_cache()
        result = SIMULATORS["compiled"](src, "tb")
        assert calls == ["%b %d"]
        assert result.files["dump.txt"] == ["0101 6"] * 100
