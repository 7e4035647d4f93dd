"""Sequential simulation semantics: clocking, NBA region, resets, races."""

import pytest

from oracles import SIMULATORS
from repro.hdl import simulate


def test_nonblocking_swap():
    """The classic NBA test: two registers swap without a temp."""
    src = """
module tb;
    reg clk;
    reg [3:0] a, b;
    always #5 clk = ~clk;
    initial begin
        clk = 0;
        a = 4'd1;
        b = 4'd2;
        @(posedge clk); #1;
        $display("%d %d", a, b);
        $finish;
    end
    always @(posedge clk) begin
        a <= b;
        b <= a;
    end
endmodule
"""
    assert simulate(src, "tb").stdout == ["2 1"]


def test_pipeline_shifts_one_stage_per_edge():
    src = """
module top_module (input clk, input [3:0] d, output reg [3:0] q);
reg [3:0] s1;
always @(posedge clk) begin
    s1 <= d;
    q <= s1;
end
endmodule

module tb;
    reg clk;
    reg [3:0] d;
    wire [3:0] q;
    top_module dut(.clk(clk), .d(d), .q(q));
    always #5 clk = ~clk;
    initial begin
        clk = 0;
        d = 4'd7;
        @(posedge clk); #1;
        d = 4'd3;
        @(posedge clk); #1;
        $display("%d", q);
        @(posedge clk); #1;
        $display("%d", q);
        $finish;
    end
endmodule
"""
    # After the 2nd edge q holds the 1st edge's d; after the 3rd, d=3.
    assert simulate(src, "tb").stdout == ["7", "3"]


def test_synchronous_reset():
    src = """
module tb;
    reg clk, rst;
    reg [3:0] q;
    always #5 clk = ~clk;
    always @(posedge clk) begin
        if (rst) q <= 4'd0;
        else q <= q + 4'd1;
    end
    initial begin
        clk = 0;
        rst = 1;
        @(posedge clk); #1;
        rst = 0;
        @(posedge clk); #1;
        @(posedge clk); #1;
        $display("%d", q);
        $finish;
    end
endmodule
"""
    assert simulate(src, "tb").stdout == ["2"]


def test_asynchronous_reset_fires_without_clock():
    src = """
module tb;
    reg clk, areset;
    reg q;
    always @(posedge clk or posedge areset) begin
        if (areset) q <= 1'b0;
        else q <= 1'b1;
    end
    initial begin
        clk = 0;
        areset = 0;
        #3 areset = 1;  // no clock edge needed
        #1 $display("%b", q);
        $finish;
    end
endmodule
"""
    assert simulate(src, "tb").stdout == ["0"]


def test_sampling_race_reads_stale_value():
    """Reading right at the posedge (no settle delay) sees the old value —
    the exact race the driver fault model injects."""
    src = """
module tb;
    reg clk;
    reg [3:0] q;
    always #5 clk = ~clk;
    always @(posedge clk) q <= q + 4'd1;
    initial begin
        clk = 0;
        q = 4'd0;
        @(posedge clk);
        $display("race=%d", q);
        #1 $display("settled=%d", q);
        $finish;
    end
endmodule
"""
    assert simulate(src, "tb").stdout == ["race=0", "settled=1"]


def test_negedge_triggering():
    src = """
module tb;
    reg clk;
    reg [3:0] n;
    always #5 clk = ~clk;
    always @(negedge clk) n <= n + 4'd1;
    initial begin
        clk = 0;
        n = 4'd0;
        #21 $display("%d", n);
        $finish;
    end
endmodule
"""
    # Three negedges: x->0 at t=0 (a negedge per IEEE 1364: any
    # transition *to* 0), then 1->0 at t=10 and t=20.
    assert simulate(src, "tb").stdout == ["3"]


def test_memory_write_and_read():
    src = """
module tb;
    reg clk;
    reg [7:0] mem [3:0];
    reg [7:0] got;
    always #5 clk = ~clk;
    initial begin
        clk = 0;
        @(posedge clk);
        mem[2] <= 8'd42;
        @(posedge clk); #1;
        got = mem[2];
        $display("%d", got);
        $finish;
    end
endmodule
"""
    assert simulate(src, "tb").stdout == ["42"]


def test_fdisplay_capture_order():
    src = """
module tb;
    integer f;
    initial begin
        f = $fopen("out.txt");
        $fdisplay(f, "first");
        #10 $fdisplay(f, "second");
        $fclose(f);
        $finish;
    end
endmodule
"""
    result = simulate(src, "tb")
    assert result.files["out.txt"] == ["first", "second"]


@pytest.mark.parametrize("engine", SIMULATORS)
def test_trailing_fwrite_text_is_the_last_line(engine):
    src = """
module tb;
    integer f;
    initial begin
        f = $fopen("out.txt");
        $fwrite(f, "a");
        $fdisplay(f, "b");
        $fwrite(f, "tail ");
        $fwrite(f, "%0d", 7);
        $finish;
    end
endmodule
"""
    result = SIMULATORS[engine](src, "tb")
    assert result.files["out.txt"] == ["ab", "tail 7"]


def test_repeat_and_wait_composition():
    src = """
module tb;
    reg clk;
    reg [7:0] n;
    always #5 clk = ~clk;
    initial begin
        clk = 0;
        n = 8'd0;
        repeat (3) begin
            @(posedge clk);
            n = n + 8'd1;
        end
        $display("%d", n);
        $finish;
    end
endmodule
"""
    assert simulate(src, "tb").stdout == ["3"]


def test_two_clocks_independent():
    src = """
module tb;
    reg clk_a, clk_b;
    reg [7:0] ca, cb;
    always #5 clk_a = ~clk_a;
    always #7 clk_b = ~clk_b;
    always @(posedge clk_a) ca <= ca + 8'd1;
    always @(posedge clk_b) cb <= cb + 8'd1;
    initial begin
        clk_a = 0;
        clk_b = 0;
        ca = 0;
        cb = 0;
        #71;
        $display("%d %d", ca, cb);
        $finish;
    end
endmodule
"""
    # clk_a posedges at 5,15,...,65 -> 7; clk_b at 7,21,35,49,63 -> 5.
    assert simulate(src, "tb").stdout == ["7 5"]


def test_uninitialised_register_reads_x():
    src = """
module tb;
    reg [3:0] q;
    initial begin
        $display("%d", q);
        $finish;
    end
endmodule
"""
    assert simulate(src, "tb").stdout == ["x"]
