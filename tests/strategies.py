"""Shared hypothesis strategies: random MiniC program generation."""

from __future__ import annotations

from hypothesis import settings, strategies as st

#: Hypothesis profile (registered in conftest.py) for the seeded deep
#: run of the semantics checks: ``--hypothesis-profile=deep``
DEEP_PROFILE = "deep"

#: example-budget multiplier under the deep profile
DEEP_SCALE = 20


def examples(n: int) -> int:
    """Example budget for a property test: *n* under the default
    profile, ``DEEP_SCALE`` times that under the deep one."""
    deep = settings.default is settings.get_profile(DEEP_PROFILE)
    return n * DEEP_SCALE if deep else n

_expr_leaf = st.sampled_from(["x", "y", "1", "2", "3", "7", "-1"])


@st.composite
def minic_expr(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(_expr_leaf)
    op = draw(st.sampled_from(["+", "-", "*", "%", "/"]))
    a = draw(minic_expr(depth=depth - 1))
    b = draw(minic_expr(depth=depth - 1))
    if op in ("%", "/"):
        b = draw(st.sampled_from(["3", "5", "7"]))
    return f"({a} {op} {b})"


@st.composite
def minic_statement(draw, depth, fn_index):
    kind = draw(st.sampled_from(
        ["assign", "if", "loop", "call"] if depth > 0 and fn_index > 0
        else (["assign", "if", "loop"] if depth > 0 else ["assign"])))
    if kind == "assign":
        target = draw(st.sampled_from(["x", "y"]))
        return f"{target} = {draw(minic_expr())};"
    if kind == "if":
        cond = (f"{draw(minic_expr(depth=1))} "
                f"{draw(st.sampled_from(['<', '>', '==', '!=']))} "
                f"{draw(minic_expr(depth=1))}")
        then = draw(minic_statement(depth - 1, fn_index))
        if draw(st.booleans()):
            other = draw(minic_statement(depth - 1, fn_index))
            return f"if ({cond}) {{ {then} }} else {{ {other} }}"
        return f"if ({cond}) {{ {then} }}"
    if kind == "loop":
        n = draw(st.integers(1, 5))
        body = draw(minic_statement(depth - 1, fn_index))
        var = draw(st.sampled_from(["i", "j"]))
        return (f"for (long {var} = 0; {var} < {n}; "
                f"{var} = {var} + 1) {{ {body} }}")
    callee = draw(st.integers(0, fn_index - 1))
    return f"y = y + f{callee}(x + {draw(st.integers(0, 3))});"


@st.composite
def minic_program(draw):
    n_funcs = draw(st.integers(1, 3))
    funcs = []
    for i in range(n_funcs):
        n_stmts = draw(st.integers(1, 3))
        stmts = " ".join(
            draw(minic_statement(2, i)) for _ in range(n_stmts))
        funcs.append(f"""
long f{i}(long x) {{
    long y = x;
    {stmts}
    return y % 1000;
}}""")
    calls = " + ".join(
        f"f{i}({draw(st.integers(0, 9))})" for i in range(n_funcs))
    funcs.append(f"""
long main(void) {{
    long r = {calls};
    print_long(r);
    return r % 256;
}}""")
    return "\n".join(funcs)
