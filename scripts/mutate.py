"""Mutation audit of `src/kmerfab`: which changes to the code does no test notice?

    python3 scripts/mutate.py [--modules fabric pipeline ...] [--sample N]
                              [--report mutants.json]

Each mutant changes one site of one module, built from the module's AST:
- operator: an arithmetic, shift, bitwise or boolean operator swapped for a
  neighbour (`+` and `-`, `<<` and `>>`, `and` and `or`, ...), augmented
  assignments included, and `not x` read as `x`;
- comparison: `<` and `<=`, `>` and `>=`, `==` and `!=`, `is` and
  `is not`, `in` and `not in` swapped;
- constant: an int or float plus one, a bool flipped;
- statement deletion: a statement inside a function body replaced by `pass`.

`--sample N` runs N mutants per module, drawn with a fixed seed, where the
whole set (about 2,000) would take hours on two cores.

The program never runs in this checkout: each of the two workers copies the
tree to a temporary directory once and writes its mutants there, one at a
time. A mutant first runs its own module's test files
(`tests/test_*<module>.py`) with `-x`; one that survives them runs the whole
Tier-1 suite with `-x`. A mutant is killed when a test fails, the run errors,
or it outlives a timeout of several times the unmutated run. The report lists the survivors by file and line; a
survivor is either a gap in the tests or an equivalent mutant, which no test
can kill.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "kmerfab"
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                     "out", "BENCH_*.json")
MEMORY_LIMIT = 3 << 30  # address-space cap per test run: a runaway mutant fails, the host holds
# the child caps its own address space, then runs pytest on the arguments after -c
PYTEST = ("import resource, sys, pytest; "
          f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT}, {MEMORY_LIMIT})); "
          "sys.exit(pytest.main(sys.argv[1:]))")
PYTEST_ARGS = ["-q", "-x", "-p", "no:cacheprovider"]
WORKERS = 2

BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.Div: ast.Mult,
          ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
          ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr,
          ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr}
CMPOPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
          ast.In: ast.NotIn, ast.NotIn: ast.In}
BOOLOPS = {ast.And: ast.Or, ast.Or: ast.And}


@dataclass
class Mutant:
    module: str
    line: int
    kind: str  # operator, comparison, constant or statement
    change: str
    source: str  # the whole mutated module
    outcome: str = ""  # killed, timeout, survived
    by: str = ""  # the test run that killed it: "module" or "tier1"


def _segment(lines: list[str], node: ast.AST) -> tuple[int, int]:
    """node's source span as offsets into the joined lines."""
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    return (starts[node.lineno - 1] + node.col_offset,
            starts[node.end_lineno - 1] + node.end_col_offset)


def _docstrings(tree: ast.AST) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0]))
    return out


def _in_function_bodies(tree: ast.AST):
    """Every statement nested in a function body, with no def or import."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = list(fn.body)
            while stack:
                stmt = stack.pop()
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                     ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal,
                                     ast.Pass)):
                    continue
                yield stmt
                for field in ("body", "orelse", "finalbody", "handlers"):
                    stack.extend(getattr(stmt, field, []))


def mutants_of(module: str, text: str) -> list[Mutant]:
    """One mutant per site and operator: each replaces exactly the span of
    one node, so the rest of the module keeps its text."""
    tree = ast.parse(text)
    lines = text.splitlines(keepends=True)
    docs = _docstrings(tree)
    # f-strings only word messages; annotations are never evaluated (the
    # modules use `from __future__ import annotations`)
    roots = [n for n in ast.walk(tree) if isinstance(n, ast.JoinedStr)]
    roots += [getattr(n, f) for n in ast.walk(tree) for f in ("annotation", "returns")
              if getattr(n, f, None) is not None]
    skip = {id(n) for root in roots for n in ast.walk(root)}
    out: list[Mutant] = []

    def emit(node, kind, change, replacement):
        a, b = _segment(lines, node)
        source = text[:a] + replacement + text[b:]
        try:
            compile(source, module, "exec")
        except SyntaxError:
            return
        out.append(Mutant(module, node.lineno, kind, change, source))

    def swapped(node, **fields):
        new = type(node)(**{**{f: getattr(node, f) for f in node._fields}, **fields})
        return "(" + ast.unparse(new) + ")"

    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in BINOPS:
            new = BINOPS[type(node.op)]()
            emit(node, "operator", f"{type(node.op).__name__} -> {type(new).__name__}",
                 swapped(node, op=new))
        elif isinstance(node, ast.AugAssign) and type(node.op) in BINOPS:
            new = BINOPS[type(node.op)]()
            emit(node, "operator", f"{type(node.op).__name__}= -> {type(new).__name__}=",
                 ast.unparse(type(node)(target=node.target, op=new, value=node.value)))
        elif isinstance(node, ast.BoolOp):
            new = BOOLOPS[type(node.op)]()
            emit(node, "operator", f"{type(node.op).__name__} -> {type(new).__name__}",
                 swapped(node, op=new))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            emit(node, "operator", "not x -> x", "(" + ast.unparse(node.operand) + ")")
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in CMPOPS:
                    ops = list(node.ops)
                    ops[i] = CMPOPS[type(op)]()
                    emit(node, "comparison", f"{type(op).__name__} -> {type(ops[i]).__name__}",
                         swapped(node, ops=ops))
        elif isinstance(node, ast.Constant) and id(node) not in docs:
            v = node.value
            if isinstance(v, bool):
                emit(node, "constant", f"{v} -> {not v}", repr(not v))
            elif isinstance(v, (int, float)):
                emit(node, "constant", f"{v!r} -> {v + 1!r}", "(" + repr(v + 1) + ")")
    for stmt in _in_function_bodies(tree):
        if id(stmt) not in docs:
            first = ast.unparse(stmt).splitlines()[0]
            emit(stmt, "statement", f"delete `{first[:60]}`", "pass")
    out.sort(key=lambda m: (m.line, m.kind, m.change))
    return out


def test_files(tree: Path, module: str) -> list[str]:
    return sorted(str(p.relative_to(tree)) for p in (tree / "tests").glob(f"test_*{module}.py"))


def pytest_run(tree: Path, args: list[str], timeout: float) -> str:
    """"pass", "fail" or "timeout" of one pytest run in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen([sys.executable, "-c", PYTEST, *PYTEST_ARGS, *args], cwd=tree,
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return "pass" if proc.wait(timeout) == 0 else "fail"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        return "timeout"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--modules", nargs="*", help="module names under src/kmerfab (default: all)")
    ap.add_argument("--sample", type=int, help="run this many mutants per module (fixed seed)")
    ap.add_argument("--report", type=Path, help="write every mutant's outcome here as JSON")
    args = ap.parse_args(argv)

    modules = args.modules or sorted(p.stem for p in (ROOT / PACKAGE).glob("*.py")
                                     if p.stem != "__init__")
    mutants = {m: mutants_of(m, (ROOT / PACKAGE / f"{m}.py").read_text()) for m in modules}
    for m in modules:
        print(f"{m}: {len(mutants[m])} mutants", flush=True)
        if args.sample is not None and args.sample < len(mutants[m]):
            picked = random.Random(f"kmerfab-{m}").sample(mutants[m], args.sample)
            mutants[m] = sorted(picked, key=lambda x: (x.line, x.kind, x.change))

    t_start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="kmerfab-mutate-") as scratch:
        trees: queue.Queue[Path] = queue.Queue()
        for w in range(WORKERS):
            tree = Path(scratch) / f"tree{w}"
            shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
            trees.put(tree)
        tree = trees.get()
        # the unmutated runs: every test must pass, and they set the timeouts
        budget = {}
        for m in modules + ["tier1"]:
            files = [] if m == "tier1" else test_files(tree, m)
            if m != "tier1" and not files:
                sys.exit(f"no tests/test_*{m}.py for module {m}")
            t0 = time.perf_counter()
            if pytest_run(tree, files, timeout=600) != "pass":
                sys.exit(f"the unmutated tree fails {files or 'Tier-1'}")
            budget[m] = 5 * (time.perf_counter() - t0) + 30
        trees.put(tree)

        lock = threading.Lock()
        done = [0]
        total = sum(len(v) for v in mutants.values())

        def run(mutant: Mutant) -> None:
            tree = trees.get()
            path = tree / PACKAGE / f"{mutant.module}.py"
            original = path.read_text()
            try:
                path.write_text(mutant.source)
                outcome = pytest_run(tree, test_files(tree, mutant.module), budget[mutant.module])
                mutant.by = "module"
                if outcome == "pass":
                    outcome = pytest_run(tree, [], budget["tier1"])
                    mutant.by = "tier1"
            finally:
                path.write_text(original)
                trees.put(tree)
            mutant.outcome = {"pass": "survived", "fail": "killed"}.get(outcome, outcome)
            with lock:
                done[0] += 1
                if mutant.outcome == "survived":
                    print(f"[{done[0]}/{total}] SURVIVED {mutant.module}.py:{mutant.line} "
                          f"{mutant.kind}: {mutant.change}", flush=True)
                elif done[0] % 50 == 0:
                    print(f"[{done[0]}/{total}]", flush=True)

        with ThreadPoolExecutor(WORKERS) as pool:
            for future in [pool.submit(run, mt) for v in mutants.values() for mt in v]:
                future.result()
    wall = time.perf_counter() - t_start

    print(f"\n{'module':<16}{'mutants':>8}{'killed':>8}{'timeout':>8}{'survived':>9}{'kill %':>8}")
    for m in modules:
        ms = mutants[m]
        n = {o: sum(x.outcome == o for x in ms) for o in ("killed", "timeout", "survived")}
        rate = 100 * (n["killed"] + n["timeout"]) / len(ms) if ms else 100.0
        print(f"{m:<16}{len(ms):>8}{n['killed']:>8}{n['timeout']:>8}{n['survived']:>9}"
              f"{rate:>7.1f}%")
    print(f"wall {wall:.0f} s, {WORKERS} workers")
    survivors = [x for v in mutants.values() for x in v if x.outcome == "survived"]
    for x in survivors:
        print(f"survivor {x.module}.py:{x.line} {x.kind}: {x.change}")
    if args.report:
        doc = {"wall_s": wall, "workers": WORKERS, "sample": args.sample,
               "mutants": [{k: v for k, v in asdict(x).items() if k != "source"}
                           for v in mutants.values() for x in v]}
        args.report.write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
