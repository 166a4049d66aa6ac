"""Per-module symbol extraction for the whole-program engine.

One parse of a module produces a :class:`ModuleSummary`: the import alias
map, every function/method with a structured **op tree** (the control-flow
skeleton the flow rules in :mod:`repro.analysis.commcheck` walk), the p2p
request posts with their binding context, and the raw lexical findings.
Summaries are plain-JSON serializable, which is what makes the engine's
content-hash incremental cache possible: an unchanged file round-trips its
summary from the cache and is never re-parsed.

The op tree is a list of nodes (plain dicts)::

    {"k": "call", "name": "comm.isend", "line": 10, "col": 4,
     "depth": 1, "lock": null}
    {"k": "if",   "line": 12, "rank": true, "arms": [[...], [...]]}
    {"k": "loop", "line": 14, "body": [...]}
    {"k": "with", "line": 16, "lock": "self._lock", "body": [...]}

``depth`` counts enclosing ``for``/``while`` loops (the RA006 convention);
``lock`` names the innermost held lock-like context manager, if any.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

JsonNode = dict[str, Any]


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(path: Path) -> str:
    """Dotted module name, walking up through ``__init__.py`` packages.

    ``src/repro/mpi/comm.py`` -> ``repro.mpi.comm`` (because ``src`` has no
    ``__init__.py``); a loose fixture file maps to its stem.
    """
    parts: list[str] = [] if path.stem == "__init__" else [path.stem]
    d = path.resolve().parent
    while (d / "__init__.py").exists():
        parts.append(d.name)
        parent = d.parent
        if parent == d:
            break
        d = parent
    return ".".join(reversed(parts)) or path.stem


def _is_rankish(test: ast.AST) -> bool:
    """Does a branch condition (lexically) depend on the MPI rank?"""
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and "rank" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and "rank" in node.attr.lower():
            return True
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "Get_rank"):
            return True
    return False


def _lock_name(expr: ast.expr) -> str | None:
    """Name of a lock-like ``with`` context, or None.

    Matches dotted tails ending in ``lock``/``mutex``; condition variables
    (``with cond:``) release while waiting and are deliberately excluded.
    """
    if isinstance(expr, ast.Call):
        expr = expr.func
    d = dotted_name(expr)
    if d is None:
        return None
    tail = d.rsplit(".", 1)[-1].lower()
    if "cond" in tail:
        return None
    if tail.endswith("lock") or tail == "mutex":
        return d
    return None


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    name: str
    line: int
    col: int
    depth: int
    lock: str | None


@dataclass(frozen=True)
class P2PPost:
    """An ``isend``/``irecv`` call and what happened to its request."""

    op: str          # "isend" | "irecv"
    recv: str        # receiver dotted path (e.g. "comm", "self.comm")
    line: int
    col: int
    ctx: str         # "discard" | "bound" | "escape"
    names: tuple[str, ...]  # bound target names (ctx == "bound")


@dataclass
class FuncInfo:
    """One function or method, with its extracted communication skeleton."""

    name: str                  # module-local qualname, e.g. "SimComm.isend"
    module: str
    path: str
    line: int
    parent: str | None = None  # enclosing function qualname (nested defs)
    cls: str | None = None
    ops: list[JsonNode] = field(default_factory=list)
    posts: list[P2PPost] = field(default_factory=list)
    loads: tuple[str, ...] = ()

    @property
    def fq(self) -> str:
        return f"{self.module}.{self.name}"

    def calls(self) -> Iterator[CallSite]:
        """Flat source-order iteration over the op tree's call nodes."""
        yield from _iter_calls(self.ops)

    def to_json(self) -> JsonNode:
        return {
            "name": self.name, "module": self.module, "path": self.path,
            "line": self.line, "parent": self.parent, "cls": self.cls,
            "ops": self.ops,
            "posts": [[p.op, p.recv, p.line, p.col, p.ctx, list(p.names)]
                      for p in self.posts],
            "loads": sorted(self.loads),
        }

    @classmethod
    def from_json(cls, obj: JsonNode) -> "FuncInfo":
        return cls(
            name=obj["name"], module=obj["module"], path=obj["path"],
            line=obj["line"], parent=obj.get("parent"), cls=obj.get("cls"),
            ops=obj.get("ops", []),
            posts=[P2PPost(op=p[0], recv=p[1], line=p[2], col=p[3],
                           ctx=p[4], names=tuple(p[5]))
                   for p in obj.get("posts", [])],
            loads=tuple(obj.get("loads", ())),
        )


def _iter_calls(nodes: list[JsonNode]) -> Iterator[CallSite]:
    for n in nodes:
        k = n["k"]
        if k == "call":
            yield CallSite(name=n["name"], line=n["line"], col=n["col"],
                           depth=n["depth"], lock=n.get("lock"))
        elif k == "if":
            for arm in n["arms"]:
                yield from _iter_calls(arm)
        elif k in ("loop", "with"):
            yield from _iter_calls(n["body"])


@dataclass
class ModuleSummary:
    """Everything the cross-file phases need from one module."""

    module: str
    path: str
    aliases: dict[str, str] = field(default_factory=dict)
    functions: list[FuncInfo] = field(default_factory=list)
    classes: dict[str, list[str]] = field(default_factory=dict)
    raw_findings: list[tuple[str, int, int, str]] = field(default_factory=list)
    noqa: dict[int, list[str]] = field(default_factory=dict)
    syntax_error: bool = False

    def to_json(self) -> JsonNode:
        return {
            "module": self.module, "path": self.path, "aliases": self.aliases,
            "functions": [f.to_json() for f in self.functions],
            "classes": self.classes,
            "raw_findings": [list(f) for f in self.raw_findings],
            "noqa": {str(k): v for k, v in self.noqa.items()},
            "syntax_error": self.syntax_error,
        }

    @classmethod
    def from_json(cls, obj: JsonNode) -> "ModuleSummary":
        return cls(
            module=obj["module"], path=obj["path"],
            aliases=dict(obj.get("aliases", {})),
            functions=[FuncInfo.from_json(f) for f in obj.get("functions", [])],
            classes={k: list(v) for k, v in obj.get("classes", {}).items()},
            raw_findings=[(f[0], int(f[1]), int(f[2]), f[3])
                          for f in obj.get("raw_findings", [])],
            noqa={int(k): list(v) for k, v in obj.get("noqa", {}).items()},
            syntax_error=bool(obj.get("syntax_error", False)),
        )


# ------------------------------------------------------------- extraction
def _collect_aliases(tree: ast.Module, module: str) -> dict[str, str]:
    """Local name -> fully-qualified dotted target, from import statements.

    Function-local imports merge into the module map: a slight
    over-approximation that keeps resolution context-free.
    """
    aliases: dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if "." in module else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    top = a.name.split(".", 1)[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = module
                for _ in range(node.level):
                    anchor = anchor.rsplit(".", 1)[0] if "." in anchor else ""
                base = f"{anchor}.{base}".strip(".") if base else anchor
            if not base:
                continue
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{base}.{a.name}"
    # `package` intentionally unused beyond level handling above.
    del package
    return aliases


class _FunctionExtractor:
    """Builds one FuncInfo's op tree, posts and load set."""

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 qualname: str, module: str, path: str,
                 parent: str | None, cls: str | None) -> None:
        self.info = FuncInfo(name=qualname, module=module, path=path,
                             line=fn.lineno, parent=parent, cls=cls)
        loads: set[str] = set()
        self._loads = loads
        self.info.ops = self._body(fn.body, depth=0, lock=None)
        self.info.loads = tuple(sorted(loads))

    # -- statement dispatch
    def _body(self, stmts: list[ast.stmt], depth: int,
              lock: str | None) -> list[JsonNode]:
        out: list[JsonNode] = []
        for s in stmts:
            if isinstance(s, (ast.For, ast.AsyncFor)):
                out.extend(self._exprs([s.iter], depth, lock))
                out.append({"k": "loop", "line": s.lineno,
                            "body": self._body(s.body, depth + 1, lock)})
                out.extend(self._body(s.orelse, depth, lock))
            elif isinstance(s, ast.While):
                out.extend(self._exprs([s.test], depth, lock))
                out.append({"k": "loop", "line": s.lineno,
                            "body": self._body(s.body, depth + 1, lock)})
                out.extend(self._body(s.orelse, depth, lock))
            elif isinstance(s, ast.If):
                out.extend(self._exprs([s.test], depth, lock))
                out.append({"k": "if", "line": s.lineno,
                            "rank": _is_rankish(s.test),
                            "arms": [self._body(s.body, depth, lock),
                                     self._body(s.orelse, depth, lock)]})
            elif isinstance(s, (ast.With, ast.AsyncWith)):
                held = lock
                names: list[str] = []
                for item in s.items:
                    ln = _lock_name(item.context_expr)
                    if ln is not None:
                        held = ln
                        names.append(ln)
                    out.extend(self._exprs([item.context_expr], depth, lock))
                out.append({"k": "with", "line": s.lineno,
                            "lock": held if names or lock else None,
                            "body": self._body(s.body, depth, held)})
            elif isinstance(s, ast.Try):
                out.append({"k": "with", "line": s.lineno, "lock": lock,
                            "body": (self._body(s.body, depth, lock)
                                     + [n for h in s.handlers
                                        for n in self._body(h.body, depth, lock)]
                                     + self._body(s.orelse, depth, lock)
                                     + self._body(s.finalbody, depth, lock))})
            elif isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                continue  # nested scopes are extracted as their own infos
            else:
                out.extend(self._stmt(s, depth, lock))
        return out

    def _stmt(self, s: ast.stmt, depth: int, lock: str | None) -> list[JsonNode]:
        nodes = self._exprs(list(ast.iter_child_nodes(s)), depth, lock)
        self._classify_posts(s)
        return nodes

    def _exprs(self, roots: list[ast.AST], depth: int,
               lock: str | None) -> list[JsonNode]:
        """Call nodes (source order) from expressions, skipping nested scopes.

        Comprehension bodies stay at the same depth — matching the lexical
        RA006 convention, which counts only ``for``/``while`` statements.
        """
        out: list[JsonNode] = []
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    break  # ast.walk has no pruning; nested defs are rare
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    self._loads.add(node.id)
                if isinstance(node, ast.Call):
                    name = dotted_name(node.func)
                    if name is not None:
                        out.append({"k": "call", "name": name,
                                    "line": node.lineno, "col": node.col_offset,
                                    "depth": depth, "lock": lock})
        out.sort(key=lambda n: (n["line"], n["col"]))
        return out

    # -- p2p binding classification
    def _classify_posts(self, s: ast.stmt) -> None:
        posts = [n for n in ast.walk(s)
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                 and n.func.attr in ("isend", "irecv")]
        if not posts:
            return
        for call in posts:
            recv = dotted_name(call.func.value) or "?"
            op = call.func.attr
            ctx, names = self._post_context(s, call)
            self.info.posts.append(P2PPost(
                op=op, recv=recv, line=call.lineno, col=call.col_offset,
                ctx=ctx, names=names))

    @staticmethod
    def _post_context(s: ast.stmt, call: ast.Call) -> tuple[str, tuple[str, ...]]:
        if isinstance(s, ast.Expr):
            if s.value is call:
                return "discard", ()
            return "escape", ()  # e.g. pending.append(comm.irecv(...))
        if isinstance(s, (ast.Assign, ast.AnnAssign)):
            targets = s.targets if isinstance(s, ast.Assign) else [s.target]
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                return "bound", (targets[0].id,)
        return "escape", ()


def _extract_functions(tree: ast.Module, module: str,
                       path: str) -> tuple[list[FuncInfo], dict[str, list[str]]]:
    functions: list[FuncInfo] = []
    classes: dict[str, list[str]] = {}

    def visit(node: ast.AST, prefix: str, parent_fn: str | None,
              cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                functions.append(_FunctionExtractor(
                    child, qual, module, path, parent_fn, cls).info)
                visit(child, f"{qual}.", qual, cls)
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}{child.name}"
                classes[qual] = [
                    n.name for n in child.body
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
                visit(child, f"{qual}.", parent_fn, qual)

    visit(tree, "", None, None)
    return functions, classes


def extract_module(path: Path, source: str, tree: ast.Module,
                   raw_findings: list[tuple[str, int, int, str]],
                   noqa: dict[int, set[str]]) -> ModuleSummary:
    """Build the cacheable summary for one parsed module."""
    module = module_name_for(path)
    functions, classes = _extract_functions(tree, module, str(path))
    return ModuleSummary(
        module=module, path=str(path),
        aliases=_collect_aliases(tree, module),
        functions=functions, classes=classes,
        raw_findings=raw_findings,
        noqa={line: sorted(codes) for line, codes in noqa.items()},
    )
