"""Per-file visitor rules: R1, R2, R4, R7, R8, R10.

(R6 — no writes through shared-memory worker views — is retired with the
shared-memory channel it guarded; its ID is not reused.)

Each rule is a generator over one parsed module.  Rules are deliberately
syntactic — they match the patterns this codebase actually uses (see the
triage in DESIGN.md §11) and lean on the suppression mechanism for the
rare justified exception, rather than attempting full dataflow analysis.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from .engine import FileContext, LintConfig, file_rule
from .findings import Finding


def dotted_name(node: ast.AST) -> "str | None":
    """``np.random.default_rng`` -> that string; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _imported_names(tree: ast.Module) -> "dict[str, str]":
    """Local name -> fully qualified origin, for imports at any level."""
    origins: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                origins[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                origins[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return origins


_WALLCLOCK_CALLS = {"time.time", "time.time_ns"}
_DATETIME_ATTRS = {"now", "utcnow", "today"}


@file_rule("R1", "no wall-clock, stdlib random, or set-order iteration")
def rule_determinism(ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
    origins = _imported_names(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in _WALLCLOCK_CALLS or (
                name is not None
                and origins.get(name, "") in _WALLCLOCK_CALLS
            ):
                yield ctx.finding(
                    node, "R1",
                    f"wall-clock call '{name}()' is nondeterministic; use "
                    "time.monotonic()/perf_counter() for intervals",
                )
            elif name is not None:
                parts = name.split(".")
                if parts[-1] in _DATETIME_ATTRS and (
                    "datetime" in parts[:-1]
                    or origins.get(parts[0], "").startswith("datetime")
                ):
                    yield ctx.finding(
                        node, "R1",
                        f"wall-clock call '{name}()' is nondeterministic",
                    )
                elif (
                    parts[0] == "random"
                    and origins.get("random", "random") == "random"
                    and len(parts) > 1
                ):
                    yield ctx.finding(
                        node, "R1",
                        f"stdlib '{name}()' uses hidden global RNG state; "
                        "take a repro.rng.make_rng() generator instead",
                    )
        for it in _iterated_exprs(node):
            if _is_set_expr(it):
                yield ctx.finding(
                    it, "R1",
                    "iteration over a set is hash-order dependent; sort it "
                    "or iterate a list/tuple",
                )


def _iterated_exprs(node: ast.AST) -> "list[ast.expr]":
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, ast.comprehension):
        return [node.iter]
    return []


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


_RNG_FACTORIES = {"default_rng", "RandomState", "Generator", "PCG64"}


@file_rule("R2", "RNG construction and .seed() only inside repro.rng")
def rule_rng_discipline(ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
    if ctx.basename in config.rng_files and ctx.is_library(config):
        return
    origins = _imported_names(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is not None:
            parts = name.split(".")
            origin = origins.get(parts[0], parts[0])
            qualified = ".".join([origin] + parts[1:])
            if (
                parts[-1] in _RNG_FACTORIES
                and ("numpy" in qualified or parts[0] in {"np", "numpy"})
            ):
                yield ctx.finding(
                    node, "R2",
                    f"'{name}()' constructs an RNG outside repro.rng; use "
                    "make_rng()/spawn_rngs() so seeds stay derivable",
                )
                continue
            if origins.get(parts[0], "").endswith(
                tuple(f"random.{f}" for f in _RNG_FACTORIES)
            ):
                yield ctx.finding(
                    node, "R2",
                    f"'{name}()' constructs an RNG outside repro.rng; use "
                    "make_rng()/spawn_rngs() so seeds stay derivable",
                )
                continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "seed"
        ):
            yield ctx.finding(
                node, "R2",
                "'.seed()' rewrites RNG state in place; derive a child "
                "generator with spawn_rngs()/derive_seed() instead",
            )


_UNTYPED_RAISES = {"ValueError", "Exception"}
_BLANKET_TYPES = {"Exception", "BaseException"}


@file_rule("R4", "typed errors only; blanket excepts need justification")
def rule_error_taxonomy(ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
    if not ctx.is_library(config):
        return
    in_errors_module = ctx.basename in config.errors_files
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Raise) and not in_errors_module:
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            if isinstance(target, ast.Name) and target.id in _UNTYPED_RAISES:
                yield ctx.finding(
                    node, "R4",
                    f"raise of bare '{target.id}' bypasses the repro.errors "
                    "taxonomy; raise a ReproError subclass (they still "
                    "subclass ValueError where tests expect it)",
                )
        elif isinstance(node, ast.ExceptHandler):
            names = _handler_type_names(node.type)
            blanket = names & _BLANKET_TYPES
            reraises = any(
                isinstance(sub, ast.Raise) and sub.exc is None
                for sub in ast.walk(node)
            )
            if (
                blanket
                and not reraises
                and "pragma" not in ctx.line_text(node.lineno)
            ):
                yield ctx.finding(
                    node, "R4",
                    f"blanket 'except {sorted(blanket)[0]}' hides typed "
                    "failures; narrow it, or keep it with a '# pragma: ...' "
                    "note or a justified repro-lint suppression",
                )


def _handler_type_names(type_node: "ast.expr | None") -> "set[str]":
    if type_node is None:
        return {"BaseException"}  # bare `except:`
    exprs = (
        list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
    )
    return {e.id for e in exprs if isinstance(e, ast.Name)}


_WRITE_MODES = set("wax+")


@file_rule("R7", "record-defining modules serialize via jsonl_store only")
def rule_jsonl_schema(ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
    if not ctx.is_library(config) or "jsonl_store" in ctx.basename:
        return
    if not _defines_record_dataclass(ctx.tree):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name == "open" and _open_mode_writes(node):
            yield ctx.finding(
                node, "R7",
                "direct file write in a record-defining module; route "
                "records through repro.io.jsonl_store so headers, "
                "durability, and resume stay consistent",
            )
        elif name is not None and name.split(".")[-1] == "dump" and (
            name.split(".")[0] in {"json", "pickle"}
        ):
            yield ctx.finding(
                node, "R7",
                f"'{name}()' in a record-defining module bypasses "
                "jsonl_store's header/schema handling",
            )
        elif isinstance(node.func, ast.Attribute) and node.func.attr in {
            "write_text", "write_bytes",
        }:
            yield ctx.finding(
                node, "R7",
                f"'.{node.func.attr}()' in a record-defining module "
                "bypasses jsonl_store's header/schema handling",
            )


def _open_mode_writes(call: ast.Call) -> bool:
    mode_node: "ast.expr | None" = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode_node = kw.value
    if mode_node is None:
        return False  # default "r"
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return bool(_WRITE_MODES & set(mode_node.value))
    return True  # dynamic mode: assume the worst


def _defines_record_dataclass(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name.endswith("Record"):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = dotted_name(target) or ""
                if name.split(".")[-1] == "dataclass":
                    return True
    return False


_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict"}


@file_rule("R8", "no mutable default arguments")
def rule_mutable_defaults(ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                yield ctx.finding(
                    default, "R8",
                    f"mutable default argument in '{node.name}()' is shared "
                    "across calls; default to None and construct inside",
                )


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS and not node.args
    return False


#: The raw primitives of crash-durable publication.  ``os.replace`` alone
#: is atomic but NOT durable (the rename itself can vanish in a crash until
#: the parent directory entry is fsynced), and scattered call sites can't
#: be covered by the ``torn-rename``/``enospc`` fault sites — so both live
#: behind :mod:`repro.io.fsutil` and friends (DESIGN.md §13).
_RAW_FS_CALLS = {"os.replace", "os.rename", "os.fsync"}


@file_rule("R10", "raw os.replace/os.rename/os.fsync only inside repro.io")
def rule_fs_durability(ctx: FileContext, config: LintConfig) -> Iterator[Finding]:
    if not ctx.is_library(config) or "io" in ctx.path.parts:
        return
    origins = _imported_names(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        qualified = ".".join([origins.get(parts[0], parts[0])] + parts[1:])
        if name in _RAW_FS_CALLS or qualified in _RAW_FS_CALLS:
            yield ctx.finding(
                node, "R10",
                f"'{name}()' publishes/syncs filesystem state outside "
                "repro.io; route it through repro.io.fsutil "
                "(publish_replace/fsync_dir) so renames stay durable and "
                "the disk-fault sites stay injectable",
            )


# Shared helper for project.py: python builtins never count as project
# callees when invoked by bare name (`map(...)` is not `pool.map(...)`).
PY_BUILTINS = frozenset(dir(builtins))
