"""Project provenance rules and package-wide exception safety.

* **GRIT-F003** — config provenance: every config dataclass field must
  be read outside ``config.py`` (directly or through an externally
  used config method), and every ``GRIT_*`` env var must be read via
  ``os.environ`` *and* documented in ``config.py``.
* **GRIT-F004** — CLI provenance: every flag a subcommand parses must
  be read by its handler, and every subcommand must be dispatched.
* **GRIT-F005** — exception safety in every module: no swallowed
  ``BaseException``, no pass-only broad handlers, no bare ``open()``
  outside a ``with`` block.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.engine import FileRule, ProjectRule, rule
from repro.lint.findings import Finding
from repro.lint.symbols import ModuleInfo, SymbolTable

_ENV_VAR_PATTERN = re.compile(r"^GRIT_[A-Z0-9_]+$")


@rule
class ConfigProvenanceRule(ProjectRule):
    """Every config knob must be consumed; env vars must round-trip."""

    rule_id = "GRIT-F003"
    description = (
        "every config dataclass field must be read outside config.py "
        "(directly or via an externally used config method), and every "
        "GRIT_* env var must be read via os.environ and documented in "
        "config.py"
    )
    hint = "wire the knob into the core, or delete it"

    _CONFIG_PATH = "config.py"

    def check_project(self, symbols: SymbolTable) -> Iterator[Finding]:
        info = symbols.module(self._CONFIG_PATH)
        if info is not None:
            yield from self._check_fields(symbols, info)
        yield from self._check_env_vars(symbols, info)

    # -- dataclass fields ---------------------------------------------

    def _check_fields(
        self, symbols: SymbolTable, info: ModuleInfo
    ) -> Iterator[Finding]:
        outside = {
            attr
            for attr, sites in symbols.attribute_loads().items()
            if any(rel != self._CONFIG_PATH for rel, _ in sites)
        }
        internal_reads = self._internal_reads(info)
        read_internally = self._closure(internal_reads, outside)
        for class_name, field, line in self._dataclass_fields(info):
            if field in outside or field in read_internally:
                continue
            yield Finding(
                rule_id=self.rule_id,
                severity=self.severity,
                path=info.relpath,
                line=line,
                message=(
                    f"config field {class_name}.{field} is never read "
                    "outside config.py: the knob is dead"
                ),
                hint=self.hint,
            )

    def _dataclass_fields(
        self, info: ModuleInfo
    ) -> List[Tuple[str, str, int]]:
        fields: List[Tuple[str, str, int]] = []
        for node in info.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_dataclass(node):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                target = stmt.target
                if not isinstance(target, ast.Name):
                    continue
                if target.id.startswith("_"):
                    continue
                if self._is_classvar(stmt.annotation):
                    continue
                fields.append((node.name, target.id, stmt.lineno))
        return fields

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            candidate = decorator
            if isinstance(candidate, ast.Call):
                candidate = candidate.func
            name = None
            if isinstance(candidate, ast.Name):
                name = candidate.id
            elif isinstance(candidate, ast.Attribute):
                name = candidate.attr
            if name == "dataclass":
                return True
        return False

    @staticmethod
    def _is_classvar(annotation: ast.expr) -> bool:
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id == "ClassVar"
        if isinstance(node, ast.Attribute):
            return node.attr == "ClassVar"
        return False

    @staticmethod
    def _internal_reads(info: ModuleInfo) -> Dict[str, Set[str]]:
        """``method -> self attributes it reads`` inside config.py."""
        reads: Dict[str, Set[str]] = {}
        for node in info.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                attrs = {
                    sub.attr
                    for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and isinstance(sub.ctx, ast.Load)
                }
                reads.setdefault(stmt.name, set()).update(attrs)
        return reads

    @staticmethod
    def _closure(
        internal_reads: Dict[str, Set[str]], outside: Set[str]
    ) -> Set[str]:
        """Fields read by config methods that are themselves used.

        ``__post_init__`` validation and other dunders never count as
        consumption — a knob that is only validated is still dead.
        """
        visible = {
            name
            for name in internal_reads
            if not name.startswith("_") and name in outside
        }
        read: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name in sorted(visible):
                for attr in internal_reads.get(name, ()):
                    if attr not in read:
                        read.add(attr)
                        changed = True
                    if (
                        attr in internal_reads
                        and not attr.startswith("_")
                        and attr not in visible
                    ):
                        visible.add(attr)
                        changed = True
        return read

    # -- GRIT_* environment variables ---------------------------------

    def _check_env_vars(
        self, symbols: SymbolTable, config: ModuleInfo | None
    ) -> Iterator[Finding]:
        occurrences: Dict[str, Tuple[str, int]] = {}
        for info in symbols.iter_modules():
            for node in ast.walk(info.tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _ENV_VAR_PATTERN.match(node.value)
                ):
                    occurrences.setdefault(
                        node.value, (info.relpath, node.lineno)
                    )
        if not occurrences:
            return
        read_vars = self._environ_reads(symbols)
        config_source = config.source if config is not None else ""
        for name in sorted(occurrences):
            path, line = occurrences[name]
            if name not in read_vars:
                yield Finding(
                    rule_id=self.rule_id,
                    severity=self.severity,
                    path=path,
                    line=line,
                    message=(
                        f"env var {name} is referenced but never read "
                        "via os.environ: it cannot influence anything"
                    ),
                    hint="read it with os.environ.get, or delete it",
                )
            elif name not in config_source:
                yield Finding(
                    rule_id=self.rule_id,
                    severity=self.severity,
                    path=path,
                    line=line,
                    message=(
                        f"env var {name} does not round-trip through "
                        "config.py: document it next to the config "
                        "flag it mirrors"
                    ),
                    hint="mention the variable in config.py",
                )

    @staticmethod
    def _environ_reads(symbols: SymbolTable) -> Set[str]:
        """Env-var names passed to os.getenv / os.environ reads."""
        read: Set[str] = set()
        for info in symbols.iter_modules():
            constants: Dict[str, str] = {}
            for node in info.tree.body:
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Constant
                ):
                    value = node.value.value
                    if isinstance(value, str):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                constants[target.id] = value
            for node in ast.walk(info.tree):
                key: ast.expr | None = None
                if isinstance(node, ast.Call):
                    func = node.func
                    if not isinstance(func, ast.Attribute):
                        continue
                    is_getenv = (
                        func.attr == "getenv"
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "os"
                    )
                    is_environ_get = (
                        func.attr == "get"
                        and isinstance(func.value, ast.Attribute)
                        and func.value.attr == "environ"
                    )
                    if (is_getenv or is_environ_get) and node.args:
                        key = node.args[0]
                elif isinstance(node, ast.Subscript):
                    value = node.value
                    if (
                        isinstance(value, ast.Attribute)
                        and value.attr == "environ"
                    ):
                        key = node.slice
                if key is None:
                    continue
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    read.add(key.value)
                elif isinstance(key, ast.Name) and key.id in constants:
                    read.add(constants[key.id])
        return read


@rule
class CliProvenanceRule(ProjectRule):
    """Every parsed CLI flag must be read by its subcommand handler."""

    rule_id = "GRIT-F004"
    description = (
        "every flag a CLI subcommand parses must be read by its "
        "handler (directly or through helpers it passes args to), and "
        "every subcommand must be dispatched in main()"
    )
    hint = "read the flag in the handler, or delete the argument"

    _CLI_PATH = "cli.py"

    def check_project(self, symbols: SymbolTable) -> Iterator[Finding]:
        info = symbols.module(self._CLI_PATH)
        if info is None:
            return
        functions = {
            node.name: node
            for node in info.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        flags, parser_lines = self._collect_flags(functions)
        handlers = self._collect_handlers(functions)
        for cmd in sorted(parser_lines):
            if cmd not in handlers:
                yield Finding(
                    rule_id=self.rule_id,
                    severity=self.severity,
                    path=info.relpath,
                    line=parser_lines[cmd],
                    message=(
                        f"subcommand {cmd!r} is parsed but never "
                        "dispatched in main()"
                    ),
                    hint="dispatch the subcommand, or delete it",
                )
                continue
            handler, arg_params = handlers[cmd]
            reads, opaque = self._handler_reads(
                functions, handler, arg_params
            )
            if opaque:
                continue  # handler reads args dynamically; trust it
            for dest, line in flags.get(cmd, ()):
                if dest in reads:
                    continue
                yield Finding(
                    rule_id=self.rule_id,
                    severity=self.severity,
                    path=info.relpath,
                    line=line,
                    message=(
                        f"flag --{dest.replace('_', '-')} of "
                        f"subcommand {cmd!r} is parsed but its handler "
                        f"{handler}() never reads args.{dest}"
                    ),
                    hint=self.hint,
                )

    def _collect_flags(
        self, functions: Dict[str, ast.FunctionDef]
    ) -> Tuple[Dict[str, List[Tuple[str, int]]], Dict[str, int]]:
        flags: Dict[str, List[Tuple[str, int]]] = {}
        parser_lines: Dict[str, int] = {}
        parser_vars: Dict[str, Dict[str, str]] = {}
        helper_flags: Dict[
            Tuple[str, str], List[Tuple[str, int]]
        ] = {}
        for fname, fnode in functions.items():
            var_cmd: Dict[str, str] = {}
            params = {
                a.arg
                for a in (
                    *fnode.args.posonlyargs,
                    *fnode.args.args,
                    *fnode.args.kwonlyargs,
                )
            }
            for node in ast.walk(fnode):
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    value = node.value
                elif isinstance(node, ast.Expr):
                    value = node.value
                if not isinstance(value, ast.Call):
                    continue
                func = value.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr == "add_parser"
                    and value.args
                    and isinstance(value.args[0], ast.Constant)
                    and isinstance(value.args[0].value, str)
                ):
                    continue
                cmd = value.args[0].value
                parser_lines.setdefault(cmd, value.lineno)
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            var_cmd[target.id] = cmd
            parser_vars[fname] = var_cmd
            for node in ast.walk(fnode):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr == "add_argument"
                    and isinstance(func.value, ast.Name)
                ):
                    continue
                dest = self._argument_dest(node)
                if dest is None:
                    continue
                owner = func.value.id
                if owner in var_cmd:
                    flags.setdefault(var_cmd[owner], []).append(
                        (dest, node.lineno)
                    )
                elif owner in params:
                    helper_flags.setdefault((fname, owner), []).append(
                        (dest, node.lineno)
                    )
        # Helper functions (``_add_x_arguments(parser)``) attribute
        # their flags to whichever subcommand parser they are passed.
        for fname, fnode in functions.items():
            var_cmd = parser_vars[fname]
            for node in ast.walk(fnode):
                if not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Name):
                    continue
                helper = functions.get(node.func.id)
                if helper is None:
                    continue
                helper_params = [
                    a.arg
                    for a in (
                        *helper.args.posonlyargs,
                        *helper.args.args,
                    )
                ]
                for index, arg in enumerate(node.args):
                    if not isinstance(arg, ast.Name):
                        continue
                    if arg.id not in var_cmd:
                        continue
                    if index >= len(helper_params):
                        continue
                    key = (helper.name, helper_params[index])
                    for dest, line in helper_flags.get(key, ()):
                        flags.setdefault(var_cmd[arg.id], []).append(
                            (dest, line)
                        )
        return flags, parser_lines

    @staticmethod
    def _argument_dest(node: ast.Call) -> str | None:
        for kw in node.keywords:
            if kw.arg == "dest" and isinstance(kw.value, ast.Constant):
                value = kw.value.value
                if isinstance(value, str):
                    return value
        for arg in node.args:
            if not (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
            ):
                continue
            text = arg.value
            if text.startswith("--"):
                return text.lstrip("-").replace("-", "_")
            if text.startswith("-"):
                continue  # short option alone; argparse rejects these
            return text.replace("-", "_")
        return None

    @staticmethod
    def _collect_handlers(
        functions: Dict[str, ast.FunctionDef],
    ) -> Dict[str, Tuple[str, List[str]]]:
        """``cmd -> (handler name, handler params bound to args)``."""
        main = functions.get("main")
        if main is None:
            return {}
        handlers: Dict[str, Tuple[str, List[str]]] = {}
        for node in ast.walk(main):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if not (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Attribute)
                and test.left.attr == "command"
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and len(test.comparators) == 1
                and isinstance(test.comparators[0], ast.Constant)
            ):
                continue
            cmd = test.comparators[0].value
            if not isinstance(cmd, str):
                continue
            for sub in ast.walk(ast.Module(body=node.body, type_ignores=[])):
                if not isinstance(sub, ast.Call):
                    continue
                if not isinstance(sub.func, ast.Name):
                    continue
                handler = functions.get(sub.func.id)
                if handler is None:
                    continue
                params = [
                    a.arg
                    for a in (
                        *handler.args.posonlyargs,
                        *handler.args.args,
                    )
                ]
                bound = [
                    params[index]
                    for index, arg in enumerate(sub.args)
                    if isinstance(arg, ast.Name)
                    and arg.id == "args"
                    and index < len(params)
                ]
                handlers[cmd] = (handler.name, bound)
                break
        return handlers

    @staticmethod
    def _handler_reads(
        functions: Dict[str, ast.FunctionDef],
        handler: str,
        arg_params: List[str],
    ) -> Tuple[Set[str], bool]:
        """Attributes of ``args`` the handler (transitively) reads."""
        reads: Set[str] = set()
        opaque = False
        stack = [(handler, param) for param in arg_params]
        visited: Set[Tuple[str, str]] = set()
        while stack:
            fname, param = stack.pop()
            if (fname, param) in visited:
                continue
            visited.add((fname, param))
            fnode = functions.get(fname)
            if fnode is None:
                continue
            for node in ast.walk(fnode):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == param
                ):
                    reads.add(node.attr)
                elif isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Name):
                        if func.id == "vars" and any(
                            isinstance(a, ast.Name) and a.id == param
                            for a in node.args
                        ):
                            opaque = True
                        if func.id == "getattr" and node.args and (
                            isinstance(node.args[0], ast.Name)
                            and node.args[0].id == param
                            and len(node.args) > 1
                            and not isinstance(
                                node.args[1], ast.Constant
                            )
                        ):
                            opaque = True
                        callee = functions.get(func.id)
                        if callee is not None:
                            callee_params = [
                                a.arg
                                for a in (
                                    *callee.args.posonlyargs,
                                    *callee.args.args,
                                )
                            ]
                            for index, arg in enumerate(node.args):
                                if (
                                    isinstance(arg, ast.Name)
                                    and arg.id == param
                                    and index < len(callee_params)
                                ):
                                    stack.append(
                                        (
                                            callee.name,
                                            callee_params[index],
                                        )
                                    )
                            for kw in node.keywords:
                                if (
                                    isinstance(kw.value, ast.Name)
                                    and kw.value.id == param
                                    and kw.arg is not None
                                ):
                                    stack.append((callee.name, kw.arg))
        return reads, opaque


@rule
class WorkerSafetyRule(FileRule):
    """Exception safety everywhere a sweep worker could run."""

    rule_id = "GRIT-F005"
    description = (
        "no code may swallow BaseException, use pass-only broad "
        "handlers, or open file handles outside a with block: in a "
        "sweep worker each one turns a failed run into a clean exit"
    )
    hint = (
        "catch Exception (re-raise BaseException after reporting), "
        "handle specific errors, and use `with open(...)`"
    )

    def visit_Module(
        self, node: ast.Module, module: ModuleInfo
    ) -> Iterator[Finding]:
        managed = {
            id(item.context_expr)
            for sub in ast.walk(node)
            if isinstance(sub, (ast.With, ast.AsyncWith))
            for item in sub.items
        }
        yield from self._check_scope(node, "", module, managed)

    def _check_scope(
        self, node: ast.AST, qualname: str, module: ModuleInfo,
        managed: Set[int],
    ) -> Iterator[Finding]:
        """Walk ``node`` depth-first, tracking the enclosing qualname."""
        for child in ast.iter_child_nodes(node):
            inner = qualname
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                inner = (
                    f"{qualname}.{child.name}" if qualname else child.name
                )
            elif isinstance(child, ast.ExceptHandler):
                yield from self._check_handler(module, qualname, child)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "open"
                and id(child) not in managed
            ):
                yield self.finding(
                    module,
                    child,
                    f"open() outside a with block in "
                    f"{_where(qualname)}: the handle leaks when the "
                    "error path unwinds",
                    hint="use `with open(...) as handle:`",
                )
            yield from self._check_scope(child, inner, module, managed)

    def _check_handler(
        self, module: ModuleInfo, qualname: str,
        handler: ast.ExceptHandler,
    ) -> Iterator[Finding]:
        names = self._handler_names(handler.type)
        if names is None:
            return  # bare except is GRIT-H002's finding
        broad = {"Exception", "BaseException"} & names
        if "BaseException" in names and not any(
            isinstance(sub, ast.Raise) for sub in ast.walk(handler)
        ):
            yield self.finding(
                module,
                handler,
                f"{_where(qualname)} swallows BaseException without "
                "re-raising: cancellation (KeyboardInterrupt/SystemExit) "
                "dies here and a worker reports a clean exit",
                hint=(
                    "catch Exception, or re-raise after reporting "
                    "the failure"
                ),
            )
        elif broad and self._is_pass_only(handler.body):
            yield self.finding(
                module,
                handler,
                f"{_where(qualname)} silently swallows "
                f"{sorted(broad)[0]}: the error path drops the failure "
                "on the floor",
                hint=(
                    "name the specific exceptions the code can "
                    "actually handle"
                ),
            )

    @staticmethod
    def _handler_names(node: ast.expr | None) -> Set[str] | None:
        if node is None:
            return None
        candidates = (
            node.elts if isinstance(node, ast.Tuple) else [node]
        )
        names: Set[str] = set()
        for candidate in candidates:
            if isinstance(candidate, ast.Name):
                names.add(candidate.id)
            elif isinstance(candidate, ast.Attribute):
                names.add(candidate.attr)
        return names

    @staticmethod
    def _is_pass_only(body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue
            return False
        return True


def _where(qualname: str) -> str:
    return f"{qualname}()" if qualname else "module-level code"
