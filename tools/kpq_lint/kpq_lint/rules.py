"""R1-R4 over the token stream of one file.

Token-level analysis is deliberately conservative: each rule matches the
specific shapes this codebase uses (documented in docs/STATIC_ANALYSIS.md
with the known blind spots). The fixture suite in tools/kpq_lint/tests
pins every shape below, good and bad.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from .lexer import LexedFile, Token
from .model import Config, Finding, in_dirs, normalize_line

# ----------------------------------------------------------------- grammar

ORDERS = ("relaxed", "consume", "acquire", "release", "acq_rel", "seq_cst")

ORDER_ANNOT_RE = re.compile(
    r"kpq-order:\s*(relaxed|consume|acquire|release|acq_rel|seq_cst)"
    r"\s+pairs-with\s+(\S.*)"
)
BOUND_ANNOT_RE = re.compile(r"kpq-bound:\s*\S")
BLOCK_ANNOT_RE = re.compile(r"kpq-block:\s*\S")
HAZARD_ANNOT_RE = re.compile(r"kpq-hazard:\s*\S")
HUBOK_ANNOT_RE = re.compile(r"kpq-hub-ok:\s*\S")

# std::atomic members whose call must name a memory_order. wait/notify are
# excluded (shared with condition_variable; R2 owns blocking waits).
ATOMIC_METHODS = frozenset(
    {
        "load",
        "store",
        "exchange",
        "compare_exchange_weak",
        "compare_exchange_strong",
        "fetch_add",
        "fetch_sub",
        "fetch_and",
        "fetch_or",
        "fetch_xor",
        "test_and_set",
        "clear",
    }
)
# Methods risky to match on arbitrary receivers: only flagged when the
# receiver is a known atomic (declared in-file or configured). `clear()`
# exists on vectors/strings and the hazard guard; `load()`/`store()` are
# atomic-only in this codebase, so they match on any receiver.
AMBIGUOUS_METHODS = frozenset({"clear"})

BLOCKING_IDENTS = frozenset(
    {
        "mutex",
        "timed_mutex",
        "recursive_mutex",
        "recursive_timed_mutex",
        "shared_mutex",
        "shared_timed_mutex",
        "condition_variable",
        "condition_variable_any",
        "lock_guard",
        "unique_lock",
        "scoped_lock",
        "shared_lock",
        "sleep_for",
        "sleep_until",
        "usleep",
        "nanosleep",
        "sem_wait",
        "sem_timedwait",
        "pthread_mutex_lock",
        "pthread_cond_wait",
        # The sanctioned continuation layer's blocking entry points: calling
        # them from a hot-path dir is what R2 exists to catch. The adapters
        # that deliberately block annotate with `kpq-block:`.
        "thread_parker",
        "park",
        "park_for",
        "park_until",
    }
)
BLOCKING_METHODS = frozenset({"wait", "wait_for", "wait_until"})

LOCK_TYPES = frozenset(
    {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
)


class FileAnalysis:
    """One file's pre-pass + the four rules."""

    def __init__(self, path: str, text: str, cfg: Config):
        self.path = path
        self.cfg = cfg
        self.lf = LexedFile(path, text)
        self.toks = self.lf.tokens
        self.findings: List[Finding] = []
        self.depth = self._brace_depths()
        (
            self.atomic_names,
            self.ptr_atomic_names,
            self.decl_lines,
        ) = self._atomic_decls()

    # ------------------------------------------------------------ helpers

    def _emit(self, rule: str, tok: Token, message: str, fixit: str = ""):
        line_text = (
            self.lf.lines[tok.line - 1] if tok.line - 1 < len(self.lf.lines)
            else ""
        )
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=tok.line,
                col=tok.col,
                message=message,
                fixit=fixit,
                norm_line=normalize_line(line_text),
            )
        )

    def _brace_depths(self) -> List[int]:
        depths = []
        d = 0
        for t in self.toks:
            if t.kind == "punct" and t.text == "}":
                d -= 1
            depths.append(d)
            if t.kind == "punct" and t.text == "{":
                d += 1
        return depths

    def _atomic_decls(self) -> Tuple[Set[str], Set[str], Set[int]]:
        """Names declared `std::atomic<...> name` (or atomic_ref) in this
        file; ptr_atomic_names additionally have a pointer template arg."""
        names: Set[str] = set()
        ptr_names: Set[str] = set()
        decl_lines: Set[int] = set()
        toks = self.toks
        for i, t in enumerate(toks):
            if t.kind != "ident" or t.text not in ("atomic", "atomic_ref"):
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "<":
                continue
            # Balance the template args.
            j = i + 1
            bal = 0
            has_ptr = False
            while j < len(toks):
                tt = toks[j].text
                if tt == "<":
                    bal += 1
                elif tt == ">":
                    bal -= 1
                    if bal == 0:
                        break
                elif tt == ">>":
                    bal -= 2
                    if bal <= 0:
                        break
                elif tt == "*":
                    has_ptr = True
                j += 1
            if j + 1 >= len(toks):
                continue
            name_tok = toks[j + 1]
            if name_tok.kind != "ident":
                continue
            # `std::atomic<T> f();` is a function; good enough to accept —
            # a stray name in the set only tightens the rule.
            names.add(name_tok.text)
            if has_ptr:
                ptr_names.add(name_tok.text)
            decl_lines.add(name_tok.line)
        return names, ptr_names, decl_lines

    def _comment(self, line: int) -> str:
        return self.lf.comment_for(line)

    # ------------------------------------------------------------- R1

    def rule_r1(self) -> None:
        if not in_dirs(self.path, self.cfg.order_dirs):
            return
        toks = self.toks
        n = len(toks)
        annotate = in_dirs(self.path, self.cfg.annotate_dirs)
        # Locals that shadow an atomic member's name (`node* next = ...`):
        # name -> stack of brace depths where a shadowing decl is live.
        shadows: Dict[str, List[int]] = {}
        for i, t in enumerate(toks):
            d = self.depth[i]
            for stack in shadows.values():
                while stack and d < stack[-1]:
                    stack.pop()
            if t.kind != "ident":
                continue
            # --- member-call accesses -------------------------------
            if (
                t.text in ATOMIC_METHODS
                and i >= 1
                and toks[i - 1].text in (".", "->")
                and i + 1 < n
                and toks[i + 1].text == "("
            ):
                recv_name = self._receiver_name(i - 1)
                recv_known = recv_name is not None and (
                    recv_name in self.atomic_names
                    or recv_name in self.cfg.known_ptr_atomics
                )
                if t.text in AMBIGUOUS_METHODS and not recv_known:
                    continue
                orders, last_order_tok = self._call_orders(i + 1)
                if not orders:
                    self._emit(
                        "R1",
                        t,
                        f"atomic `{t.text}` without an explicit memory_order "
                        "(silent seq_cst)",
                        "name the order, e.g. "
                        f"`.{t.text}(..., std::memory_order_seq_cst)`; if a "
                        "weaker order is intended, add the kpq-order "
                        "justification",
                    )
                elif annotate and any(o != "seq_cst" for o in orders):
                    self._check_order_annotation(t, orders, last_order_tok)
            # --- fences ---------------------------------------------
            elif (
                t.text == "atomic_thread_fence"
                and i + 1 < n
                and toks[i + 1].text == "("
            ):
                orders, last_order_tok = self._call_orders(i + 1)
                if not orders:
                    self._emit(
                        "R1",
                        t,
                        "atomic_thread_fence without a recognizable "
                        "memory_order",
                        "pass std::memory_order_* directly",
                    )
                elif annotate and any(o != "seq_cst" for o in orders):
                    self._check_order_annotation(t, orders, last_order_tok)
            # --- operator-form (implicit seq_cst) accesses ----------
            elif t.text in self.atomic_names and t.line not in self.decl_lines:
                nxt = toks[i + 1].text if i + 1 < n else ""
                prv = toks[i - 1].text if i >= 1 else ""
                if prv in (".", "->", "::"):
                    continue  # member of some other object
                if prv in ("*", "&", "const") or (
                    i >= 1 and toks[i - 1].kind == "ident"
                ):
                    # `node* next = ...` — a local DECLARATION shadowing the
                    # atomic member's name, not an access to it. In scope
                    # until its enclosing block closes.
                    shadows.setdefault(t.text, []).append(self.depth[i])
                    continue
                if shadows.get(t.text):
                    continue  # use of the shadowing local, not the atomic
                implicit_ops = (
                    "=",
                    "==",
                    "!=",
                    "<",
                    ">",
                    "<=",
                    ">=",
                    "++",
                    "--",
                    "+=",
                    "-=",
                    "&=",
                    "|=",
                    "^=",
                )
                if nxt in implicit_ops or prv in ("++", "--"):
                    self._emit(
                        "R1",
                        t,
                        f"operator-form access on std::atomic `{t.text}` is "
                        "an implicit seq_cst operation",
                        f"use `{t.text}.load/store/fetch_*` with an explicit "
                        "memory_order",
                    )

    def _receiver_name(self, dot_idx: int) -> Optional[str]:
        """The base identifier of the receiver chain left of `.`/`->`,
        walking back over balanced `[...]`/`(...)` groups so that
        `state_[i]->store(...)` resolves to `state_`."""
        toks = self.toks
        j = dot_idx - 1
        while j >= 0 and toks[j].text in ("]", ")"):
            closer = toks[j].text
            opener = "[" if closer == "]" else "("
            bal = 0
            while j >= 0:
                if toks[j].text == closer:
                    bal += 1
                elif toks[j].text == opener:
                    bal -= 1
                    if bal == 0:
                        break
                j -= 1
            j -= 1
        if j >= 0 and toks[j].kind == "ident":
            return toks[j].text
        return None

    def _call_orders(self, open_paren: int) -> Tuple[List[str], Optional[Token]]:
        """memory_order names inside one balanced call argument list."""
        toks = self.toks
        bal = 0
        orders: List[str] = []
        last_tok: Optional[Token] = None
        j = open_paren
        while j < len(toks):
            tt = toks[j].text
            if tt == "(":
                bal += 1
            elif tt == ")":
                bal -= 1
                if bal == 0:
                    break
            elif toks[j].kind == "ident":
                m = re.fullmatch(r"memory_order_(\w+)", tt)
                if m and m.group(1) in ORDERS:
                    orders.append(m.group(1))
                    last_tok = toks[j]
                elif (
                    tt == "memory_order"
                    and j + 2 < len(toks)
                    and toks[j + 1].text == "::"
                    and toks[j + 2].text in ORDERS
                ):
                    orders.append(toks[j + 2].text)
                    last_tok = toks[j + 2]
            j += 1
        return orders, last_tok

    def _check_order_annotation(
        self, at: Token, orders: List[str], last_order_tok: Optional[Token]
    ) -> None:
        lines = {at.line}
        if last_order_tok is not None:
            lines.add(last_order_tok.line)
        annots: List[Tuple[str, str]] = []
        for ln in lines:
            annots.extend(ORDER_ANNOT_RE.findall(self._comment(ln)))
        weakest = [o for o in orders if o != "seq_cst"]
        if not annots:
            self._emit(
                "R1",
                at,
                f"non-seq_cst atomic access ({'/'.join(orders)}) without a "
                "kpq-order justification",
                f"add `// kpq-order: {weakest[0]} pairs-with <site>` on or "
                "above this line (docs/STATIC_ANALYSIS.md)",
            )
        elif not any(a[0] in orders for a in annots):
            self._emit(
                "R1",
                at,
                f"kpq-order annotation names `{annots[0][0]}` but the access "
                f"uses {'/'.join(orders)}",
                "make the annotation match the code (or fix the code)",
            )

    # ------------------------------------------------------------- R2

    def rule_r2(self) -> None:
        if not in_dirs(self.path, self.cfg.pure_dirs):
            return
        toks = self.toks
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != "ident":
                continue
            if t.text in BLOCKING_IDENTS:
                if not BLOCK_ANNOT_RE.search(self._comment(t.line)):
                    self._emit(
                        "R2",
                        t,
                        f"blocking construct `{t.text}` in a wait-free "
                        "hot-path dir",
                        "move the blocking to the continuation layer "
                        "(src/sync/waiter_hub.hpp) or annotate the sanctioned "
                        "site: `// kpq-block: <why this may block>`",
                    )
            elif (
                t.text in BLOCKING_METHODS
                and i >= 1
                and toks[i - 1].text in (".", "->")
                and i + 1 < n
                and toks[i + 1].text == "("
            ):
                if not BLOCK_ANNOT_RE.search(self._comment(t.line)):
                    self._emit(
                        "R2",
                        t,
                        f"blocking wait `.{t.text}()` in a wait-free hot-path "
                        "dir",
                        "annotate the sanctioned site with `// kpq-block:` "
                        "or restructure onto the hub",
                    )
            elif t.text == "while" and i + 2 < n and toks[i + 1].text == "(":
                cond = toks[i + 2].text
                if cond in ("true", "1") and toks[i + 3].text == ")":
                    self._check_bound(t)
            elif (
                t.text == "for"
                and i + 3 < n
                and toks[i + 1].text == "("
                and toks[i + 2].text == ";"
                and toks[i + 3].text == ";"
            ):
                self._check_bound(t)

    def _check_bound(self, t: Token) -> None:
        if not BOUND_ANNOT_RE.search(self._comment(t.line)):
            self._emit(
                "R2",
                t,
                "unbounded loop in a wait-free hot-path dir without a "
                "kpq-bound justification",
                "state the bound: `// kpq-bound: <why each iteration "
                "implies another thread made progress>`",
            )

    # ------------------------------------------------------------- R3

    def rule_r3(self) -> None:
        if not in_dirs(self.path, self.cfg.hazard_dirs):
            return
        sources = self.ptr_atomic_names | set(self.cfg.known_ptr_atomics)
        toks = self.toks
        n = len(toks)
        for i, t in enumerate(toks):
            if (
                t.kind != "ident"
                or t.text != "load"
                or i < 2
                or toks[i - 1].text not in (".", "->")
                or toks[i - 2].text not in sources
                or i + 1 >= n
                or toks[i + 1].text != "("
            ):
                continue
            close = self._match_paren(i + 1)
            if close is None:
                continue
            # Direct deref of the freshly loaded pointer.
            if close + 1 < n and toks[close + 1].text == "->":
                if not self._hazard_ok(toks[close + 1].line, t.line):
                    self._emit(
                        "R3",
                        toks[close + 1],
                        f"dereference of raw pointer loaded from shared "
                        f"atomic `{toks[i - 2].text}` without hazard "
                        "protection",
                        "route through guard.protect() "
                        "(reclaim/hazard_pointers.hpp) or justify with "
                        "`// kpq-hazard: <why no reclamation can race>`",
                    )
                continue
            # Assigned deref: `v = NAME.load(...)` ... later `v->...`.
            var = self._assigned_var(i - 2)
            if var is None:
                continue
            self._track_deref(var, i, close, toks[i - 2].text)

    def _match_paren(self, open_idx: int) -> Optional[int]:
        bal = 0
        for j in range(open_idx, len(self.toks)):
            tt = self.toks[j].text
            if tt == "(":
                bal += 1
            elif tt == ")":
                bal -= 1
                if bal == 0:
                    return j
        return None

    def _assigned_var(self, recv_idx: int) -> Optional[str]:
        """For `<var> = NAME.load(...)`: the identifier left of the `=`."""
        j = recv_idx - 1
        toks = self.toks
        # Skip over qualifiers between var and receiver (e.g. `v = this->X`).
        while j >= 0 and toks[j].text in ("::", ".", "->", "this"):
            j -= 2
        if j < 0 or toks[j].text != "=":
            return None
        if j - 1 >= 0 and toks[j - 1].kind == "ident":
            return toks[j - 1].text
        return None

    def _track_deref(
        self, var: str, load_idx: int, close_idx: int, source: str
    ) -> None:
        toks = self.toks
        n = len(toks)
        base_depth = self.depth[load_idx]
        protected = False
        j = close_idx + 1
        while j < n and self.depth[j] >= base_depth:
            t = toks[j]
            if t.kind == "ident":
                if t.text == "protect":
                    protected = True
                elif t.text == var:
                    nxt = toks[j + 1].text if j + 1 < n else ""
                    if nxt == "=":
                        # Reassigned — but the RHS may still deref the OLD
                        # value (`p = p->next.load(...)`): scan to the `;`.
                        k = j + 2
                        while k < n and toks[k].text != ";":
                            if (
                                toks[k].text == var
                                and k + 1 < n
                                and toks[k + 1].text == "->"
                                and not protected
                                and not self._hazard_ok(
                                    toks[k].line, toks[load_idx].line
                                )
                            ):
                                self._emit(
                                    "R3",
                                    toks[k],
                                    f"`{var}` (loaded from shared atomic "
                                    f"`{source}`) dereferenced without "
                                    "hazard protection",
                                    "protect before dereference "
                                    "(guard.protect) or justify "
                                    "with `// kpq-hazard: <reason>`",
                                )
                                return
                            k += 1
                        return
                    if nxt == "->" and not protected:
                        if not self._hazard_ok(t.line, toks[load_idx].line):
                            self._emit(
                                "R3",
                                t,
                                f"`{var}` (loaded from shared atomic "
                                f"`{source}`) dereferenced without hazard "
                                "protection",
                                "protect before dereference "
                                "(guard.protect) or justify "
                                "with `// kpq-hazard: <reason>`",
                            )
                        return
            j += 1

    def _hazard_ok(self, *lines: int) -> bool:
        return any(HAZARD_ANNOT_RE.search(self._comment(ln)) for ln in lines)

    # ------------------------------------------------------------- R4

    def _is_function_decl(self, name_idx: int) -> bool:
        """`unique_lock<mutex> lk(m_);` declares a lock variable, but
        `unique_lock<mutex> lock() const {` declares a FUNCTION returning a
        lock. Disambiguate by what follows the parenthesized part: a
        variable's init ends the statement (`;`), a function signature
        continues with `{`, `const`, `noexcept`, `override`, or `->`."""
        toks = self.toks
        n = len(toks)
        if name_idx + 1 >= n or toks[name_idx + 1].text not in ("(", "{"):
            return False  # plain `lock_type name;` or `name = ...`: variable
        close = (
            self._match_paren(name_idx + 1)
            if toks[name_idx + 1].text == "("
            else None
        )
        if close is None:
            return False  # brace-init `name{...}`: variable
        nxt = toks[close + 1].text if close + 1 < n else ""
        return nxt in ("{", "const", "noexcept", "override", "->")

    def rule_r4(self) -> None:
        if not in_dirs(self.path, self.cfg.hub_dirs):
            return
        toks = self.toks
        n = len(toks)
        live_locks: List[Tuple[str, int]] = []  # (name, decl depth)
        for i, t in enumerate(toks):
            d = self.depth[i]
            while live_locks and d < live_locks[-1][1]:
                live_locks.pop()
            if t.kind != "ident":
                continue
            # Lock acquisition: `std::unique_lock<std::mutex> lk(...)` or
            # the repo idiom `auto lk = hub.lock();`.
            if t.text in LOCK_TYPES and i + 1 < n and toks[i + 1].text == "<":
                j = i + 1
                bal = 0
                while j < n:
                    if toks[j].text == "<":
                        bal += 1
                    elif toks[j].text == ">":
                        bal -= 1
                        if bal == 0:
                            break
                    j += 1
                if (
                    j + 1 < n
                    and toks[j + 1].kind == "ident"
                    and not self._is_function_decl(j + 1)
                ):
                    live_locks.append((toks[j + 1].text, self.depth[j + 1]))
                continue
            if (
                t.text == "auto"
                and i + 2 < n
                and toks[i + 1].kind == "ident"
                and toks[i + 2].text == "="
            ):
                # Scan the initializer statement for a `.lock()` call.
                j = i + 3
                while j < n and toks[j].text != ";":
                    if (
                        toks[j].text == "lock"
                        and toks[j - 1].text in (".", "->")
                        and j + 1 < n
                        and toks[j + 1].text == "("
                    ):
                        live_locks.append((toks[i + 1].text, self.depth[i]))
                        break
                    j += 1
                continue
            # Lock release: `lk.unlock()` / ownership move `std::move(lk)`.
            if (
                t.text == "unlock"
                and i >= 2
                and toks[i - 1].text in (".", "->")
            ):
                name = toks[i - 2].text
                live_locks = [lk for lk in live_locks if lk[0] != name]
                continue
            if t.text == "move" and i + 2 < n and toks[i + 1].text == "(":
                moved = toks[i + 2].text
                live_locks = [lk for lk in live_locks if lk[0] != moved]
                continue
            if not live_locks:
                continue
            # Violations while a lock is held.
            if t.text == "co_await":
                if not HUBOK_ANNOT_RE.search(self._comment(t.line)):
                    self._emit(
                        "R4",
                        t,
                        f"co_await while holding lock `{live_locks[-1][0]}` "
                        "— the frame may suspend with the lock held",
                        "release the lock before suspending (two-phase "
                        "notify, docs/ASYNC.md §5)",
                    )
            elif (
                t.text in ("resume", "destroy")
                and i >= 1
                and toks[i - 1].text in (".", "->")
                and i + 1 < n
                and toks[i + 1].text == "("
                and toks[i + 2].text == ")"
            ):
                if not HUBOK_ANNOT_RE.search(self._comment(t.line)):
                    self._emit(
                        "R4",
                        t,
                        f"coroutine `{t.text}()` while holding lock "
                        f"`{live_locks[-1][0]}` — the resumed frame may "
                        "re-enter the hub or be stack-destroyed",
                        "collect the continuation and fire it after unlock "
                        "(waiter_hub two-phase notify)",
                    )

    # ----------------------------------------------------------- driver

    def run(self) -> List[Finding]:
        self.rule_r1()
        self.rule_r2()
        self.rule_r3()
        self.rule_r4()
        self.findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return self.findings


def analyze_file(path: str, text: str, cfg: Config) -> List[Finding]:
    return FileAnalysis(path, text, cfg).run()
