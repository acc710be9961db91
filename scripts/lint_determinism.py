#!/usr/bin/env python3
"""hoplite-sa: scope-aware static analysis of the determinism contract.

The simulator promises bit-reproducible runs from identical inputs, and the
sharded engine adds a second contract on top: per-domain state is confined to
its domain, and an engine domain never schedules into another (every
Simulator checks that at run time), so shards share nothing. Both contracts
die quietly — one range-for over a hash map, one wall-clock read two calls
deep, one by-reference lambda capture outliving its frame — so this
analyzer enforces them statically, with no clang tooling dependency (pure
stdlib Python): a real tokenizer, a scope/brace tracker and a per-TU symbol
table feed a file-local + cross-file call graph over the tree.

Line rules (local, regex-over-stripped-lines)
---------------------------------------------
  unordered-iter     Iterating an unordered container (range-for or explicit
                     .begin() loop) in sim-affecting code. Iteration order is
                     a hash-table accident. Iterate via det::SortedKeys /
                     det::Map / det::Set (src/common/det.h is the sanctioned
                     home and is exempt: it sorts before exposing order).
  nondet-source      Wall clocks and ambient randomness (std::rand, srand,
                     time(), std::chrono::{system,steady,high_resolution}
                     clocks, std::random_device). All simulation randomness
                     must flow through the seeded PRNG in src/common/rng.h;
                     all simulation time through sim::Engine::Now().
  pointer-key        std::map/std::set keyed by a pointer type: the ordering
                     is the allocator's address layout. Key by an id.
  check-side-effect  Mutation inside a HOPLITE_CHECK / HOPLITE_CHECK_* /
                     HOPLITE_AUDIT condition. Audit conditions compile out of
                     release builds, so a side effect there forks behavior
                     between builds.
  layering           An #include that violates the src/ layer DAG (common <
                     sim/store < net < directory < core < baselines < apps <
                     workload), or any file in a src/ directory the DAG does
                     not list (its includes could not be checked).
  shared-mutable     Threading primitives outside the sanctioned owners (the
                     event engine, the bench --jobs pool). Shards share no
                     state: each engine domain runs on one shard only. The
                     event engine is the sharded engine's worker pool plus
                     the Simulator's thread_local running-engine marker,
                     which backs its cross-domain check.

Scope-aware rules (symbol table + cross-file call graph)
--------------------------------------------------------
  nondet-taint       Transitive determinism taint. Any function whose body
                     (transitively, through the call graph) reaches an
                     unwaived nondeterminism source is tainted; every call to
                     a tainted function from sim-affecting code is flagged,
                     with the taint chain in the message. A waived source
                     (allow / allow-file on the source line or file) does not
                     taint: the waiver asserts the wall-clock read is the
                     payload (bench wall rows), so no taint flows to callers.
                     Per-file symbol summaries are cached (--summary-dir),
                     keyed by content hash, so the cross-file pass is
                     incremental: unchanged files are never re-parsed.
  capture-escape     Scheduled-callback capture escape. Every lambda passed
                     directly to a Schedule/Then-family sink (ScheduleAt,
                     ScheduleAfter, Then, OnError, OnSettled) is checked:
                     by-reference captures ([&], [&x]) and raw `this`
                     captures outlive the current statement by construction —
                     the callback fires from the event loop. They are legal
                     only when provably safe:
                       * the enclosing class is a declared engine-lifetime
                         owner —  // hoplite-sa: owner(<Class>) -- <reason>
                         on/above the class declaration — meaning instances
                         outlive every event they schedule; or
                       * the enclosing function drains the engine in the same
                         frame (it calls .Run() on an engine), so every
                         captured local outlives every scheduled callback.
                     Everything else is the PR4/PR5 use-after-free bug class
                     and fails the lint. Applies to src/ (tests and benches
                     drive the engine from their own frame).
  domain-confinement Domain-confined state. A class annotated
                     HOPLITE_DOMAIN_CONFINED (src/common/annotations.h; zero
                     codegen) is owned by the domain of its declaring
                     directory (src/directory, src/net, src/store). Two
                     checks:
                       * presence: every top-level `class` in those
                         directories must be annotated HOPLITE_DOMAIN_CONFINED
                         or declared a value type
                         (// hoplite-sa: value-type(<Class>) -- <reason>);
                       * touches: a non-const method of a confined class may
                         only be called (receiver-typed via the symbol table)
                         from its own domain, from the owning composition
                         layer (src/core, which runs entirely on the owning
                         domain's engine), from inside a lambda passed to a
                         Schedule/Then sink (the callback executes on the
                         owning domain), or through a method annotated
                         // hoplite-sa: mailbox -- <reason> (the sanctioned
                         cross-domain surface, e.g. Fabric::Send).
                     Applies to src/; tests/benches own their fixtures
                     single-domain.

Waivers and annotations
-----------------------
A violation is waived by a justified annotation on the same line or in the
contiguous comment block directly above it:

    // hoplite-sa: allow(<rule>) -- <reason>

(the legacy `hoplite-lint:` prefix is accepted everywhere). A whole file opts
out of one rule with allow-file(<rule>). Reasons are mandatory; the total
waiver count is budgeted (--max-waivers, default 10). The ownership
annotations — owner(<Class>), value-type(<Class>), mailbox — are not waivers
and not budgeted: they are the contract's vocabulary, but their reasons are
mandatory too.

Exit status: 0 clean, 1 violations (or budget/reason failures), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from pathlib import Path

MODEL_VERSION = 10  # bump to invalidate --summary-dir caches

LINE_RULES = (
    "unordered-iter",
    "nondet-source",
    "pointer-key",
    "check-side-effect",
    "layering",
    "shared-mutable",
)
SA_RULES = (
    "nondet-taint",
    "capture-escape",
    "domain-confinement",
)
RULES = LINE_RULES + SA_RULES

# Layer DAG: each src/<dir> may include itself plus these. bench/, tests/ and
# examples/ sit above the whole library and may include anything.
LAYERS = {
    "common": set(),
    "cache": {"common"},
    "sim": {"common"},
    "qos": {"common"},
    "store": {"common", "cache"},
    "net": {"common", "cache", "sim", "qos"},
    "directory": {"common", "cache", "sim", "net", "store", "qos"},
    "core": {"common", "cache", "sim", "net", "store", "directory", "qos"},
    "baselines": {"common", "cache", "sim", "net", "store", "directory", "core", "qos"},
    "apps": {"common", "cache", "sim", "net", "store", "directory", "core", "baselines",
             "qos"},
    "workload": {"common", "cache", "sim", "net", "store", "directory", "core", "baselines",
                 "apps", "qos"},
}

# The one sanctioned randomness implementation may name the primitives it wraps.
RNG_HOME = "src/common/rng.h"
# The sorted-container wrappers are the sanctioned deterministic-iteration
# home: they iterate their unordered internals only to sort, so the exposed
# order is deterministic by construction (verified by det_test).
DET_HOME = "src/common/det.h"

# The only files allowed to own threads or thread-shared state: the event
# engine (simulator.h's thread_local running-engine marker, which backs the
# cross-domain check, and the sharded engine's worker pool) and the bench
# --jobs pool.
THREADING_HOMES = {
    "src/sim/simulator.h",
    "src/sim/sharded_simulator.h",
    "src/sim/sharded_simulator.cc",
    "bench/bench_main.cc",
}

# Directories whose top-level classes hold domain state and must be annotated
# HOPLITE_DOMAIN_CONFINED (or declared value types).
CONFINED_DIRS = ("cache", "directory", "net", "qos", "store")
# Layers whose code executes on the owning domain's engine by construction:
# src/core composes each cluster onto one domain and runs only as event
# callbacks there, so it is the owning layer for all three confined domains.
# src/cache classes are owned by the store/directory that embeds them, so the
# owning domains' layers (plus core) are their sanctioned callers.
CONFINED_OWNER_LAYERS = {
    "cache": {"store", "directory", "core"},
    "directory": {"core"},
    "net": {"core"},
    # QoS state machines live inside the layer that embeds them: token
    # buckets in src/core clients, WFQ/AQM engines in the src/net fabric.
    "qos": {"net", "core"},
    "store": {"core"},
}

# Schedule/Then-family sinks: a lambda passed here is executed later, from the
# event loop, so its captures outlive the current statement.
SINKS = {"ScheduleAt", "ScheduleAfter", "Then", "OnError", "OnSettled"}

CONFINED_MACRO = "HOPLITE_DOMAIN_CONFINED"

UNORDERED_DECL = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<[^;{}]*?>\s*&?\s*(\w+)\s*(?:;|=|\{|\))"
)
RANGE_FOR = re.compile(r"\bfor\s*\(\s*(?:const\s+)?[^;()]*?:\s*(?:\w+\.|\w+->)?(\w+)\s*\)")
ITER_FOR = re.compile(r"\bfor\s*\([^;]*=\s*(\w+)\.(?:c?begin)\s*\(")
NONDET = re.compile(
    r"\bstd::rand\b|\bsrand\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b|\brandom_device\b"
)
POINTER_KEY = re.compile(r"\bstd::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*")
SHARED_MUTABLE = re.compile(
    r"\bstd::(?:jthread|thread\b|mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|condition_variable(?:_any)?|atomic\w*|async\s*\(|future|shared_future|promise"
    r"|barrier|latch|counting_semaphore|binary_semaphore|stop_token|this_thread"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock|call_once|once_flag)"
    r"|\bthread_local\b"
)
CHECK_MACRO = re.compile(r"\bHOPLITE_(?:CHECK(?:_(?:EQ|NE|LT|LE|GT|GE))?|AUDIT)\s*\(")
SIDE_EFFECT = re.compile(
    r"\+\+|--|(?<![=!<>])=(?![=])"
    r"|\.(?:pop_front|pop_back|pop|erase|insert|push_front|push_back|emplace|clear)\s*\("
)
INCLUDE = re.compile(r'^\s*#include\s+"([^"]+)"')
PREFIX = r"//\s*hoplite-(?:lint|sa):\s*"
WAIVER = re.compile(PREFIX + r"allow\((\w[\w-]*)\)\s*(?:--|—)?\s*(.*)")
FILE_WAIVER = re.compile(PREFIX + r"allow-file\((\w[\w-]*)\)\s*(?:--|—)?\s*(.*)")
OWNER_ANN = re.compile(PREFIX + r"owner\((\w+)\)\s*(?:--|—)?\s*(.*)")
VALUE_ANN = re.compile(PREFIX + r"value-type\((\w+)\)\s*(?:--|—)?\s*(.*)")
MAILBOX_ANN = re.compile(PREFIX + r"mailbox\s*(?:--|—)?\s*(.*)")
EXPECT = re.compile(r"//\s*expect-lint:\s*(\w[\w-]*)")

# Receiver-type bindings for the confinement check: `net::Fabric& net_;`,
# `const store::LocalStore& st = ...`, `ObjectDirectory* dir`, params. House
# style: types are UpperCamel, variables lower_snake.
BIND = re.compile(
    r"\b(?:const\s+)?(?:[A-Za-z_]\w*::)*([A-Z]\w*)\s*(?:<[\w:,\s<>*&]*>)?\s*"
    r"[&*]{0,2}\s+([a-z_]\w*)\s*(?:[;={(,)]|$)"
)


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and the contents of string/char literals so rule
    regexes cannot fire on prose or quoted text."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

MULTI_PUNCT = ("::", "->", "++", "--", "<<", ">>", "&&", "||", "==", "!=", "<=", ">=")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Lexes C++ into (kind, text, line) tokens, kind in {id, num, str, chr,
    punct}. Comments and preprocessor lines are dropped (annotations are read
    from raw lines; #includes by the layering line rule)."""
    toks: list[tuple[str, str, int]] = []
    i, n, line = 0, len(text), 1
    bol = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            bol = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "#" and bol:
            while i < n:
                j = text.find("\n", i)
                if j < 0:
                    i = n
                    break
                cont = text[i:j].rstrip().endswith("\\")
                line += 1
                i = j + 1
                if not cont:
                    break
            bol = True
            continue
        bol = False
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            seg = text[i : (n if j < 0 else j + 2)]
            line += seg.count("\n")
            i = n if j < 0 else j + 2
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            # Raw string literal: R"tag(...)tag"
            if j < n and text[j] == '"' and word.endswith("R"):
                k = text.find("(", j)
                tag = text[j + 1 : k]
                close = ")" + tag + '"'
                e = text.find(close, k)
                e = n if e < 0 else e + len(close)
                line += text[i:e].count("\n")
                toks.append(("str", "", line))
                i = e
                continue
            toks.append(("id", word, line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._'" or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(("num", text[i:j], line))
            i = j
            continue
        if c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            toks.append(("str" if quote == '"' else "chr", "", line))
            i = j + 1
            continue
        two = text[i : i + 2]
        if two in MULTI_PUNCT:
            toks.append(("punct", two, line))
            i += 2
            continue
        toks.append(("punct", c, line))
        i += 1
    return toks


# ---------------------------------------------------------------------------
# Annotation / waiver placement
# ---------------------------------------------------------------------------

def governed_lines(raw_lines: list[str], regex: re.Pattern) -> dict[str, list]:
    """Maps annotations to the code line they govern: the line itself when
    the annotation shares it with code, else the first non-comment line below
    the contiguous comment block (equivalently: a finding is governed by an
    annotation on its own line or in the comment block directly above)."""
    out: dict[str, list] = {}
    total = len(raw_lines)
    for idx, raw in enumerate(raw_lines, 1):
        m = regex.search(raw)
        if not m:
            continue
        if raw.lstrip().startswith("//"):
            j = idx  # 0-based index of the next line
            while j < total and raw_lines[j].lstrip().startswith("//"):
                j += 1
            target = j + 1
        else:
            target = idx
        out.setdefault(str(target), []).append([idx] + list(m.groups()))
    return out


KEYWORD_NON_CALLS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "decltype",
    "catch", "throw", "new", "delete", "co_return", "co_await", "co_yield",
    "static_assert", "case", "default", "else", "do", "goto", "assert",
    "noexcept", "and", "or", "not", "typeid", "requires",
}

LAMBDA_BLOCK_PREV = {")", "]"}


class Parser:
    """Single-pass scope/brace tracker building the per-TU symbol table:
    classes (with method constness + mailbox flags), function definitions
    (with their call lists, engine-drain flag and line span), lambdas passed
    to Schedule/Then sinks (with parsed capture lists), and receiver-type
    bindings. Heuristic by design — the fixture self-test pins behavior."""

    def __init__(self, toks: list[tuple[str, str, int]], raw_lines: list[str]):
        self.toks = toks
        self.n = len(toks)
        self.i = 0
        self.classes: list[dict] = []
        self.functions: list[dict] = []
        self.sink_lambdas: list[dict] = []
        self.mailbox_lines = governed_lines(raw_lines, MAILBOX_ANN)

    # -- token helpers ------------------------------------------------------

    def t(self, k: int = 0):
        j = self.i + k
        return self.toks[j] if 0 <= j < self.n else ("punct", "", -1)

    def text(self, k: int = 0) -> str:
        return self.t(k)[1]

    def skip_balanced(self, open_: str, close: str) -> None:
        """From an `open_` token, consumes through its matching `close`."""
        depth = 0
        while self.i < self.n:
            x = self.text()
            if x == open_:
                depth += 1
            elif x == close:
                depth -= 1
                if depth == 0:
                    self.i += 1
                    return
            self.i += 1

    def skip_angle(self) -> None:
        depth = 0
        while self.i < self.n:
            x = self.text()
            if x == "<":
                depth += 1
            elif x == ">":
                depth -= 1
                if depth <= 0:
                    self.i += 1
                    return
            elif x == ">>":
                depth -= 2
                if depth <= 0:
                    self.i += 1
                    return
            elif x in (";", "{"):
                return  # not a template argument list after all
            self.i += 1

    def skip_to_semi(self) -> None:
        """Consumes through the next ';' at depth 0. Stops (without
        consuming) at a '}' that would close the enclosing scope."""
        depth = 0
        while self.i < self.n:
            x = self.text()
            if x in "([{":
                depth += 1
            elif x in ")]}":
                if x == "}" and depth == 0:
                    return
                depth -= 1
            elif x == ";" and depth == 0:
                self.i += 1
                return
            self.i += 1

    # -- grammar ------------------------------------------------------------

    def parse(self) -> None:
        self.parse_scope(None, True)

    def parse_scope(self, cls: dict | None, toplevel: bool) -> None:
        while self.i < self.n:
            x = self.text()
            if x == "}":
                self.i += 1
                return
            if x == "{":
                self.i += 1
                self.parse_scope(cls, False)
                continue
            if x == ";":
                self.i += 1
                continue
            if x == "[" and self.text(1) == "[":
                while self.i < self.n and not (self.text() == "]" and self.text(1) == "]"):
                    self.i += 1
                self.i += 2
                continue
            if x == "template":
                self.i += 1
                if self.text() == "<":
                    self.skip_angle()
                continue
            if x == "namespace":
                self.i += 1
                while self.i < self.n and self.text() not in ("{", ";", "="):
                    self.i += 1
                if self.text() == "{":
                    self.i += 1
                    self.parse_scope(cls, toplevel)
                else:
                    self.skip_to_semi()
                continue
            if x in ("class", "struct", "union") and self.text(-1) != "enum":
                self.try_class(cls, toplevel)
                continue
            if x == "enum":
                self.i += 1
                while self.i < self.n and self.text() not in ("{", ";"):
                    self.i += 1
                if self.text() == "{":
                    self.skip_balanced("{", "}")
                self.skip_to_semi()
                continue
            if x in ("using", "typedef", "friend", "static_assert", "extern"):
                self.skip_to_semi()
                continue
            if x in ("public", "private", "protected") and self.text(1) == ":":
                self.i += 2
                continue
            self.parse_decl(cls)

    def try_class(self, outer: dict | None, toplevel: bool) -> None:
        kind = self.text()
        line = self.t()[2]
        self.i += 1
        idents: list[str] = []
        name = None
        while self.i < self.n:
            x = self.text()
            k = self.t()[0]
            if k == "id":
                idents.append(x)
                self.i += 1
                if self.text() == "<":
                    self.skip_angle()
                continue
            if x == ":":
                name = next((w for w in reversed(idents) if w != "final"), None)
                while self.i < self.n and self.text() != "{" and self.text() != ";":
                    if self.text() == "<":
                        self.skip_angle()
                    else:
                        self.i += 1
                continue
            if x == "{":
                if name is None:
                    name = next((w for w in reversed(idents) if w != "final"), None)
                rec = {
                    "name": name or "<anon>",
                    "kind": kind,
                    "line": line,
                    "toplevel": toplevel and outer is None,
                    "confined": CONFINED_MACRO in idents[:-1] if idents else False,
                    "methods": [],
                }
                self.classes.append(rec)
                self.i += 1
                self.parse_scope(rec, False)
                self.skip_to_semi()
                return
            if x in (";", "(", ")", "=", ",", "[", "]", "&", "*"):
                # forward declaration or elaborated type specifier — not a
                # class definition; let the generic path resume from here.
                if x == ";":
                    self.i += 1
                return
            self.i += 1

    def parse_decl(self, cls: dict | None) -> None:
        """A declaration at namespace/class scope: member variable, method
        declaration, or function definition (then its body is parsed)."""
        start = self.i
        while self.i < self.n:
            x = self.text()
            k = self.t()[0]
            if x == ";":
                self.i += 1
                return
            if x == "}":
                return
            if x == "=":
                self.skip_to_semi()
                return
            if x == "{":  # braced init without a preceding paren group
                self.skip_balanced("{", "}")
                self.skip_to_semi()
                return
            if x == "<" and self.t(-1)[0] == "id":
                self.skip_angle()
                continue
            if x == "[" and self.text(1) == "[":
                while self.i < self.n and not (self.text() == "]" and self.text(1) == "]"):
                    self.i += 1
                self.i += 2
                continue
            if x == "operator":
                # operator()(…), operator==(…), operator bool(), …
                names = ["operator"]
                self.i += 1
                if self.text() == "(" and self.text(1) == ")":
                    names.append("()")
                    self.i += 2
                else:
                    while self.i < self.n and self.text() != "(":
                        names.append(self.text())
                        self.i += 1
                self.finish_function(cls, "".join(names), [], self.t()[2])
                return
            if x == "(" and self.t(-1)[0] == "id":
                # walk back through the qualified name chain
                chain = [self.text(-1)]
                j = self.i - 2
                while j >= 1 and self.toks[j][1] == "::" and self.toks[j - 1][0] == "id":
                    chain.insert(0, self.toks[j - 1][1])
                    j -= 2
                if self.toks[j][1] == "~" if j >= 0 else False:
                    chain[-1] = "~" + chain[-1]
                self.finish_function(cls, chain[-1], chain, self.t(-1)[2])
                return
            self.i += 1
        _ = start

    def finish_function(self, cls: dict | None, name: str, chain: list[str],
                        line: int) -> None:
        """At the '(' of a candidate function's parameter list. Decides
        declaration vs definition vs non-function and records accordingly."""
        param_start = self.i
        self.skip_balanced("(", ")")
        param_toks = self.toks[param_start : self.i]
        is_const = False
        while self.i < self.n:
            x = self.text()
            if x in ("noexcept", "override", "final", "mutable", "&", "&&", "*",
                     "throw", "volatile", "requires"):
                self.i += 1
                if self.text() == "(":
                    self.skip_balanced("(", ")")
                continue
            if x == "const":
                is_const = True
                self.i += 1
                continue
            if x == "->":
                self.i += 1
                while self.i < self.n and self.text() not in ("{", ";", "="):
                    if self.text() == "<":
                        self.skip_angle()
                    elif self.text() == "(":
                        self.skip_balanced("(", ")")
                    else:
                        self.i += 1
                continue
            if x == ":":
                # constructor member-init list: ident + (…)/{…}, ','-separated
                self.i += 1
                while self.i < self.n:
                    if self.text() == "{" and self.t(-1)[1] not in (",", ":") \
                            and self.t(-1)[0] != "id":
                        break
                    if self.text() == "(":
                        self.skip_balanced("(", ")")
                    elif self.text() == "{" :
                        # `b_{y}` member brace-init: consume it, then a ','
                        # continues the list and anything else starts the body
                        save = self.i
                        self.skip_balanced("{", "}")
                        if self.text() == ",":
                            continue
                        if self.text() == "{":
                            continue
                        # body was this brace group after all?  Only when the
                        # next token ends the function — rewind and break.
                        if self.text() in ("}",) or self.t()[2] == -1:
                            self.i = save
                            break
                        continue
                    elif self.text() == ";":
                        break
                    else:
                        self.i += 1
                continue
            if x == "{":
                self.record_method(cls, name, is_const, line)
                fn = {
                    "name": name,
                    "qual": "::".join(chain) if chain else name,
                    "cls": cls["name"] if cls else (chain[-2] if len(chain) >= 2 else None),
                    "line": line,
                    "end": line,
                    "calls": [],
                    "runs_engine": False,
                }
                self.bind_params(param_toks, fn)
                self.functions.append(fn)
                self.parse_body(fn, 0)
                return
            if x == ";":
                self.record_method(cls, name, is_const, line)
                self.i += 1
                return
            if x == "=":  # = default / = delete / = 0
                self.record_method(cls, name, is_const, line)
                self.skip_to_semi()
                return
            # not a function after all (declarator soup); bail to ';'
            self.skip_to_semi()
            return

    def record_method(self, cls: dict | None, name: str, is_const: bool,
                      line: int) -> None:
        if cls is None:
            return
        cls["methods"].append({
            "name": name,
            "const": is_const,
            "line": line,
            "mailbox": str(line) in self.mailbox_lines,
        })

    def bind_params(self, param_toks, fn: dict) -> None:
        """Extracts TYPE NAME receiver bindings from a parameter token list;
        stored on the function but merged file-wide by the caller."""
        text = " ".join(t[1] if t[0] != "str" else '""' for t in param_toks)
        for m in BIND.finditer(text):
            fn.setdefault("bindings", {})[m.group(2)] = m.group(1)

    def parse_body(self, fn: dict, sink_depth: int) -> None:
        """Consumes a '{'…'}' body, recording calls, engine drains and
        lambdas passed to sinks. `sink_depth` > 0 inside a sink callback."""
        self.i += 1  # consume '{'
        call_stack: list[str | None] = []
        while self.i < self.n:
            x = self.text()
            k = self.t()[0]
            if x == "}":
                fn["end"] = max(fn["end"], self.t()[2])
                self.i += 1
                return
            if x == "{":
                self.parse_body_block(fn, sink_depth, call_stack)
                continue
            if x == "(":
                callee = None
                if self.t(-1)[0] == "id" and self.text(-1) not in KEYWORD_NON_CALLS:
                    callee = self.text(-1)
                    recv = recv_kind = None
                    if self.text(-2) in (".", "->") and self.t(-3)[0] == "id":
                        recv, recv_kind = self.text(-3), self.text(-2)
                    elif self.text(-2) == "::" and self.t(-3)[0] == "id":
                        recv, recv_kind = self.text(-3), "::"
                    fn["calls"].append([self.t()[2], callee, recv, recv_kind,
                                        sink_depth > 0 or bool(call_stack and
                                        call_stack[-1] in SINKS)])
                    if callee == "Run" and recv_kind in (".", "->"):
                        fn["runs_engine"] = True
                call_stack.append(callee)
                self.i += 1
                continue
            if x == ")":
                if call_stack:
                    call_stack.pop()
                self.i += 1
                continue
            if x == "[":
                if self.text(1) == "[":
                    while self.i < self.n and not (self.text() == "]" and self.text(1) == "]"):
                        self.i += 1
                    self.i += 2
                    continue
                prev = self.t(-1)
                if prev[0] in ("id", "num", "str", "chr") or prev[1] in LAMBDA_BLOCK_PREV:
                    self.skip_balanced("[", "]")  # subscript
                    continue
                self.parse_lambda(fn, sink_depth, call_stack)
                continue
            self.i += 1

    def parse_body_block(self, fn: dict, sink_depth: int, call_stack) -> None:
        """A nested '{'…'}' inside a body (compound statement or braced
        init): parsed with the same machinery, sharing the call stack."""
        self.i += 1
        while self.i < self.n:
            x = self.text()
            if x == "}":
                self.i += 1
                return
            if x == "{":
                self.parse_body_block(fn, sink_depth, call_stack)
                continue
            if x == "(":
                callee = None
                if self.t(-1)[0] == "id" and self.text(-1) not in KEYWORD_NON_CALLS:
                    callee = self.text(-1)
                    recv = recv_kind = None
                    if self.text(-2) in (".", "->") and self.t(-3)[0] == "id":
                        recv, recv_kind = self.text(-3), self.text(-2)
                    elif self.text(-2) == "::" and self.t(-3)[0] == "id":
                        recv, recv_kind = self.text(-3), "::"
                    fn["calls"].append([self.t()[2], callee, recv, recv_kind,
                                        sink_depth > 0 or bool(call_stack and
                                        call_stack[-1] in SINKS)])
                    if callee == "Run" and recv_kind in (".", "->"):
                        fn["runs_engine"] = True
                call_stack.append(callee)
                self.i += 1
                continue
            if x == ")":
                if call_stack:
                    call_stack.pop()
                self.i += 1
                continue
            if x == "[":
                if self.text(1) == "[":
                    while self.i < self.n and not (self.text() == "]" and self.text(1) == "]"):
                        self.i += 1
                    self.i += 2
                    continue
                prev = self.t(-1)
                if prev[0] in ("id", "num", "str", "chr") or prev[1] in LAMBDA_BLOCK_PREV:
                    self.skip_balanced("[", "]")
                    continue
                self.parse_lambda(fn, sink_depth, call_stack)
                continue
            self.i += 1

    def parse_lambda(self, fn: dict, sink_depth: int, call_stack) -> None:
        """At the '[' of a lambda introducer inside `fn`'s body."""
        line = self.t()[2]
        self.i += 1
        captures: list[str] = []
        item: list[str] = []
        depth = 1
        while self.i < self.n and depth > 0:
            x = self.text()
            if x == "[":
                depth += 1
            elif x == "]":
                depth -= 1
                if depth == 0:
                    break
            elif x == "," and depth == 1:
                captures.append(" ".join(item))
                item = []
                self.i += 1
                continue
            item.append(x)
            self.i += 1
        if item:
            captures.append(" ".join(item))
        self.i += 1  # consume ']'
        if self.text() == "(":
            self.skip_balanced("(", ")")
        while self.i < self.n and self.text() not in ("{", ";", ")", ","):
            if self.text() == "<":
                self.skip_angle()
            elif self.text() == "(":
                self.skip_balanced("(", ")")
            else:
                self.i += 1
        if self.text() != "{":
            return  # not a lambda body after all (e.g. attribute-ish noise)
        bad = []
        for cap in captures:
            cap = cap.strip()
            if cap == "&":
                bad.append("[&]")
            elif cap == "this":
                bad.append("this")
            elif cap.startswith("& "):
                bad.append("&" + cap[2:].split(" ")[0])
        sink = call_stack[-1] if call_stack and call_stack[-1] in SINKS else None
        if sink is not None:
            self.sink_lambdas.append({
                "line": line,
                "sink": sink,
                "captures": captures,
                "bad": bad,
                "cls": fn.get("cls"),
                "fn": fn["qual"],
                "runs_engine_fn": fn["name"],
            })
        self.parse_body(fn, sink_depth + (1 if sink is not None else 0))


# ---------------------------------------------------------------------------
# Per-file model (line rules + symbol table), with summary caching
# ---------------------------------------------------------------------------

def layer_of_rel(rel: str) -> str | None:
    parts = rel.split("/")
    if len(parts) >= 2 and parts[0] == "src" and parts[1] in LAYERS:
        return parts[1]
    return None


def build_model(path: Path, repo: Path, cache_dir: Path | None) -> dict:
    rel = path.relative_to(repo).as_posix()
    text = path.read_text(encoding="utf-8")
    digest = hashlib.sha256(f"v{MODEL_VERSION}\n{text}".encode()).hexdigest()
    cache_file = None
    if cache_dir is not None:
        cache_file = cache_dir / (rel.replace("/", "__") + ".json")
        if cache_file.is_file():
            try:
                loaded = json.loads(cache_file.read_text())
                if loaded.get("digest") == digest:
                    return loaded["model"]
            except (json.JSONDecodeError, KeyError):
                pass

    raw_lines = text.splitlines()
    code_lines = [strip_comments_and_strings(l) for l in raw_lines]
    model: dict = {
        "rel": rel,
        "layer": layer_of_rel(rel),
        "findings": [],
        "file_waivers": {},
        "waivers_seen": [],
        "eff_waivers": governed_lines(raw_lines, WAIVER),
        "owners": {},
        "value_types": {},
        "bindings": {},
        "bad_annotations": [],
    }

    for lineno, raw in enumerate(raw_lines, 1):
        m = FILE_WAIVER.search(raw)
        if m:
            model["file_waivers"][m.group(1)] = m.group(2).strip()
            model["waivers_seen"].append([lineno, m.group(1), m.group(2).strip()])
        for m in WAIVER.finditer(raw):
            model["waivers_seen"].append([lineno, m.group(1), m.group(2).strip()])
        for regex, key in ((OWNER_ANN, "owners"), (VALUE_ANN, "value_types")):
            m = regex.search(raw)
            if m:
                model[key][m.group(1)] = [lineno, m.group(2).strip()]
                if not m.group(2).strip():
                    model["bad_annotations"].append([lineno, m.group(0).strip()])
        m = MAILBOX_ANN.search(raw)
        if m and not m.group(1).strip():
            model["bad_annotations"].append([lineno, "mailbox"])

    run_line_rules(model, raw_lines, code_lines)

    toks = tokenize(text)
    parser = Parser(toks, raw_lines)
    try:
        parser.parse()
    except RecursionError:
        print(f"{rel}: parser recursion overflow; symbol table incomplete",
              file=sys.stderr)
    model["classes"] = parser.classes
    model["functions"] = parser.functions
    model["sink_lambdas"] = parser.sink_lambdas

    for code in code_lines:
        for m in BIND.finditer(code):
            if m.group(2) not in ("return", "const"):
                model["bindings"][m.group(2)] = m.group(1)
    for fn in model["functions"]:
        model["bindings"].update(fn.pop("bindings", {}))

    if cache_file is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        cache_file.write_text(json.dumps({"digest": digest, "model": model}))
    return model


def add_finding(model: dict, line: int, rule: str, message: str) -> None:
    """Records a finding, resolving same-line / comment-block-above waivers
    and whole-file waivers. File-waived findings are recorded (as waived)
    rather than dropped, so the per-rule accounting stays honest."""
    waived, reason = False, ""
    if rule in model["file_waivers"]:
        waived, reason = True, model["file_waivers"][rule]
    else:
        for entry in model["eff_waivers"].get(str(line), []):
            if entry[1] == rule:
                waived, reason = True, entry[2].strip()
                break
    model["findings"].append(
        {"line": line, "rule": rule, "message": message, "waived": waived,
         "reason": reason})


def first_arg_span(text: str, start: int) -> str:
    """Returns the first macro argument starting at the '(' at `start`
    (balanced parens, top-level comma stops CHECK_OP's first operand)."""
    depth = 0
    arg = []
    for ch in text[start:]:
        if ch == "(":
            depth += 1
            if depth == 1:
                continue
        elif ch == ")":
            depth -= 1
            if depth == 0:
                break
        arg.append(ch)
    return "".join(arg)


def run_line_rules(model: dict, raw_lines: list[str], code_lines: list[str]) -> None:
    rel = model["rel"]
    layer = model["layer"]
    in_src = rel.split("/")[0] == "src"
    if in_src and layer is None:
        add_finding(model, 1, "layering",
                    f"src/{rel.split('/')[1]} is not in the layer DAG, so its "
                    "includes go unchecked; add it to LAYERS")

    unordered_names: set[str] = set()
    for code in code_lines:
        for m in UNORDERED_DECL.finditer(code):
            unordered_names.add(m.group(1))

    for lineno, code in enumerate(code_lines, 1):
        # unordered-iter — det.h is the sanctioned deterministic-iteration
        # wrapper: its loops exist to sort, which the scope-aware analyzer
        # verifies by home rather than by waiver.
        if rel != DET_HOME:
            for m in RANGE_FOR.finditer(code):
                if m.group(1) in unordered_names:
                    add_finding(model, lineno, "unordered-iter",
                                f"range-for over unordered container '{m.group(1)}'; "
                                "iterate det::SortedKeys(...) or migrate to det::Map/det::Set")
            for m in ITER_FOR.finditer(code):
                if m.group(1) in unordered_names:
                    add_finding(model, lineno, "unordered-iter",
                                f"iterator loop over unordered container '{m.group(1)}'")

        if rel != RNG_HOME:
            m = NONDET.search(code)
            if m:
                add_finding(model, lineno, "nondet-source",
                            f"'{m.group(0).strip()}' is a nondeterminism source; use "
                            "common/rng.h (randomness) or sim::Engine::Now() (time)")

        if POINTER_KEY.search(code):
            add_finding(model, lineno, "pointer-key",
                        "ordered container keyed by pointer: iteration order is the "
                        "allocator's address layout; key by an id instead")

        if rel not in THREADING_HOMES:
            m = SHARED_MUTABLE.search(code)
            if m:
                add_finding(model, lineno, "shared-mutable",
                            f"'{m.group(0).strip()}' outside the sanctioned threading "
                            "owners (event engine, bench --jobs pool); keep state "
                            "inside one engine domain instead")

        for m in CHECK_MACRO.finditer(code):
            blob = " ".join(code_lines[lineno - 1 : lineno + 3])
            start = blob.find("(", blob.find(m.group(0).rstrip("(").rstrip()))
            if start < 0:
                continue
            arg = first_arg_span(blob, start)
            sm = SIDE_EFFECT.search(arg)
            if sm:
                add_finding(model, lineno, "check-side-effect",
                            f"'{sm.group(0).strip()}' inside {m.group(0).rstrip('(').strip()} "
                            "condition; hoist the mutation out of the check")

        if in_src and layer is not None:
            im = INCLUDE.search(raw_lines[lineno - 1])
            if im:
                target = im.group(1).split("/")[0]
                if target in LAYERS and target != layer and target not in LAYERS[layer]:
                    add_finding(model, lineno, "layering",
                                f"src/{layer} must not include {im.group(1)} "
                                f"(allowed: {', '.join(sorted(LAYERS[layer] | {layer}))})")


# ---------------------------------------------------------------------------
# Cross-file pass: taint, capture escape, domain confinement
# ---------------------------------------------------------------------------

def cross_file_pass(models: list[dict]) -> None:
    """Adds nondet-taint / capture-escape / domain-confinement findings to
    each model, using the merged symbol tables of every model in the run."""
    owners: dict[str, list] = {}
    value_types: dict[str, list] = {}
    confined: dict[str, str] = {}       # class name -> owning domain layer
    class_methods: dict[str, dict] = {}  # class name -> {method: {const, mailbox}}
    for model in models:
        owners.update(model["owners"])
        value_types.update(model["value_types"])
        for cls in model["classes"]:
            table = class_methods.setdefault(cls["name"], {})
            for meth in cls["methods"]:
                prev = table.get(meth["name"])
                table[meth["name"]] = {
                    "const": (meth["const"] and (prev is None or prev["const"])),
                    "mailbox": (meth["mailbox"] or (prev is not None and prev["mailbox"])),
                }
            if cls["confined"] and model["layer"] is not None:
                confined[cls["name"]] = model["layer"]

    # ---- taint fixpoint ----------------------------------------------------
    fns: list[tuple[dict, dict]] = [(m, f) for m in models for f in m["functions"]]
    by_name: dict[str, list[int]] = {}
    for idx, (_, f) in enumerate(fns):
        by_name.setdefault(f["name"], []).append(idx)

    # A function is a taint source when an unwaived nondet-source finding
    # lands inside its span (waived sources do not taint — the waiver asserts
    # the wall-clock read is the payload).
    origin: dict[int, tuple] = {}
    tainted: set[int] = set()
    for idx, (m, f) in enumerate(fns):
        if m["rel"] == RNG_HOME:
            continue
        for finding in m["findings"]:
            if (finding["rule"] == "nondet-source" and not finding["waived"]
                    and f["line"] <= finding["line"] <= f["end"]):
                tainted.add(idx)
                origin[idx] = ("src", m["rel"], finding["line"])
                break

    changed = True
    while changed:
        changed = False
        for idx, (m, f) in enumerate(fns):
            if idx in tainted:
                continue
            for call in f["calls"]:
                hit = next((c for c in by_name.get(call[1], ()) if c in tainted), None)
                if hit is not None:
                    tainted.add(idx)
                    origin[idx] = ("via", call[1], hit)
                    changed = True
                    break

    def chain_of(idx: int) -> str:
        hops = []
        seen = set()
        while idx in origin and idx not in seen:
            seen.add(idx)
            o = origin[idx]
            if o[0] == "src":
                hops.append(f"{o[1]}:{o[2]}")
                break
            hops.append(o[1])
            idx = o[2]
        return " -> ".join(hops)

    for m, f in fns:
        if m["rel"] == RNG_HOME:
            continue
        for call in f["calls"]:
            hit = next((c for c in by_name.get(call[1], ()) if c in tainted), None)
            if hit is None:
                continue
            add_finding(m, call[0], "nondet-taint",
                        f"call to '{call[1]}' transitively reaches a nondeterminism "
                        f"source ({call[1]} -> {chain_of(hit)}); thread time through "
                        "sim::Engine::Now() and randomness through common/rng.h")

    # ---- capture escape ----------------------------------------------------
    runs_engine = {(id(m), f["qual"]): f["runs_engine"]
                   for m, f in fns}
    for m in models:
        if m["layer"] is None:
            continue  # tests/benches/examples drive the engine from their frame
        for lam in m["sink_lambdas"]:
            if not lam["bad"]:
                continue
            if lam["cls"] and lam["cls"] in owners:
                continue
            if runs_engine.get((id(m), lam["fn"])):
                continue  # the frame drains the engine; captured locals outlive it
            caps = ", ".join(lam["bad"])
            hint = (f"declare `// hoplite-sa: owner({lam['cls']}) -- <why>` on the "
                    "class if instances outlive the engine's event queue, or capture "
                    "by value / shared handle"
                    if lam["cls"] else
                    "capture by value / shared handle, or drain the engine with "
                    "Run() in this frame")
            add_finding(m, lam["line"], "capture-escape",
                        f"lambda passed to {lam['sink']} captures {caps}, which must "
                        f"outlive this frame; {hint}")

    # ---- domain confinement ------------------------------------------------
    for m in models:
        layer = m["layer"]
        if layer in CONFINED_DIRS:
            for cls in m["classes"]:
                if (cls["kind"] == "class" and cls["toplevel"]
                        and not cls["confined"] and cls["name"] not in value_types):
                    add_finding(m, cls["line"], "domain-confinement",
                                f"class {cls['name']} in src/{layer} holds domain state; "
                                "annotate HOPLITE_DOMAIN_CONFINED (common/annotations.h) "
                                f"or declare `// hoplite-sa: value-type({cls['name']}) "
                                "-- <why>`")
        if layer is None:
            continue
        for f in m["functions"]:
            for call in f["calls"]:
                line, name, recv, recv_kind, in_sink = call
                if recv is None or recv_kind not in (".", "->"):
                    continue
                cname = m["bindings"].get(recv)
                if cname is None or cname not in confined:
                    continue
                dom = confined[cname]
                if layer == dom or layer in CONFINED_OWNER_LAYERS.get(dom, set()):
                    continue
                if in_sink:
                    continue  # executes as a scheduled callback on the owning domain
                meth = class_methods.get(cname, {}).get(name)
                if meth is None or meth["const"] or meth["mailbox"]:
                    continue
                add_finding(m, line, "domain-confinement",
                            f"'{recv}.{name}(...)' mutates {cname}, which is "
                            f"HOPLITE_DOMAIN_CONFINED to src/{dom}; touch it from its "
                            "owning domain's callbacks, via a `// hoplite-sa: mailbox` "
                            "method, or through src/core")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def default_paths(repo: Path) -> list[Path]:
    """THE path-set. scripts/lint.sh, CI and the self-test all lint exactly
    this: every C++ file under src/, bench/, tests/ and examples/ — all rules
    run on all of it (bench/ and examples/ included for nondet-source,
    nondet-taint and check-side-effect; the wall-clock benches carry
    allow-file waivers because their payload IS wall time)."""
    out: list[Path] = []
    for sub in ("src", "bench", "tests", "examples"):
        root = repo / sub
        if not root.is_dir():
            continue
        for ext in ("*.h", "*.cc", "*.cpp", "*.hpp"):
            out.extend(sorted(p for p in root.rglob(ext)
                              if "lint_fixtures" not in p.parts))
    return out


def analyze(repo: Path, paths: list[Path], cache_dir: Path | None) -> list[dict]:
    models = [build_model(p, repo, cache_dir) for p in paths]
    cross_file_pass(models)
    return models


def write_github_summary(models: list[dict], max_waivers: int, n_waivers: int,
                         out_path: str) -> None:
    counts: dict[str, list[int]] = {r: [0, 0] for r in RULES}
    for m in models:
        for f in m["findings"]:
            counts[f["rule"]][1 if f["waived"] else 0] += 1
    owners = sum(len(m["owners"]) for m in models)
    values = sum(len(m["value_types"]) for m in models)
    lines = ["## hoplite-sa", "", "| rule | violations | waived |", "|---|---|---|"]
    for rule in RULES:
        v, w = counts[rule]
        lines.append(f"| `{rule}` | {v} | {w} |")
    lines += ["",
              f"**Waiver budget:** {n_waivers}/{max_waivers} used · "
              f"**annotations:** {owners} owner, {values} value-type · "
              f"**files:** {len(models)}", ""]
    with open(out_path, "a", encoding="utf-8") as f:
        f.write("\n".join(lines))


def run_lint(repo: Path, paths: list[Path], max_waivers: int, list_waivers: bool,
             cache_dir: Path | None, github_summary: bool) -> int:
    models = analyze(repo, paths, cache_dir)

    violations = []
    waived = []
    all_waivers = []
    failed = False
    for m in models:
        for f in m["findings"]:
            (waived if f["waived"] else violations).append((m["rel"], f))
        for lineno, rule, reason in m["waivers_seen"]:
            all_waivers.append((m["rel"], lineno, rule, reason))
        for lineno, what in m["bad_annotations"]:
            print(f"{m['rel']}:{lineno}: [annotation] {what} without a reason; "
                  "append ' -- <why>'")
            failed = True

    for rel, f in violations:
        print(f"{rel}:{f['line']}: [{f['rule']}] {f['message']}")
    if violations:
        failed = True

    for p, l, r, reason in all_waivers:
        if not reason:
            print(f"{p}:{l}: [waiver] allow({r}) without a reason; append ' -- <why>'")
            failed = True
        if r not in RULES:
            print(f"{p}:{l}: [waiver] allow({r}) names no known rule {RULES}")
            failed = True

    if len(all_waivers) > max_waivers:
        print(f"waiver budget exceeded: {len(all_waivers)} waivers > {max_waivers} allowed")
        failed = True

    if list_waivers:
        for p, l, r, reason in all_waivers:
            print(f"waiver {p}:{l}: allow({r}) -- {reason}")
        for m in models:
            for name, (l, reason) in sorted(m["owners"].items()):
                print(f"annotation {m['rel']}:{l}: owner({name}) -- {reason}")
            for name, (l, reason) in sorted(m["value_types"].items()):
                print(f"annotation {m['rel']}:{l}: value-type({name}) -- {reason}")

    summary_env = os.environ.get("GITHUB_STEP_SUMMARY")
    if github_summary and summary_env:
        write_github_summary(models, max_waivers, len(all_waivers), summary_env)

    print(f"hoplite-sa: {len(paths)} files, {len(violations)} violations, "
          f"{len(waived)} waived findings, {len(all_waivers)}/{max_waivers} waivers")
    return 1 if failed else 0


def run_self_test(repo: Path, fixtures: Path) -> int:
    """Every fixture line tagged '// expect-lint: <rule>' must produce exactly
    that finding; fixtures must produce no untagged findings; 'waived'
    fixtures must fully suppress their own. The fixture directory acts as its
    own repo root (so fixtures can mirror src/<layer>/ paths), and the whole
    fixture tree is analyzed in one cross-file pass — taint chains and
    confined classes resolve across fixture files exactly as in the tree."""
    files = sorted(fixtures.rglob("*.cc")) + sorted(fixtures.rglob("*.h"))
    if not files:
        print(f"self-test: no fixtures under {fixtures}", file=sys.stderr)
        return 1
    models = analyze(fixtures, files, None)
    failures = 0
    for path, model in zip(files, models):
        expected: set[tuple[int, str]] = set()
        for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for m in EXPECT.finditer(raw):
                expected.add((lineno, m.group(1)))
        got = {(f["line"], f["rule"]) for f in model["findings"] if not f["waived"]}
        waived = {(f["line"], f["rule"]) for f in model["findings"] if f["waived"]}
        for miss in sorted(expected - got):
            print(f"self-test MISS {path.relative_to(repo)}:{miss[0]}: "
                  f"expected [{miss[1]}], not reported")
            failures += 1
        for extra in sorted(got - expected):
            print(f"self-test EXTRA {path.relative_to(repo)}:{extra[0]}: "
                  f"unexpected [{extra[1]}]")
            failures += 1
        if "waived" in path.name and (got or not waived):
            print(f"self-test {path.relative_to(repo)}: waiver fixture must "
                  f"waive everything (got {len(got)} live, {len(waived)} waived)")
            failures += 1
    print(f"self-test: {len(files)} fixtures, {failures} failures")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files to lint (default: the repo path-set; the "
                             "cross-file rules see only the given files)")
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's parent's parent)")
    parser.add_argument("--max-waivers", type=int, default=10,
                        help="total waiver budget across the path-set")
    parser.add_argument("--list-waivers", action="store_true",
                        help="print every waiver and annotation with its justification")
    parser.add_argument("--summary-dir", type=Path, default=None,
                        help="cache per-file symbol summaries here (content-hash "
                             "keyed); unchanged files are not re-parsed")
    parser.add_argument("--github-summary", action="store_true",
                        help="append a rule-count table to $GITHUB_STEP_SUMMARY")
    parser.add_argument("--self-test", action="store_true",
                        help="run against tests/lint_fixtures expectations instead")
    args = parser.parse_args()

    repo = args.repo.resolve()
    if args.self_test:
        return run_self_test(repo, repo / "tests" / "lint_fixtures")
    paths = [p.resolve() for p in args.paths] if args.paths else default_paths(repo)
    missing = [p for p in paths if not p.is_file()]
    if missing:
        print(f"no such file: {missing[0]}", file=sys.stderr)
        return 2
    return run_lint(repo, paths, args.max_waivers, args.list_waivers,
                    args.summary_dir, args.github_summary)


if __name__ == "__main__":
    sys.exit(main())
