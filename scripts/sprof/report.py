#!/usr/bin/env python3
"""Symbolize an sprof profile and print self and inclusive shares.

Usage: report.py PROFILE [--root NAME] [--top N]

PROFILE is the file sprof.so wrote to $SPROF_OUT. Each sampled address is
mapped to its object through the recorded /proc/self/maps, then named with
`addr2line -f -C -i` (which expands inlined frames when the object has debug
info) or, where addr2line finds nothing, with the nearest symbol at or below
it that `nm -D` lists. With --root, only samples whose stack holds a frame
whose name contains NAME count, and only their frames from the leaf up to
the outermost such frame. A function's self share is the share of counted
samples whose leaf it is; its inclusive share is the share of counted
samples it appears in. Standard library only.
"""

from __future__ import annotations

import argparse
import bisect
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ET_EXEC = 2
ADDRESS = re.compile(r"0x[0-9a-f]+")


class Profile:
    def __init__(self, path: Path) -> None:
        lines = path.read_text().splitlines()
        if not lines or lines[0] != "sprof 1":
            raise SystemExit(f"{path}: not an sprof profile")
        self.dropped = 0
        # Executable mappings of files, (start, end, path), and each file's
        # lowest mapping: a shared object's or PIE's addresses count from it.
        self.maps: list[tuple[int, int, str]] = []
        self.base: dict[str, int] = {}
        self.stacks: list[list[int]] = []  # leaf first
        section = "header"
        for line in lines[1:]:
            if line in ("maps", "stacks"):
                section = line
            elif section == "header":
                key, value = line.split()
                if key == "dropped":
                    self.dropped = int(value)
            elif section == "maps":
                fields = line.split(maxsplit=5)
                if len(fields) < 6 or not fields[5].startswith("/"):
                    continue
                start, end = (int(x, 16) for x in fields[0].split("-"))
                obj = fields[5]
                self.base[obj] = min(start, self.base.get(obj, start))
                if "x" in fields[1]:
                    self.maps.append((start, end, obj))
            else:
                self.stacks.append([int(x, 16) for x in line.split()[1:] if ADDRESS.fullmatch(x)])
        self.maps.sort()
        # A fixed-address executable's runtime addresses are its own.
        self.fixed: dict[str, bool] = {}
        for obj in self.base:
            try:
                with open(obj, "rb") as f:
                    self.fixed[obj] = int.from_bytes(f.read(18)[16:18], "little") == ET_EXEC
            except OSError:
                pass

    def locate(self, addr: int) -> tuple[str, int]:
        """(object, address within the object), or ("", addr) if unmapped."""
        k = bisect.bisect_right(self.maps, (addr, float("inf"), "")) - 1
        if k < 0 or addr >= self.maps[k][1]:
            return "", addr
        obj = self.maps[k][2]
        if obj not in self.fixed:
            return "", addr
        return obj, addr if self.fixed[obj] else addr - self.base[obj]


def addr2line(obj: str, addrs: list[int]) -> dict[int, list[str]]:
    """Function names per address, innermost inlined frame first. With -a
    each address is echoed, then one (function, location) pair per inlining
    level."""
    out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", obj],
                         input="\n".join(f"{a:#x}" for a in addrs), capture_output=True,
                         text=True, check=False).stdout.splitlines()
    names: dict[int, list[str]] = {}
    current: list[str] = []
    line_in_pair = 0
    for line in out:
        if ADDRESS.fullmatch(line):
            current = names.setdefault(int(line, 16), [])
            line_in_pair = 0
            continue
        if line_in_pair == 0 and line != "??":
            current.append(line)
        line_in_pair ^= 1
    return names


def dynamic_symbols(obj: str) -> tuple[list[int], list[str]]:
    out = subprocess.run(["nm", "-D", "--defined-only", "-C", obj], capture_output=True,
                         text=True, check=False).stdout.splitlines()
    table = sorted((int(f[0], 16), f[2]) for f in (line.split(maxsplit=2) for line in out)
                   if len(f) == 3 and f[1] in "TtWwi")
    return [a for a, _ in table], [n for _, n in table]


def symbolize(profile: Profile) -> list[list[str]]:
    """Each stack as function names, leaf first, inlined frames expanded."""
    # Past the interrupted instruction each frame is a return address; the
    # call sits just before it.
    pcs = [[pc if depth == 0 else pc - 1 for depth, pc in enumerate(stack)]
           for stack in profile.stacks]
    located = {pc: profile.locate(pc) for stack in pcs for pc in stack}
    wanted: dict[str, set[int]] = {}
    for obj, rel in located.values():
        if obj:
            wanted.setdefault(obj, set()).add(rel)
    names: dict[tuple[str, int], list[str]] = {}
    for obj, rels in wanted.items():
        found = addr2line(obj, sorted(rels))
        symbols = None
        for rel in rels:
            chain = found.get(rel)
            if not chain:
                # No line info and no static symbol: libc and libstdc++
                # internals land on the nearest exported name.
                symbols = symbols or dynamic_symbols(obj)
                k = bisect.bisect_right(symbols[0], rel) - 1
                chain = [f"{symbols[1][k] if k >= 0 else '??'} [{Path(obj).name}]"]
            names[(obj, rel)] = chain
    return [[name for pc in stack
             for name in names.get(located[pc], [f"?? {pc:#x}"])] for stack in pcs]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile", type=Path)
    parser.add_argument("--root", help="count only stacks under a frame whose name has this")
    parser.add_argument("--top", type=int, default=25, help="rows per table (default 25)")
    args = parser.parse_args()

    profile = Profile(args.profile)
    counted = []
    for frames in symbolize(profile):
        if args.root:
            under = [i for i, name in enumerate(frames) if args.root in name]
            if not under:
                continue
            frames = frames[:under[-1] + 1]
        if frames:
            counted.append(frames)
    scope = f"under '{args.root}'" if args.root else "with a stack"
    print(f"{len(profile.stacks)} samples ({profile.dropped} dropped), "
          f"{len(counted)} {scope}")
    if not counted:
        return 1
    self_count = Counter(frames[0] for frames in counted)
    incl_count = Counter(name for frames in counted for name in set(frames))
    for title, counter in (("self", self_count), ("inclusive", incl_count)):
        print(f"\n{'self%':>6} {'incl%':>6}  function (top {args.top} by {title} share)")
        for name, _ in counter.most_common(args.top):
            print(f"{100 * self_count[name] / len(counted):6.1f} "
                  f"{100 * incl_count[name] / len(counted):6.1f}  {name[:160]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
