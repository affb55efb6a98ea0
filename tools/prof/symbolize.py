#!/usr/bin/env python3
"""Per-function table for a file written by sigprof.c or newsites.c.

    python3 tools/prof/symbolize.py sigprof.<pid>.out [top_n]
    python3 tools/prof/symbolize.py newsites.<pid>.out [top_n]

Maps each sampled PC to its object (the executable or a shared library)
through the recorded mappings, to an ELF address through the object's
LOAD segments, and to a function through its symbol table, sizes
included, so a PC that falls between symbols is reported as such instead
of being charged to the symbol before it. Symbols come from `nm -C`,
which names GCC's coroutine bodies "f() [clone .actor]".

A newsites file counts operator-new calls by call site; a site is one
return address or a short chain of them (NEWSITES_DEPTH), printed
innermost first as "f <- caller <- ...". A sigprof file written with
SIGPROF_CALLER=1 pairs each PC with a leaf's return address and prints
"f <- caller" the same way; a word that does not point into an
executable mapping is not a return address and is dropped. Return
addresses are looked up one byte back, inside the call instruction.
"""
import bisect
import collections
import os
import subprocess
import sys


def run(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout


def load_profile(path):
    """Returns (maps, Counter of PC chains, unit); a sigprof chain is one
    PC, or a PC and its leaf caller's return address."""
    maps, sites, unit = [], collections.Counter(), "samples"
    for line in open(path):
        kind, rest = line.split(" ", 1)
        if kind == "pc":
            pcs = [int(x, 16) for x in rest.split()]
            sites[tuple(pcs[:1] + [x - 1 for x in pcs[1:]])] += 1
            continue
        if kind == "site":
            n, chain = rest.split()
            sites[tuple(int(x, 16) - 1 for x in chain.split(","))] += int(n)
            unit = "allocations"
            continue
        f = rest.split()
        if len(f) >= 6 and "x" in f[1]:
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5]))
    return maps, sites, unit


class Object:
    def __init__(self, path):
        self.segs = []  # (file offset, size, vaddr - offset)
        for line in run("readelf", "-lW", path).splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                off, vaddr, size = int(f[1], 16), int(f[2], 16), int(f[4], 16)
                self.segs.append((off, size, vaddr - off))
        syms = {}
        for extra in ([], ["-D"]):  # -D: stripped libraries keep these
            for line in run("nm", "-C", "-n", "-S", "--defined-only", *extra, path).splitlines():
                f = line.split(" ", 3)
                if len(f) == 4 and f[2] in "tTwWiI":
                    syms.setdefault(int(f[0], 16), (int(f[1], 16), f[3]))
        self.addrs = sorted(syms)
        self.syms = [syms[a] for a in self.addrs]

    def name(self, file_off):
        vaddr = next((file_off + d for o, s, d in self.segs if o <= file_off < o + s), file_off)
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        if i >= 0 and vaddr < self.addrs[i] + max(self.syms[i][0], 1):
            return self.syms[i][1]
        return "[no symbol]"


def main():
    maps, sites, unit = load_profile(sys.argv[1])
    top = int(sys.argv[2]) if len(sys.argv) > 2 else 40
    objects, funcs = {}, collections.Counter()

    def where(pc):
        m = next((m for m in maps if m[0] <= pc < m[1]), None)
        if m is None:
            return "[unmapped]", "?"
        obj = objects.get(m[3]) or objects.setdefault(m[3], Object(m[3]))
        return obj.name(pc - m[0] + m[2]), os.path.basename(m[3])

    for chain, n in sites.items():
        names = [where(pc) for pc in chain]
        if unit == "samples":  # a caller word that is not a code address
            names = names[:1] + [x for x in names[1:] if x[0] != "[unmapped]"]
        funcs[" <- ".join(fn for fn, _ in names), names[0][1]] += n
    total = sum(sites.values())
    print(f"{total} {unit}")
    for (fn, obj), n in funcs.most_common(top):
        print(f"{100.0 * n / total:6.2f}%  {n:9d}  {obj:18.18s}  {fn}")


if __name__ == "__main__":
    main()
