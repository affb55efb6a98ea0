#!/usr/bin/env python3
"""Per-function table for a file written by sigprof.c or newsites.c.

    python3 tools/prof/symbolize.py sigprof.<pid>.out [top_n]
    python3 tools/prof/symbolize.py newsites.<pid>.out [top_n] \
        [--by-bytes | --by-live]

Maps each sampled PC to its object (the executable or a shared library)
through the recorded mappings, to an ELF address through the object's
LOAD segments, and to a function through its symbol table, sizes
included, so a PC that falls between symbols is reported as such instead
of being charged to the symbol before it. Symbols come from `nm -C`,
which names GCC's coroutine bodies "f() [clone .actor]".

A newsites file counts operator-new calls, the bytes they requested and
the bytes each site held at the live-heap peak, by call site; a site is
one return address or a short chain of them (NEWSITES_DEPTH), printed
innermost first as "f <- caller <- ...". Its table has a bytes and a
live-at-peak column and is ranked by calls, by bytes requested with
--by-bytes, or by live bytes at the peak with --by-live. A sigprof file
written with
SIGPROF_CALLER=1 pairs each PC with a leaf's return address and prints
"f <- caller" the same way; a word that does not point into an
executable mapping is not a return address and is dropped. Return
addresses are looked up one byte back, inside the call instruction.
"""
import argparse
import bisect
import collections
import os
import subprocess


def run(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout


def load_profile(path):
    """Returns (maps, Counter of PC chains, Counter of bytes per chain,
    Counter of live bytes at the peak per chain, unit); a sigprof chain is
    one PC, or a PC and its leaf caller's return address, and has no
    bytes."""
    maps, sites, unit = [], collections.Counter(), "samples"
    nbytes, live = collections.Counter(), collections.Counter()
    for line in open(path):
        kind, rest = line.split(" ", 1)
        if kind == "pc":
            pcs = [int(x, 16) for x in rest.split()]
            sites[tuple(pcs[:1] + [x - 1 for x in pcs[1:]])] += 1
            continue
        if kind == "site":
            n, b, at_peak, chain = rest.split()
            key = tuple(int(x, 16) - 1 for x in chain.split(","))
            sites[key] += int(n)
            nbytes[key] += int(b)
            live[key] += int(at_peak)
            unit = "allocations"
            continue
        f = rest.split()
        if len(f) >= 6 and "x" in f[1]:
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5]))
    return maps, sites, nbytes, live, unit


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
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profile")
    ap.add_argument("top_n", nargs="?", type=int, default=40)
    rank_by = ap.add_mutually_exclusive_group()
    rank_by.add_argument("--by-bytes", action="store_true",
                         help="rank a newsites table by bytes requested")
    rank_by.add_argument("--by-live", action="store_true",
                         help="rank a newsites table by live bytes at the "
                         "live-heap peak")
    args = ap.parse_args()
    maps, sites, nbytes, live, unit = load_profile(args.profile)
    objects, funcs = {}, collections.Counter()
    fbytes, flive = collections.Counter(), collections.Counter()

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
        key = " <- ".join(fn for fn, _ in names), names[0][1]
        funcs[key] += n
        fbytes[key] += nbytes[chain]
        flive[key] += live[chain]
    total = sum(sites.values())
    if unit == "samples":
        print(f"{total} {unit}")
        for (fn, obj), n in funcs.most_common(args.top_n):
            print(f"{100.0 * n / total:6.2f}%  {n:9d}  {obj:18.18s}  {fn}")
        return
    total_bytes, total_live = sum(nbytes.values()), sum(live.values())
    print(f"{total} {unit}, {total_bytes / 2**20:.1f} MiB requested, "
          f"{total_live / 2**20:.1f} MiB live at the peak")
    rank = fbytes if args.by_bytes else flive if args.by_live else funcs
    for key, _ in rank.most_common(args.top_n):
        fn, obj = key
        n, b, at_peak = funcs[key], fbytes[key], flive[key]
        print(f"{100.0 * n / total:6.2f}%  {n:9d}  {b / 2**20:10.2f} MiB  "
              f"{at_peak / 2**20:9.2f} MiB  {obj:18.18s}  {fn}")


if __name__ == "__main__":
    main()
