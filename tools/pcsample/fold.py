#!/usr/bin/env python3
"""Fold a pcsample profile to functions or source lines.

    python3 tools/pcsample/fold.py prof.txt | head -30   # by function
    python3 tools/pcsample/fold.py --lines prof.txt      # by file:line
    python3 tools/pcsample/fold.py --min-samples 100 prof.txt

The profile is what libpcsample.so writes at exit (see pcsample.cc):
one "count<TAB>object<TAB>0xaddress" line per sampled PC. Every
function or line is printed, most-sampled first. Functions
come from `nm` (the enclosing symbol, so inlined code counts toward its
caller); lines come from `addr2line` (the innermost inlined location,
so a hot line inside an inlined helper is named as itself). Objects
without symbols fold to "?? (object)".

Exit status is 1 when the profile has fewer than --min-samples samples
or none of them resolves to a symbol, so a smoke test can call it.
"""

import argparse
import bisect
import collections
import os
import signal
import subprocess
import sys


def read_profile(path):
    sites = collections.defaultdict(list)  # object -> [(addr, count)]
    total = 0
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            count, obj, addr = line.rstrip("\n").split("\t")
            sites[obj].append((int(addr, 16), int(count)))
            total += int(count)
    return sites, total


def nm_symbols(obj):
    """Sorted (address, name) of the text symbols of obj."""
    for extra in ([], ["-D"]):
        try:
            out = subprocess.run(
                ["nm", "-C", "-n", "--defined-only"] + extra + [obj],
                capture_output=True, text=True, check=False).stdout
        except OSError:
            return []
        syms = []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwWiI":
                syms.append((int(parts[0], 16), parts[2]))
        if syms:
            return syms
    return []


def by_function(obj, addrs):
    syms = nm_symbols(obj)
    starts = [a for a, _ in syms]
    names = []
    for addr in addrs:
        i = bisect.bisect_right(starts, addr) - 1
        names.append(syms[i][1] if i >= 0 else None)
    return names


def by_line(obj, addrs):
    try:
        out = subprocess.run(
            ["addr2line", "-C", "-f", "-e", obj],
            input="".join("0x%x\n" % a for a in addrs),
            capture_output=True, text=True, check=False).stdout.splitlines()
    except OSError:
        return [None] * len(addrs)
    names = []
    for i in range(len(addrs)):
        func = out[2 * i] if 2 * i < len(out) else "??"
        loc = out[2 * i + 1] if 2 * i + 1 < len(out) else "??:0"
        loc = loc.split(" (discriminator")[0]
        if loc.startswith("??"):
            names.append(None if func == "??" else func)
        else:
            names.append("%s:%s  %s" % (os.path.basename(loc.split(":")[0]),
                                        loc.rsplit(":", 1)[1], func))
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--lines", action="store_true",
                    help="fold to file:line instead of function")
    ap.add_argument("--min-samples", type=int, default=1)
    args = ap.parse_args()

    sites, total = read_profile(args.profile)
    folded = collections.Counter()
    resolved = 0
    for obj, rows in sites.items():
        addrs = [a for a, _ in rows]
        names = (by_line if args.lines else by_function)(obj, addrs)
        for (_, count), name in zip(rows, names):
            if name is None:
                name = "?? (%s)" % os.path.basename(obj)
            else:
                resolved += count
            folded[name] += count

    print("%d samples, %d resolved" % (total, resolved))
    for name, count in folded.most_common():
        print("%6.2f%% %8d  %s" % (100.0 * count / max(total, 1), count,
                                   name))
    if total < args.min_samples or resolved == 0:
        print("fold.py: %d samples (need %d), %d resolved"
              % (total, args.min_samples, resolved), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    # Exit quietly when the reader of a pipe (e.g. head) closes it.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
