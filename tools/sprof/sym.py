#!/usr/bin/env python3
"""Name the addresses an `sprof.c` profile recorded, and print where the
CPU time went: by function the sample was in ("self") and by function on
the stack ("total"), inlined frames included.

    python3 tools/sprof/sym.py sprof.<pid> [--top N]

Each address is looked up with `addr2line -a -f -C -i` in the file it
was mapped from. The address a file's code is linked at is its run-time
address less that file's load bias, and the bias is the start of the
file's mapping at offset 0. It is not the start of the executable
mapping less that mapping's offset: in the Rust binaries of this
repository the executable segment's file offset and link address differ
by 0x1000, and that arithmetic names the wrong functions. A
position-dependent executable (`ET_EXEC`) has no bias.
"""

import argparse
import collections
import re
import subprocess
import sys

ADDRESS = re.compile(r"0x[0-9a-f]+")


def read_profile(path):
    """The stacks (innermost first) and the mappings of a profile."""
    stacks, maps = [], []
    with open(path) as f:
        header = f.readline().split()
        assert header[0] == "samples", f"{path}: not an sprof profile"
        for _ in range(int(header[1])):
            stacks.append([int(a, 16) for a in f.readline().split()])
        assert f.readline().strip() == "maps", f"{path}: no maps section"
        for line in f:
            fields = line.split(maxsplit=5)
            if len(fields) < 6 or not fields[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            maps.append((start, end, fields[1], int(fields[2], 16), fields[5].strip()))
    return stacks, maps


def is_position_dependent(path):
    """True for an `ET_EXEC` ELF file, whose addresses are link addresses."""
    try:
        with open(path, "rb") as f:
            head = f.read(18)
    except OSError:
        return False
    return head[:4] == b"\x7fELF" and int.from_bytes(head[16:18], "little") == 2


def load_biases(maps):
    """Each file's load bias: the start of its offset-0 mapping."""
    bias = {}
    for start, _end, _perms, offset, path in maps:
        if offset == 0 and path not in bias:
            bias[path] = 0 if is_position_dependent(path) else start
    return bias


def locate(addr, maps, bias):
    """The file `addr` lies in and its link address there, or None."""
    for start, end, perms, _offset, path in maps:
        if start <= addr < end and "x" in perms and path in bias:
            return path, addr - bias[path]
    return None


def symbolize(wanted):
    """`{(file, link address): [function, ...]}`, innermost inline first."""
    names = {}
    for path, addrs in wanted.items():
        addrs = sorted(addrs)
        cmd = ["addr2line", "-a", "-f", "-C", "-i", "-e", path] + [hex(a) for a in addrs]
        out = subprocess.run(cmd, capture_output=True, text=True).stdout.splitlines()
        current, i = None, 0
        while i < len(out):
            if ADDRESS.fullmatch(out[i]):
                current = int(out[i], 16)
                names[(path, current)] = []
                i += 1
            else:
                names[(path, current)].append(out[i])
                i += 2  # the function, then its file:line
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=30)
    args = ap.parse_args()
    stacks, maps = read_profile(args.profile)
    bias = load_biases(maps)

    # A leaf is the interrupted instruction itself; every outer frame is
    # a return address, so its call is the byte before.
    framed = []
    wanted = collections.defaultdict(set)
    for stack in stacks:
        frames = []
        for depth, addr in enumerate(stack):
            hit = locate(addr if depth == 0 else addr - 1, maps, bias)
            if hit:
                wanted[hit[0]].add(hit[1])
            frames.append(hit)
        framed.append(frames)
    names = symbolize(wanted)

    def functions(hit):
        if hit is None:
            return ["??"]
        return names.get(hit) or ["??"]

    own, total = collections.Counter(), collections.Counter()
    for frames in framed:
        if not frames:
            continue
        own[functions(frames[0])[0]] += 1
        seen = set()
        for hit in frames:
            seen.update(functions(hit))
        total.update(seen)
    n = max(len(framed), 1)
    print(f"{len(framed)} samples")
    for title, counts in (("self", own), ("total", total)):
        print(f"\n{title:>6}  function")
        for name, count in counts.most_common(args.top):
            print(f"{100 * count / n:5.1f}%  {name[:150]}")


if __name__ == "__main__":
    sys.exit(main())
