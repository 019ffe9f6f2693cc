#!/usr/bin/env python3
"""Check the SIMD contract of the vector kernels in the compiled object code.

The element-wise kernels must be vectorized and the reductions must not be
reassociated (la/vector_kernels.hpp, DESIGN.md section 14).  Both halves
depend on compiler flags, not on the source, so this reads the object files
a build produced:

  python3 tools/check_simd.py build        # the CMake build directory

It disassembles vector_kernels.cpp.o and engine.cpp.o with `objdump -d -C`
and checks:

  * lincomb, lincomb_program and shift_combine contain packed-double
    arithmetic (a kernel counts with its <name>_* family:
    shift_combine runs in shift_combine_with_dots, lincomb in the
    lincomb_program executor that carries the sweeps);
  * dot_batch adds with scalar instructions and contains no packed-double
    addition: its sums stay in the scalar loop's order.  A packed multiply there is allowed -- it is GCC's
    in-order reduction, which multiplies element-wise and still adds the
    products one at a time;
  * no fused multiply-add anywhere (FMA contraction changes rounding).

Exits non-zero, naming each violation, when any check fails.
"""
import os
import re
import subprocess
import sys

OBJECTS = ("vector_kernels.cpp.o", "engine.cpp.o")
VECTORIZED = ("lincomb", "lincomb_program", "shift_combine")
SCALAR_SUMS = ("dot_batch",)

FUNC = re.compile(r"^[0-9a-f]+ <(.*)>:$")
PACKED = re.compile(r"^v?(add|sub|mul|div|min|max|sqrt|hadd|hsub|addsub)pd$"
                    r"|^vf(n)?m(add|sub|addsub|subadd)\d{3}pd$")
PACKED_SUM = re.compile(r"^v?(add|sub|hadd|hsub|addsub)pd$")
SCALAR_ADD = re.compile(r"^v?addsd$")
FMA = re.compile(r"^vf(n)?m(add|sub|addsub|subadd)\d{3}[ps][ds]$")


def find_objects(build_dir):
    found = {}
    for root, _, files in os.walk(build_dir):
        for name in files:
            if name in OBJECTS and name not in found:
                found[name] = os.path.join(root, name)
    missing = [name for name in OBJECTS if name not in found]
    if missing:
        sys.exit("check_simd: no %s under %s (build first)"
                 % (", ".join(missing), build_dir))
    return [found[name] for name in OBJECTS]


def disassemble(path):
    """Map each function's qualified name to its instruction mnemonics."""
    text = subprocess.run(
        ["objdump", "-d", "-C", "--no-show-raw-insn", path],
        check=True, capture_output=True, text=True).stdout
    funcs, current = {}, None
    for line in text.splitlines():
        m = FUNC.match(line)
        if m:
            current = funcs.setdefault(m.group(1).split("(")[0], [])
            continue
        parts = line.split("\t")
        if current is not None and len(parts) >= 2 and parts[1].strip():
            current.append(parts[1].split()[0])
    return funcs


def kernel(funcs, name):
    """Instructions of pipescg::la::<name> and its <name>_* family, internal
    helpers in the anonymous namespace included."""
    qual = "pipescg::la::" + name
    return [op for f, ops in funcs.items()
            for g in [f.replace("(anonymous namespace)::", "")]
            if g == qual or g.startswith(qual + "_") for op in ops]


def main(argv):
    build_dir = argv[0] if argv else "build"
    funcs = {}
    for path in find_objects(build_dir):
        funcs.update(disassemble(path))
    errors = []
    for name in VECTORIZED:
        ops = kernel(funcs, name)
        packed = [op for op in ops if PACKED.match(op)]
        print("%-16s %5d instructions, %3d packed-double" %
              (name, len(ops), len(packed)))
        if not ops:
            errors.append("%s: not found in the object code" % name)
        elif not packed:
            errors.append("%s: no packed-double arithmetic (not vectorized)"
                          % name)
    for name in SCALAR_SUMS:
        ops = kernel(funcs, name)
        sums = sorted(set(op for op in ops if PACKED_SUM.match(op)))
        print("%-16s %5d instructions, packed sums: %s" %
              (name, len(ops), ", ".join(sums) or "none"))
        if not any(SCALAR_ADD.match(op) for op in ops):
            errors.append("%s: no scalar addition -- the reduction is not in "
                          "its body to check" % name)
        elif sums:
            errors.append("%s: packed additions %s reassociate the reduction"
                          % (name, ", ".join(sums)))
    fmas = sorted(set(op for ops in funcs.values() for op in ops
                      if FMA.match(op)))
    if fmas:
        errors.append("FMA instructions %s change rounding" % ", ".join(fmas))
    for err in errors:
        print("check_simd: FAIL: " + err)
    if not errors:
        print("check_simd: ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
