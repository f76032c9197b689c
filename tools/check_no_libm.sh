#!/usr/bin/env bash
# Fails when an object of the simulator library calls into the C math
# library: every elementary function on the model's path comes from
# src/sim/detmath.hpp, so the model's bits do not depend on which libm (or
# which of its CPU-dispatched kernels) a host runs. sqrt is the one
# exception: IEEE 754 requires it to be correctly rounded, so every libm
# agrees on it bit for bit.
#
#   tools/check_no_libm.sh OBJECT_DIR
#
# OBJECT_DIR is the facs_core object directory of a build, e.g.
# build/CMakeFiles/facs_core.dir.
set -euo pipefail

objdir=${1:?usage: check_no_libm.sh OBJECT_DIR}
libm=$(${CXX:-g++} -print-file-name=libm.so.6)
if [ ! -e "$libm" ]; then
  echo "check_no_libm: no libm.so.6 next to ${CXX:-g++}" >&2
  exit 2
fi

# Every function libm exports, unversioned, minus the allowed sqrt.
exports=$(nm -D --defined-only "$libm" | awk '{print $3}' | sed 's/@.*//' |
  grep -vx 'sqrt' | sort -u)

objects=$(find "$objdir" -name '*.o' | sort)
if [ -z "$objects" ]; then
  echo "check_no_libm: no objects under $objdir" >&2
  exit 2
fi

status=0
for obj in $objects; do
  calls=$(nm -u "$obj" | awk '{print $2}' | sort -u |
    comm -12 - <(echo "$exports") | tr '\n' ' ')
  if [ -n "$calls" ]; then
    echo "${obj#"$objdir"/}: calls libm: $calls" >&2
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "check_no_libm: $(echo "$objects" | wc -l) objects, no libm call but sqrt"
fi
exit "$status"
