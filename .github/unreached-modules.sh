#!/usr/bin/env bash
# Names every module under lib/ that nothing outside the test suite
# reaches: no other compilation unit of lib/, bin/, perfbench/ or
# examples/ imports it (a reference from its own library, a qualified
# Library.Module, an alias or an open all count).  Exits 1 when there is
# one.  Reads the native objects and typed interfaces of a finished
# `dune build @all`.
#
#   .github/unreached-modules.sh [BUILD_DIR]    (default _build/default)
set -euo pipefail

build=${1:-_build/default}

# Every interface a product compilation unit imports, bar its own.  Each
# library's generated wrapper (the unit without "__") aliases all of its
# modules, so it is skipped.
imported=$(
  for dir in lib bin perfbench examples; do
    find "$build/$dir" \( -name '*.cmx' -o -name '*.cmti' \)
  done | while read -r file; do
    unit=$(basename "${file%.*}")
    [[ $file == "$build"/lib/* && $unit != *__* ]] && continue
    ocamlobjinfo "$file" | awk -v self="${unit^}" '
      /^(Cmt i|I)nterfaces imported:/ { on = 1; next }
      on && /^\t/ { if ($2 != self) print $2; next }
      { on = 0 }'
  done | sort -u
)

status=0
for file in "$build"/lib/*/.*.objs/byte/*__*.cmt; do
  unit=$(basename "${file%.cmt}")
  unit=${unit^}
  if ! grep -qx "$unit" <<<"$imported"; then
    echo "unreached module: ${unit/__/.}" >&2
    status=1
  fi
done
exit $status
