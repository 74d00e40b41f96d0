#!/usr/bin/env bash
# Run a command and require one exit code; its output passes through.
#
#   tools/expect_exit.sh <code> <command> [args...]
#
# weakscan's exit codes carry meaning (3 = interrupted, 137 = killed), so
# every CI invocation states the code it expects instead of relying on -e.
want=$1
shift
"$@"
got=$?
if [ "$got" -ne "$want" ]; then
  echo "expect_exit: '$*' exited $got, want $want" >&2
  exit 1
fi
