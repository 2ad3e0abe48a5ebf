# SIGTERM/SIGINT drain check for spe_serve --stdio, run by ctest. An
# orchestrator stops a service with SIGTERM, an operator with Ctrl-C;
# both must get the same graceful drain. The scenario needs a live
# process to signal, so the session runs under bash with the server's
# stdin on a fifo that is *held open* the whole time — the only way the
# server can exit is the signal, never EOF. Three cases:
#
#   term  one complete request, then SIGTERM
#   int   one complete request, then SIGINT
#   half  one complete request plus the first half of a second line
#         (no newline), then SIGTERM: the partial line sits unread in
#         the server when the signal lands, and must be dropped
#
# Each case: train a tiny model once, start spe_serve --stdio reading
# the fifo, write the input, wait for the complete request's response,
# signal the server while its stdin is still open; it must exit 0,
# announce the drain on stderr, answer exactly the complete request,
# and print a final stats snapshot counting one row.

foreach(var SPE_CLI SPE_SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

find_program(BASH_PROGRAM bash)
if(NOT BASH_PROGRAM)
  message(FATAL_ERROR "bash is required for the SIGTERM drain test")
endif()

set(dir ${WORK_DIR}/sigterm_drain_test)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

set(csv "")
foreach(i RANGE 0 39)
  math(EXPR parity "${i} % 5")
  math(EXPR a "${i} % 7")
  math(EXPR b "${i} % 3")
  if(parity EQUAL 0)
    string(APPEND csv "${a}.5,${b}.25,1\n")
  else()
    string(APPEND csv "-${a}.5,-${b}.75,0\n")
  endif()
endforeach()
file(WRITE ${dir}/train.csv "${csv}")

execute_process(
  COMMAND ${SPE_CLI} train --data ${dir}/train.csv --n 5
          --model ${dir}/m.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spe_cli train failed (${rc}): ${out} ${err}")
endif()

file(WRITE ${dir}/drain.sh
[=[#!/bin/bash
set -u
serve="$1"; dir="$2"; case_name="$3"
cd "$dir" || exit 90
case "$case_name" in
  term) sig=TERM; input='1.5,0.25\n' ;;
  int)  sig=INT;  input='1.5,0.25\n' ;;
  half) sig=TERM; input='1.5,0.25\n-2.5,-0' ;;
  *) exit 90 ;;
esac
rm -f in.fifo out.txt err.txt
mkfifo in.fifo || exit 90

"$serve" --model m.model --stdio --workers 1 \
  < in.fifo > out.txt 2> err.txt &
pid=$!
# Watchdog: a hung drain must fail the test, not wedge ctest. The
# redirections detach it from the harness pipes — an orphaned sleep
# holding stdout open would make cmake wait out the full timeout.
( sleep 60; kill -9 "$pid" 2>/dev/null ) < /dev/null > /dev/null 2>&1 &
watchdog=$!

# Opening the write end unblocks the server's open of the read end;
# keeping fd 3 open for the rest of the script is what guarantees the
# server never sees EOF — only the signal can stop it.
exec 3> in.fifo
printf "$input" >&3

for _ in $(seq 1 300); do
  [ -s out.txt ] && break
  sleep 0.1
done
if ! [ -s out.txt ]; then
  kill -9 "$pid" 2>/dev/null
  echo "$case_name: server never answered the request" >&2
  exit 91
fi

kill -"$sig" "$pid"
wait "$pid"; rc=$?
kill "$watchdog" 2>/dev/null
exec 3>&-

if [ "$rc" -ne 0 ]; then
  echo "$case_name: server exited $rc after SIG$sig (wanted 0)" >&2
  cat err.txt >&2
  exit 92
fi
if ! grep -q "received SIG$sig, draining" err.txt; then
  echo "$case_name: no drain announcement on stderr:" >&2
  cat err.txt >&2
  exit 93
fi
if ! grep -q '"rows":1' err.txt; then
  echo "$case_name: final stats snapshot missing the answered request:" >&2
  cat err.txt >&2
  exit 94
fi
if [ "$(wc -l < out.txt)" -ne 1 ] || [ "$(wc -c < out.txt)" -lt 2 ]; then
  echo "$case_name: wanted exactly the complete request's response:" >&2
  cat out.txt >&2
  exit 95
fi
exit 0
]=])

foreach(case term int half)
  execute_process(
    COMMAND ${BASH_PROGRAM} ${dir}/drain.sh ${SPE_SERVE} ${dir} ${case}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${case} drain scenario failed (${rc}): ${out} ${err}")
  endif()
endforeach()

message(STATUS "signal drain ok: SIGTERM, SIGINT and a half-written line "
               "all drained to exit 0 with stdin still open")
