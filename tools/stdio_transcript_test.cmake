# One transport, one transcript: spe_serve --stdio runs on the same
# event loop as --port, so one request script must get byte-identical
# responses however it arrives. Run by ctest:
#
#   1. train a tiny model and write a request script: CSV and JSON rows,
#      a blank line, wrong-width rows, malformed lines, a >1 MiB line,
#      STATS after some scores, a bare `!reload`, and an unterminated
#      final line
#   2. serve it three ways: --stdio with stdin a regular file, --stdio
#      with stdin a pipe, and over --port (a client that half-closes,
#      so the unterminated final line is answered as at stdin EOF)
#   3. the three transcripts must match byte for byte once the STATS
#      line's timing fields (rows_per_sec, latency_us, elapsed_s) are
#      masked; --max-batch 1 makes the batch counts deterministic, and
#      the `!reload` right after STATS holds back the rows behind it, so
#      STATS counts exactly the rows before it
#   4. a --stdio server whose stdout reader exits early must end by
#      itself, exit 0, and not die of a signal

foreach(var SPE_CLI SPE_SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

find_program(BASH_PROGRAM bash)
if(NOT BASH_PROGRAM)
  message(FATAL_ERROR "bash is required for the stdio transcript test")
endif()
# bash's /dev/tcp cannot half-close a connection; the TCP leg needs to.
find_program(PYTHON3_PROGRAM python3)
if(NOT PYTHON3_PROGRAM)
  message(FATAL_ERROR "python3 is required for the stdio transcript test")
endif()

set(dir ${WORK_DIR}/stdio_transcript_test)
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

file(WRITE ${dir}/client.py
[=[import socket
import sys

# Sends the request script, half-closes, and saves every response byte
# until the server closes the connection.
conn = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=60)
with open(sys.argv[2], "rb") as f:
    conn.sendall(f.read())
conn.shutdown(socket.SHUT_WR)
with open(sys.argv[3], "wb") as out:
    while True:
        chunk = conn.recv(65536)
        if not chunk:
            break
        out.write(chunk)
]=])

file(WRITE ${dir}/transcript.sh
[=[#!/bin/bash
set -u
serve="$1"; python="$2"; dir="$3"
cd "$dir" || exit 90
flags=(--model m.model --max-batch 1 --workers 1)

{
  printf '0.5,0.25\n'
  printf '{"id":1,"features":[1.5,-0.75]}\n'
  printf -- '-1.5,2.25\n'
  printf '\n'
  printf '1,2,3\n'
  printf '{"id":"w","features":[1,2,3]}\n'
  printf 'not a row\n'
  printf '{"id":2,"features":[0.25,\n'
  head -c 1100000 /dev/zero | tr '\0' '5'
  printf '\n'
  printf '2.5,0.5\n'
  printf 'STATS\n'
  printf '!reload\n'
  printf '{"id":3,"features":[-0.5,0.75]}\n'
  printf '3.5,-1.25'
} > requests.txt

# ---- stdin a regular file ------------------------------------------
timeout 60 "$serve" "${flags[@]}" --stdio < requests.txt > file.txt 2> file.err
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "stdio (file) run exited $rc" >&2; cat file.err >&2; exit 91
fi

# ---- stdin a pipe --------------------------------------------------
cat requests.txt | timeout 60 "$serve" "${flags[@]}" --stdio > pipe.txt \
  2> pipe.err
rc=${PIPESTATUS[1]}
if [ "$rc" -ne 0 ]; then
  echo "stdio (pipe) run exited $rc" >&2; cat pipe.err >&2; exit 92
fi

# ---- over TCP (retry across candidate ports) -----------------------
pid=""
for try in 1 2 3 4 5; do
  port=$((20000 + RANDOM % 30000))
  "$serve" "${flags[@]}" --port "$port" 2> tcp.err &
  pid=$!
  for _ in $(seq 1 50); do
    grep -q "listening on" tcp.err 2>/dev/null && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  grep -q "listening on" tcp.err 2>/dev/null && break
  wait "$pid" 2>/dev/null
  pid=""
done
if [ -z "$pid" ]; then echo "TCP server never came up" >&2; exit 93; fi
( sleep 120; kill -9 "$pid" 2>/dev/null ) < /dev/null > /dev/null 2>&1 &
watchdog=$!
timeout 60 "$python" client.py "$port" requests.txt tcp.txt
rc=$?
kill -TERM "$pid"
wait "$pid"; serve_rc=$?
kill "$watchdog" 2>/dev/null
if [ "$rc" -ne 0 ] || [ "$serve_rc" -ne 0 ]; then
  echo "TCP run failed: client $rc, server $serve_rc" >&2
  cat tcp.err >&2; exit 94
fi

# ---- the transcripts ------------------------------------------------
mask() {
  sed -E -e 's/"rows_per_sec":[0-9.]+/"rows_per_sec":T/' \
         -e 's/"latency_us":\{[^}]*\}/"latency_us":T/' \
         -e 's/"elapsed_s":[0-9.]+/"elapsed_s":T/' "$1"
}
mask file.txt > file.masked
mask pipe.txt > pipe.masked
mask tcp.txt > tcp.masked
for other in pipe tcp; do
  if ! cmp -s file.masked "$other.masked"; then
    echo "stdio (file) and $other transcripts differ:" >&2
    diff file.masked "$other.masked" | cut -c1-200 >&2
    exit 95
  fi
done

# One response per non-blank request line, with the ones that pin the
# shared semantics checked by content.
check() {
  local got
  got=$(sed -n "$1p" file.txt)
  case "$got" in
    $2) ;;
    *) echo "response $1: got '${got:0:200}', wanted $2" >&2; exit 96 ;;
  esac
}
lines=$(wc -l < file.txt)
if [ "$lines" -ne 13 ]; then
  echo "wanted 13 responses, got $lines:" >&2; cut -c1-200 file.txt >&2
  exit 97
fi
check 4 'ERR expected 2 features, got 3'
check 5 '{"id":"w","error":"expected 2 features, got 3"}'
check 6 'ERR *'
check 7 '{"error":*'  # a JSON line that does not parse echoes no id
check 8 'ERR request line exceeds 1048576 bytes'
check 10 '{"rows":4,"rows_per_sec":*,"batches":4,*'
check 11 'OK reloaded version 2 from m.model *'
check 12 '{"id":3,"proba":*}'
check 13 '[0-9]*'

# ---- the stdout reader goes away early -----------------------------
yes 0.5,0.25 | timeout 60 "$serve" --model m.model --stdio 2> head.err \
  | head -1 > head.txt
rcs=("${PIPESTATUS[@]}")
if [ "${rcs[1]}" -ne 0 ]; then
  echo "stdio server exited ${rcs[1]} after its stdout reader left" \
       "(124 = hung until the timeout, >128 = killed by a signal)" >&2
  cat head.err >&2; exit 98
fi
if ! [ -s head.txt ]; then
  echo "no response before the reader left" >&2; exit 99
fi
exit 0
]=])

execute_process(
  COMMAND ${BASH_PROGRAM} ${dir}/transcript.sh ${SPE_SERVE}
          ${PYTHON3_PROGRAM} ${dir}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stdio transcript check failed (${rc}): ${out} ${err}")
endif()

message(STATUS "stdio transcript ok: file, pipe and TCP transcripts match, "
               "early stdout close ends the server cleanly")
