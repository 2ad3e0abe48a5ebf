# Fault-injected end-to-end checks of the serving robustness features,
# run by ctest (`cmake -P`, no shell needed):
#   1. train a tiny model bundle with spe_cli
#   2. corrupted / truncated artifacts must be rejected with a clear error
#      and the corrupt-artifact exit code (4, spe/common/exit_codes.h)
#   3. a headerless (bare spe-model) artifact is refused with exit 4
#   4. SPE_FAULTS=score_delay_ms + --default-deadline-ms: every request
#      expires in the queue and comes back DEADLINE_EXCEEDED, unscored
#   5. SPE_FAULTS=score_delay_ms + watermark flags: backlog builds behind
#      the slowed worker and responses are marked "degraded":true
#   6. flag-parsing hardening: duplicate flags and garbage values are
#      usage errors, not silently misread config; a missing data file is
#      an I/O error (3) and a malformed one a corrupt input (4)
#   7. field-mutated artifacts (payload edits resealed with a fresh
#      CRC-32) are refused: spe_cli exits 4, and a live spe_serve answers
#      `ERR reload failed` and scores the next row exactly as before

foreach(var SPE_CLI SPE_SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

set(dir ${WORK_DIR}/serve_fault_test)
file(MAKE_DIRECTORY ${dir})

# ---- 1. train a model bundle ------------------------------------------
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
  COMMAND ${SPE_CLI} train --data ${dir}/train.csv --n 5 --model ${dir}/m.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spe_cli train failed (${rc}): ${out} ${err}")
endif()

file(READ ${dir}/m.model artifact)
file(WRITE ${dir}/one_row.txt "1.5,0.25\n")

# ---- 2a. bit-flipped payload is rejected ------------------------------
# The bundle is text; swapping the final payload byte keeps the length
# (so only the checksum can notice) and must trip the CRC verification.
string(LENGTH "${artifact}" len)
math(EXPR head_len "${len} - 1")
string(SUBSTRING "${artifact}" 0 ${head_len} head)
string(SUBSTRING "${artifact}" ${head_len} 1 last_char)
if(last_char STREQUAL "0")
  file(WRITE ${dir}/corrupt.model "${head}1")
else()
  file(WRITE ${dir}/corrupt.model "${head}0")
endif()

execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/corrupt.model --stdio
  INPUT_FILE ${dir}/one_row.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR
    "corrupted artifact must exit 4 (corrupt artifact), got ${rc}: ${out}")
endif()
if(NOT err MATCHES "model artifact corrupted")
  message(FATAL_ERROR "corruption not reported clearly: ${err}")
endif()

# ---- 2b. truncated payload is rejected --------------------------------
math(EXPR trunc_len "${len} - 20")
string(SUBSTRING "${artifact}" 0 ${trunc_len} truncated)
file(WRITE ${dir}/truncated.model "${truncated}")

execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/truncated.model --stdio
  INPUT_FILE ${dir}/one_row.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR
    "truncated artifact must exit 4 (corrupt artifact), got ${rc}: ${out}")
endif()
if(NOT err MATCHES "model artifact truncated")
  message(FATAL_ERROR "truncation not reported clearly: ${err}")
endif()

# ---- 3. headerless artifact is refused ---------------------------------
# Stripping the header lines (the bundle header plus the v3
# hardness_histogram line) leaves a bare spe-model stream, the
# pre-bundle artifact shape: it carries no checksum, so it is refused.
string(FIND "${artifact}" "\n" eol)
math(EXPR after_header "${eol} + 1")
string(SUBSTRING "${artifact}" 0 ${after_header} header_line)
string(SUBSTRING "${artifact}" ${after_header} -1 tail)
string(FIND "${tail}" "\n" eol2)
math(EXPR histogram_len "${eol2} + 1")
string(SUBSTRING "${tail}" 0 ${histogram_len} histogram_line)
string(SUBSTRING "${tail}" ${histogram_len} -1 payload)
file(WRITE ${dir}/legacy.model "${payload}")

execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/legacy.model --stdio
  INPUT_FILE ${dir}/one_row.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR "headerless artifact must exit 4, got ${rc}: ${out}")
endif()
if(NOT err MATCHES "bare spe-model stream")
  message(FATAL_ERROR "headerless artifact not reported clearly: ${err}")
endif()

# ---- 4. injected scoring delay expires queued deadlines ---------------
# The worker sleeps 200ms after popping each batch (before deadline
# triage), so a 20ms default deadline is guaranteed to have expired by
# the time the request is triaged — no timing luck involved.
file(WRITE ${dir}/deadline_requests.txt
  "1.5,0.25\n-2.5,-1.75\n{\"id\":9,\"features\":[1.5,0.25]}\n")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SPE_FAULTS=score_delay_ms=200
    ${SPE_SERVE} --model ${dir}/m.model --stdio --default-deadline-ms 20
  INPUT_FILE ${dir}/deadline_requests.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "deadline run failed (${rc}): ${err}")
endif()
string(REGEX REPLACE "\n$" "" trimmed "${out}")
string(REPLACE "\n" ";" lines "${trimmed}")
foreach(line IN LISTS lines)
  if(NOT line MATCHES "DEADLINE_EXCEEDED")
    message(FATAL_ERROR "expected every response to expire, got: ${line}")
  endif()
endforeach()
list(LENGTH lines n)
if(NOT n EQUAL 3)
  message(FATAL_ERROR "expected 3 responses, got ${n}: ${out}")
endif()
if(NOT err MATCHES "\"deadline_expired\":3")
  message(FATAL_ERROR "stats did not count expirations: ${err}")
endif()

# ---- 5. backlog behind a slowed worker engages degradation ------------
# One worker, one row per batch, 50ms injected delay per batch: the
# remaining requests are all queued before the first sleep ends, so
# every pop after the first sees a backlog over the high watermark.
set(json_requests "")
foreach(i RANGE 0 9)
  string(APPEND json_requests "{\"id\":${i},\"features\":[1.5,0.25]}\n")
endforeach()
file(WRITE ${dir}/degrade_requests.txt "${json_requests}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SPE_FAULTS=score_delay_ms=50
    ${SPE_SERVE} --model ${dir}/m.model --stdio
    --workers 1 --max-batch 1 --max-delay-us 0
    --degrade-high 2 --degrade-low 1 --degrade-prefix 1
  INPUT_FILE ${dir}/degrade_requests.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "degrade run failed (${rc}): ${err}")
endif()
if(NOT out MATCHES "\"degraded\":true")
  message(FATAL_ERROR "no response was marked degraded: ${out}")
endif()
if(NOT err MATCHES "\"degraded_batches\":[1-9]")
  message(FATAL_ERROR "stats did not count degraded batches: ${err}")
endif()

# ---- 6. flag-parsing hardening ----------------------------------------
# Usage errors are exit code 2, distinct from I/O (3) and corrupt
# artifacts (4) so a supervisor can tell a typo from a bad deploy.
execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/m.model --model ${dir}/m.model --stdio
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "duplicate flag --model")
  message(FATAL_ERROR "duplicate flag not rejected with exit 2: rc=${rc} ${err}")
endif()

execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/m.model --port banana
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--port expects an integer")
  message(FATAL_ERROR "garbage --port not rejected with exit 2: rc=${rc} ${err}")
endif()

execute_process(
  COMMAND ${SPE_CLI} train --data ${dir}/train.csv --n 10abc
    --model ${dir}/ignored.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--n expects an integer")
  message(FATAL_ERROR "garbage --n not rejected with exit 2: rc=${rc} ${err}")
endif()

# Missing data file: an I/O failure (3), not a generic crash.
execute_process(
  COMMAND ${SPE_CLI} train --data ${dir}/no_such_file.csv --n 5
    --model ${dir}/ignored.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 3 OR NOT err MATCHES "cannot open")
  message(FATAL_ERROR "missing data must exit 3 (I/O): rc=${rc} ${err}")
endif()

# Malformed data content ("1.5x" is not a number): refused with its
# path:line and the corrupt exit code (4), not read as 1.5 and not a
# generic runtime error.
file(WRITE ${dir}/malformed.csv "a,b,label\n1.5,2,1\n1.5x,2,0\n")
execute_process(
  COMMAND ${SPE_CLI} train --data ${dir}/malformed.csv --n 5
    --model ${dir}/ignored.model
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 4 OR NOT err MATCHES "malformed.csv:3: field 1: not a number")
  message(FATAL_ERROR "malformed CSV must exit 4 (corrupt): rc=${rc} ${err}")
endif()

# ---- 7. field-mutated artifacts are refused ---------------------------
# CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), so a payload edit
# can be resealed and reach the decoder's field checks instead of
# stopping at the checksum.
function(crc32_hex text out_var)
  string(HEX "${text}" hex)
  string(LENGTH "${hex}" n)
  set(crc 4294967295)
  set(i 0)
  while(i LESS n)
    string(SUBSTRING "${hex}" ${i} 2 byte)
    math(EXPR crc "${crc} ^ 0x${byte}")
    foreach(bit RANGE 7)
      math(EXPR crc "(${crc} >> 1) ^ (3988292384 & -(${crc} & 1))")
    endforeach()
    math(EXPR i "${i} + 2")
  endwhile()
  math(EXPR crc "${crc} ^ 4294967295" OUTPUT_FORMAT HEXADECIMAL)
  string(SUBSTRING "${crc}" 2 -1 digits)
  string(TOLOWER "${digits}" digits)
  string(LENGTH "${digits}" len)
  while(len LESS 8)
    string(PREPEND digits "0")
    math(EXPR len "${len} + 1")
  endwhile()
  set(${out_var} ${digits} PARENT_SCOPE)
endfunction()

# Writes the artifact's header lines over `body`, with payload_bytes and
# crc32 fitted to it.
function(write_sealed path body)
  string(LENGTH "${body}" size)
  crc32_hex("${body}" crc)
  string(REGEX REPLACE "payload_bytes [0-9]+ crc32 [0-9a-f]+"
    "payload_bytes ${size} crc32 ${crc}" head "${header_line}")
  file(WRITE ${path} "${head}${histogram_line}${body}")
endfunction()

# Header fields outside the CRC: no reseal needed to reach the decoder.
string(REGEX REPLACE "payload_bytes [0-9]+" "payload_bytes 900000000000"
  mutant "${artifact}")
file(WRITE ${dir}/mut_payload_bytes.model "${mutant}")
string(REGEX REPLACE "^hardness_histogram [0-9]+"
  "hardness_histogram 4000000000" mutant "${histogram_line}")
file(WRITE ${dir}/mut_histogram.model "${header_line}${mutant}${payload}")

# Payload edits of the first tree, resealed: its node count, and its
# root split's feature and left child.
string(FIND "${payload}" "nodes " nodes_at)
string(SUBSTRING "${payload}" 0 ${nodes_at} before_nodes)
string(SUBSTRING "${payload}" ${nodes_at} -1 from_nodes)
string(FIND "${from_nodes}" "\n" count_end)
string(SUBSTRING "${from_nodes}" ${count_end} -1 after_count)
write_sealed(${dir}/mut_nodes.model
  "${before_nodes}nodes 4000000000${after_count}")
string(SUBSTRING "${after_count}" 1 -1 from_root)
string(FIND "${from_root}" "\n" root_len)
string(SUBSTRING "${from_root}" 0 ${root_len} root_line)
string(SUBSTRING "${from_root}" ${root_len} -1 after_root)
string(SUBSTRING "${from_nodes}" 0 ${count_end} count_line)
set(before_root "${before_nodes}${count_line}\n")
if(NOT root_line MATCHES "^([0-9]+) ([^ ]+) ([0-9]+) ([0-9]+) ([^ ]+)$")
  message(FATAL_ERROR "root of the first tree is not a split: ${root_line}")
endif()
set(threshold ${CMAKE_MATCH_2})
set(left ${CMAKE_MATCH_3})
set(right ${CMAKE_MATCH_4})
set(value ${CMAKE_MATCH_5})
write_sealed(${dir}/mut_child.model
  "${before_root}${CMAKE_MATCH_1} ${threshold} 99999 ${right} ${value}${after_root}")
write_sealed(${dir}/mut_feature.model
  "${before_root}7 ${threshold} ${left} ${right} ${value}${after_root}")
# Sanity: resealing the untouched payload reproduces the artifact, so
# the refusals below are the decoder's field checks, not a bad seal.
write_sealed(${dir}/resealed.model "${payload}")
file(READ ${dir}/resealed.model resealed)
if(NOT resealed STREQUAL artifact)
  message(FATAL_ERROR "resealing the unmutated payload changed the artifact")
endif()

set(mutants payload_bytes histogram nodes child feature)
foreach(m IN LISTS mutants)
  foreach(cmd predict inspect)
    execute_process(
      COMMAND ${SPE_CLI} ${cmd} --model ${dir}/mut_${m}.model
        --data ${dir}/train.csv --no-cache
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 4)
      message(FATAL_ERROR "spe_cli ${cmd} of mutant ${m}: exit ${rc}, not 4")
    endif()
  endforeach()
endforeach()

# A live server refuses every mutant and keeps scoring on the old model.
execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/m.model --stdio
  INPUT_FILE ${dir}/one_row.txt OUTPUT_VARIABLE score)
set(session "1.5,0.25\n")
set(expected "${score}")
foreach(m IN LISTS mutants)
  string(APPEND session "!reload ${dir}/mut_${m}.model\n1.5,0.25\n")
  string(APPEND expected "ERR reload failed\n${score}")
endforeach()
file(WRITE ${dir}/mutant_session.txt "${session}")
execute_process(
  COMMAND ${SPE_SERVE} --model ${dir}/m.model --stdio
  INPUT_FILE ${dir}/mutant_session.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(REGEX REPLACE "ERR reload failed[^\n]*" "ERR reload failed" out "${out}")
if(NOT rc EQUAL 0 OR NOT out STREQUAL expected)
  message(FATAL_ERROR "mutant reloads (rc ${rc}):\n${out}\nexpected:\n${expected}")
endif()

message(STATUS "serve fault-injection pipeline ok")
