# A flag spe_serve does not read is a usage error (exit 2) naming the
# flag, never silently ignored — including knobs this build no longer
# has (--kernel-mode, --num-features). Run by ctest (`cmake -P`).

foreach(flag kernel-mode num-features)
  execute_process(
    COMMAND ${SPE_SERVE} --model m.model --stdio --${flag} 2
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag --${flag}")
    message(FATAL_ERROR "--${flag} not refused with exit 2: rc=${rc} ${err}")
  endif()
endforeach()
