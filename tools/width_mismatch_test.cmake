# spe_cli predict/evaluate refuse data whose feature count differs from
# the model's schema (usage exit 2) before scoring a row, and score data
# of the right width as usual. Run by ctest (`cmake -P`).

set(dir ${WORK_DIR}/width_mismatch_test)
file(MAKE_DIRECTORY ${dir})
# The first CSV line is a header row.
file(WRITE ${dir}/two.csv "a,b,label\n1.5,0.25,1\n2.5,1.25,1\n3.5,0.75,1\n"
  "-1.5,-0.75,0\n-2.5,-1.75,0\n-0.5,-2.75,0\n-3.5,-0.25,0\n-4.5,-1.25,0\n"
  "-5.5,-2.25,0\n-6.5,-0.75,0\n-1.25,-1.5,0\n-2.25,-0.5,0\n")
file(WRITE ${dir}/one.csv "a,label\n1.5,1\n-2.5,0\n")
execute_process(
  COMMAND ${SPE_CLI} train --data ${dir}/two.csv --n 3 --no-cache
    --model ${dir}/m.model
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spe_cli train failed (${rc}): ${err}")
endif()

foreach(cmd predict evaluate)
  foreach(data one two)
    execute_process(
      COMMAND ${SPE_CLI} ${cmd} --data ${dir}/${data}.csv
        --model ${dir}/m.model --no-cache
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(data STREQUAL "two" AND (NOT rc EQUAL 0 OR out STREQUAL ""))
      message(FATAL_ERROR "${cmd} of matching data failed (${rc}): ${err}")
    endif()
    if(data STREQUAL "one" AND (NOT rc EQUAL 2 OR NOT out STREQUAL "" OR
       NOT err MATCHES "--data has 1 features but the model expects 2"))
      message(FATAL_ERROR "${cmd} of 1-feature data: rc=${rc} ${out} ${err}")
    endif()
  endforeach()
endforeach()
