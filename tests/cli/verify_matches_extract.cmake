# Extracts a small Pittsburgh policy into BUNDLE, re-verifies it with
# `verify --city Pittsburgh`, and requires both commands to report the same
# criterion-#1 safe probability and failure count.
#   cmake -DCLI=verihvac_cli -DBUNDLE=out.vhp -P verify_matches_extract.cmake
function(run_cli out_var)
  execute_process(COMMAND "${CLI}" ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}:\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# "safe probability: 0.9385 (123/2000 failed)" and
# "safe probability 0.9385 (123/2000 failed) -> PASS" share this tail.
set(criterion_one "safe probability:? ([0-9.]+ \\([0-9]+/[0-9]+ failed\\))")

run_cli(extracted extract --city Pittsburgh --points 120 --out "${BUNDLE}")
if(NOT extracted MATCHES "${criterion_one}")
  message(FATAL_ERROR "extract printed no criterion-#1 line:\n${extracted}")
endif()
set(from_extract "${CMAKE_MATCH_1}")

run_cli(verified verify --policy "${BUNDLE}" --city Pittsburgh)
if(NOT verified MATCHES "${criterion_one}")
  message(FATAL_ERROR "verify printed no criterion-#1 line:\n${verified}")
endif()
if(NOT CMAKE_MATCH_1 STREQUAL from_extract)
  message(FATAL_ERROR "extract reported ${from_extract}, verify ${CMAKE_MATCH_1}")
endif()
message(STATUS "criterion #1 from extract and verify: ${from_extract}")
