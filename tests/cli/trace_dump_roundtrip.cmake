# Captures a small fleet run's telemetry into WORK/A, consolidates it with
# `trace dump --out WORK/B`, and requires the `trace` verbs to read the
# export back: `trace verify --dir B` passes, `trace info` parses the
# segment, and `trace ls --dir B` reports the same record count and replay
# fingerprint as A. A second dump into B must be refused.
#   cmake -DCLI=verihvac_cli -DWORK=dir -P trace_dump_roundtrip.cmake
function(run_cli out_var)
  execute_process(COMMAND "${CLI}" ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}:\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# `trace ls` prints one row per segment ending in its replay fingerprint,
# then "N segment(s), R record(s), P payload byte(s)".
function(ls_summary dir segments_var records_var fingerprint_var)
  run_cli(listed trace ls --dir "${dir}")
  if(NOT listed MATCHES "([0-9]+) segment\\(s\\), ([0-9]+) record\\(s\\)")
    message(FATAL_ERROR "trace ls --dir ${dir} printed no summary:\n${listed}")
  endif()
  set(${segments_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
  set(${records_var} "${CMAKE_MATCH_2}" PARENT_SCOPE)
  if(NOT listed MATCHES "sealed [^\n]* ([0-9a-f]+)\n")
    message(FATAL_ERROR "trace ls --dir ${dir} printed no sealed segment:\n${listed}")
  endif()
  set(${fingerprint_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

set(A "${WORK}/A")
set(B "${WORK}/B")
file(REMOVE_RECURSE "${WORK}")

run_cli(captured adapt-bench --buildings 4 --steps 12 --telemetry-dir "${A}")
ls_summary("${A}" segments_a records_a fingerprint_a)
if(NOT segments_a EQUAL 1)
  # One merged segment's fingerprint chains every record, so it equals the
  # capture's only when the capture itself is one segment.
  message(FATAL_ERROR "capture wrote ${segments_a} segments; this check needs one")
endif()

run_cli(dumped trace dump --dir "${A}" --out "${B}")
if(NOT dumped MATCHES "into ([^\n]*\\.vhtseg) ")
  message(FATAL_ERROR "trace dump named no segment:\n${dumped}")
endif()
run_cli(info trace info --segment "${CMAKE_MATCH_1}")

run_cli(verified trace verify --dir "${B}")
if(NOT verified MATCHES "all 1 segment\\(s\\) verified")
  message(FATAL_ERROR "trace verify --dir ${B} did not pass:\n${verified}")
endif()

ls_summary("${B}" segments_b records_b fingerprint_b)
if(NOT records_b EQUAL records_a OR NOT fingerprint_b STREQUAL fingerprint_a)
  message(FATAL_ERROR "export holds ${records_b} records (fingerprint ${fingerprint_b}), "
                      "capture ${records_a} (fingerprint ${fingerprint_a})")
endif()

execute_process(COMMAND "${CLI}" trace dump --dir "${A}" --out "${B}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "already holds segment")
  message(FATAL_ERROR "a second dump into ${B} was not refused (exit ${rc}):\n${out}${err}")
endif()
message(STATUS "trace dump round trip: ${records_b} records, fingerprint ${fingerprint_b}")
