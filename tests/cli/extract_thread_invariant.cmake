# Extracts the same small Pittsburgh policy with a one-thread and a
# four-thread shared pool and requires byte-identical bundles: the thread
# count may change speed, never bits.
#   cmake -DCLI=verihvac_cli -DWORK=dir -P extract_thread_invariant.cmake
file(MAKE_DIRECTORY "${WORK}")
foreach(threads 1 4)
  set(bundle "${WORK}/threads_${threads}.vhp")
  file(REMOVE "${bundle}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env VERI_HVAC_THREADS=${threads}
            "${CLI}" extract --city Pittsburgh --points 120 --out "${bundle}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "extract at VERI_HVAC_THREADS=${threads} exited ${rc}:\n${out}${err}")
  endif()
  file(SHA256 "${bundle}" hash_${threads})
endforeach()
if(NOT hash_1 STREQUAL hash_4)
  message(FATAL_ERROR "bundles differ across thread counts: ${hash_1} (1) vs ${hash_4} (4)")
endif()
message(STATUS "extract bundle SHA-256 at 1 and 4 threads: ${hash_1}")
