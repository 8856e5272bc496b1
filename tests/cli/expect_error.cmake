# Runs verihvac_cli with ARGS (one space-separated string) and requires a
# non-zero exit whose stderr contains EXPECT verbatim.
#   cmake -DCLI=verihvac_cli -DARGS="extract --points -5" -DEXPECT=text -P expect_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit from '${ARGS}', got 0:\n${out}${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr of '${ARGS}' (exit ${rc}) lacks \"${EXPECT}\":\n${err}")
endif()
