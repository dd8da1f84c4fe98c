# ctest driver of a refused-invocation row: runs CMD and passes when it
# exits non-zero and its stderr matches EXPECT. The stderr is echoed, so a
# row's FAIL_REGULAR_EXPRESSION can reject what the refusal says.
#
#   cmake "-DCMD=<program;arg;...>" "-DEXPECT=<regex>" -P check_refused.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc ERROR_VARIABLE err
                OUTPUT_QUIET INPUT_FILE /dev/null TIMEOUT 10)
if(rc EQUAL 0)
  message(FATAL_ERROR "'${CMD}' exited 0; expected a refusal")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "'${CMD}' exited ${rc} without '${EXPECT}':\n${err}")
endif()
message("${err}")
