# ctest driver of the bench_case_<name> rows: runs one swiftsim_bench case
# and passes when it exits 0 and, given JSON, when it appended at least one
# line to that file and every appended line parses as a JSON object.
#
#   cmake -DBENCH=<swiftsim_bench> -DCASE=<case> [-DJSON=<path>]
#         [-DARGS=<flag;flag;...>] -P check_bench_case.cmake

# Lines already in `path`; the file is append-only, so earlier runs stay.
function(count_lines path out)
  set(n 0)
  if(EXISTS "${path}")
    file(READ "${path}" content)
    string(REGEX MATCHALL "\n" newlines "${content}")
    list(LENGTH newlines n)
  endif()
  set(${out} ${n} PARENT_SCOPE)
endfunction()

set(cmd "${BENCH}" "${CASE}" ${ARGS})
if(JSON)
  list(APPEND cmd "--json=${JSON}")
  count_lines("${JSON}" before)
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "swiftsim_bench ${CASE} exited ${rc}")
endif()
if(NOT JSON)
  return()
endif()

count_lines("${JSON}" after)
if(NOT after GREATER before)
  message(FATAL_ERROR "swiftsim_bench ${CASE} appended no record to ${JSON}")
endif()
file(READ "${JSON}" content)
# A ';' is a CMake list separator; '?' keeps every line as valid (or as
# invalid) JSON as it was.
string(REPLACE ";" "?" content "${content}")
string(REGEX MATCHALL "[^\n]*\n" lines "${content}")
math(EXPR last "${after} - 1")
foreach(i RANGE ${before} ${last})
  list(GET lines ${i} line)
  string(JSON type ERROR_VARIABLE err TYPE "${line}")
  if(err OR NOT type STREQUAL "OBJECT")
    message(FATAL_ERROR "line ${i} of ${JSON} is not a JSON object: ${line}")
  endif()
endforeach()
message(STATUS "${CASE}: ${before}..${last} of ${JSON} parse")
