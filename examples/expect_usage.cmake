# cmake -P expect_usage.cmake <program> [args...]
#
# Runs the program and fails unless it exits with code 2 after printing a
# usage line: how a daemon must refuse a malformed flag.
math(EXPR last "${CMAKE_ARGC} - 1")
set(command)
foreach(i RANGE 3 ${last})
  list(APPEND command "${CMAKE_ARGV${i}}")
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "2" OR NOT out MATCHES "usage: ")
  message(FATAL_ERROR "expected exit 2 and a usage line, got exit '${code}'\n"
                      "${out}${err}")
endif()
message("${out}")
