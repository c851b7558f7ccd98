# Runs the command after "--" and fails unless it exits with EXPECT_EXIT,
# its output matches EXPECT_REGEX, and no CHECK fired (a crash never
# passes):
#   cmake -DEXPECT_EXIT=1 -DEXPECT_REGEX=... -P expect_exit.cmake -- CMD...
set(command)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(DEFINED separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(separator ${i})
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT "${code}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status '${code}', expected ${EXPECT_EXIT}")
elseif("${out}${err}" MATCHES "CHECK failed")
  message(FATAL_ERROR "a CHECK fired")
elseif(NOT "${out}${err}" MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match '${EXPECT_REGEX}'")
endif()
