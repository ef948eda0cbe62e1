# Runs TOOL with TOOL_ARGS and fails unless it exits with EXIT_CODE and its
# stderr matches ERROR_REGEX. A plain PASS_REGULAR_EXPRESSION ignores the
# exit status, so a tool that printed the error and exited 0 would pass.
# Invoked by ctest via
#   cmake -DTOOL=... -DTOOL_ARGS=arg1;arg2;... -DEXIT_CODE=N
#         -DERROR_REGEX=... -P expect_exit.cmake

get_filename_component(tool_name ${TOOL} NAME_WE)

execute_process(
  COMMAND ${TOOL} ${TOOL_ARGS}
  OUTPUT_QUIET
  ERROR_VARIABLE errors
  RESULT_VARIABLE status)
if(NOT status EQUAL EXIT_CODE)
  message(FATAL_ERROR "${tool_name} exited with ${status}, want ${EXIT_CODE}:\n${errors}")
endif()
if(NOT errors MATCHES "${ERROR_REGEX}")
  message(FATAL_ERROR "${tool_name} stderr does not match '${ERROR_REGEX}':\n${errors}")
endif()
